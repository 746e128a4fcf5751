"""Calibrate the eraser's interval-decided claims against their exact twins.

    PYTHONPATH=src python tests/calibrate_claims.py [--trials N] [--seeds S] [--alpha A]

For each of S seeds the script builds `inference.claim_evidence` at N
trials and runs the four Monte-Carlo claims of the eraser that
`inference._interval_verdict` decides.  Each one's exact twin gives the
true verdict:

- local causality and no-signaling: their analytic claims, on the exact
  Born tables `ev.tables`;
- the correlation agreement: "satisfied", since the counts are drawn from
  the very Born table they are compared with;
- the setting dependence: "violated" exactly when the left records of the
  exact transports `ev.transports` differ on a set of nonzero measure.

A false fail is a Monte-Carlo verdict that contradicts its twin;
"inconclusive" is a lack of power and is counted apart.  Each claim's
intervals miss with probability at most ALPHA, so the number of false
fails over S seeds and 4 claims is at most Binomial(4 S, ALPHA) in the
stochastic order.  The script exits 1 if the count reaches that binomial's
upper 1e-3 tail.  `--alpha` sets `inference.ALPHA` for the run, to measure
the false-fail rate where it is large enough to count.  Not part of
tier-1: 200 seeds take about a minute.
"""

import argparse
import math
import sys
from collections import Counter

from qfoundations import circuit, inference

_INT, _WP = circuit.INTERFERENCE, circuit.WHICHPATH
# Monte-Carlo claim -> its exact twin's verdict on one ClaimEvidence
TWINS = {
    "local_causality_eraser_monte_carlo":
        lambda ev, claims: claims["local_causality_eraser_analytic"](ev).verdict,
    "no_signaling_eraser_monte_carlo":
        lambda ev, claims: claims["no_signaling_eraser_analytic"](ev).verdict,
    "eraser_correlation_agreement": lambda ev, claims: inference.SATISFIED,
    "trajectory_setting_dependence": lambda ev, claims: (
        inference.VIOLATED
        if circuit.record_overlap_distance(
            ev.transports[(_INT, _INT, True)], ev.transports[(_INT, _WP, True)], arms=("L",)
        ) != 0
        else inference.SATISFIED
    ),
}


def binomial_tail_start(n: int, p: float, level: float = 1e-3) -> int:
    """The smallest x with P(Binomial(n, p) >= x) <= level."""
    def log_pmf(k):
        return (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                + k * math.log(p) + (n - k) * math.log1p(-p))

    tail = 1.0
    for x in range(n + 1):
        if tail <= level:
            return x
        tail -= math.exp(log_pmf(x))
    return n + 1


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=10_000)
    parser.add_argument("--seeds", type=int, default=200)
    parser.add_argument("--alpha", type=float, default=inference.ALPHA)
    args = parser.parse_args(argv)
    inference.ALPHA = args.alpha

    claims = {name: test for name, _, test in inference.CLAIMS}
    outcomes = Counter()
    for seed in range(args.seeds):
        ev = inference.claim_evidence(seed, args.trials)
        for name, twin in TWINS.items():
            verdict, truth = claims[name](ev).verdict, twin(ev, claims)
            kind = "agree" if verdict == truth else "inconclusive" if verdict == inference.INCONCLUSIVE else "false fail"
            outcomes[name, kind] += 1
            if kind == "false fail":
                print(f"false fail: seed {seed} {name} read {verdict}, its exact twin {truth}")

    decided = args.seeds * len(TWINS)
    false_fails = sum(c for (_, kind), c in outcomes.items() if kind == "false fail")
    limit = binomial_tail_start(decided, args.alpha)
    for name in TWINS:
        print(f"{name}: " + ", ".join(f"{outcomes[name, k]} {k}" for k in ("agree", "inconclusive", "false fail")))
    print(f"alpha {args.alpha:.6g}, {args.trials} trials, {args.seeds} seeds: {false_fails} false fails "
          f"in {decided} verdicts; the binomial bound refuses {limit} or more")
    return 0 if false_fails < limit else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
