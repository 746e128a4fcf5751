"""Collapse and branching bookkeeping on the same measurement.

A projective measurement can be read two ways: collapse the state onto
the observed eigenspace, or split it into branches and never collapse.
Branch weights reproduce the Born probabilities, so the two readings agree
on all outcome statistics.  Where they genuinely differ is repeatability:
remeasuring *without* any collapse step (sampling the original state
twice) flips half the outcomes, while the projection postulate - or
staying inside one branch - predicts none.
"""

from qfoundations import circuit, hilbert, inference


def main():
    space = hilbert.HilbertSpace(("1", "2"))
    plus = hilbert.superposition(space, {"1": 1.0, "2": 1.0})
    obs = hilbert.path_observable(space)

    print("state (|1> + |2>)/sqrt(2), path measurement:")
    for b in hilbert.branch(plus, obs):
        print(f"  branch {b.outcome}: weight {b.weight:.3f}")
    print(f"  Born distribution: {hilbert.born_distribution(plus, obs)}\n")

    circ = circuit.build_eraser(circuit.INTERFERENCE, circuit.INTERFERENCE)
    collapse_view = circuit.copenhagen_joint_distribution(circ)
    branch_view = inference.mwi_joint_distribution(circ)
    print("eraser joint distribution, collapse vs branching (exact):")
    for key in sorted(collapse_view):
        print(f"  {key}: {collapse_view[key]} vs {branch_view.get(key, 'no branch')}")
    nonzero = {k: p for k, p in collapse_view.items() if p != 0}
    print(f"  branch weights == nonzero collapse probabilities: {branch_view == nonzero}\n")

    n = 20_000
    kept = inference.repeatability_test(n, collapse=True, seed=7)
    dropped = inference.repeatability_test(n, collapse=False, seed=7)
    print(f"repeat the measurement immediately ({n} trials):")
    print(f"  with projection    : {kept.statistic:.4f} of outcomes flip -> {kept.verdict}")
    print(f"  without projection : {dropped.statistic:.4f} of outcomes flip -> {dropped.verdict}")

    rep = inference.branch_collapse_equivalence(seed=7)
    print(f"\nrandomized family, branch weights vs collapse frequencies:")
    print(f"  {rep.details['pairs']} (state, observable) pairs, "
          f"max weight deviation {rep.details['max_weight_deviation']:.1e}, "
          f"max |z| {rep.statistic:.2f} -> {rep.verdict}")


if __name__ == "__main__":
    main()
