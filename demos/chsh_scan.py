"""Correlators, the classical bound, and the quantum optimum.

With both arms interfering, the detector-sign correlator depends only on
the angle difference: E = cos(2(theta_L - theta_R)).  Deterministic local
strategies top out at S = 2 in the CHSH combination; the entangled source
reaches 2*sqrt(2) on the same grid of settings.
"""

import math

from qfoundations import inference


def main():
    print("correlator vs angle difference (left angle fixed at 0):")
    row = inference.correlator_table([0.0], [k * math.pi / 16 for k in range(9)])[0]
    for k, e in enumerate(row):
        bar = "#" * round(20 * abs(e))
        sign = "+" if e >= 0 else "-"
        print(f"  delta = {k:>2}*pi/16   E = {e:+.3f}  {sign}{bar}")

    print("\ndeterministic local strategies, best S over the setting grid:")
    models = inference.local_deterministic_models()
    best = max(models, key=lambda m: inference.local_model_chsh_max(m))
    for m in models[:4] + (best,):
        print(f"  {m.name:<20} S_max = {inference.local_model_chsh_max(m):.3f}")
    print(f"  ({len(models)} strategies total, none beats 2)")

    res = inference.chsh_optimize()
    print("\nentangled source, maximum over the setting grid:")
    print(f"  S_max = {res.s_value:.12f}")
    print(f"  2*sqrt(2) = {2 * math.sqrt(2):.12f}")
    print(f"  exact value at the winning grid settings: {res.exact_value}")
    angles = ", ".join(f"{a / math.pi:.4f}*pi" for a in res.settings)
    print(f"  settings: {angles}")


if __name__ == "__main__":
    main()
