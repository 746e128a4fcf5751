"""Walk the eraser through its four setting combinations.

Two particles leave the source on perfectly correlated path labels.  When
both arms measure which path was taken, the labels agree run by run.  When
both arms instead interfere the labels away before detecting, the detector
pair correlates perfectly again - the which-path information was erased.
One interference arm against one which-path arm decorrelates completely.
"""

from qfoundations import circuit

INT = circuit.INTERFERENCE
WP = circuit.WHICHPATH


def show(left, right, right_acts_first=False):
    circ = circuit.build_eraser(left, right, right_acts_first=right_acts_first)
    dist = circuit.copenhagen_joint_distribution(circ)
    order = "right arm first" if right_acts_first else "left arm first"
    print(f"\nleft={left}, right={right}  ({order})")
    for (l, r), p in dist.items():
        if p != 0:
            print(f"  P({l}, {r}) = {p}")


def main():
    for settings in [(WP, WP), (INT, INT), (INT, WP)]:
        show(*settings)

    # the joint statistics cannot depend on which arm acted first
    print("\nsame distributions with the time order swapped:")
    for settings in [(INT, INT), (INT, WP)]:
        a = circuit.copenhagen_joint_distribution(
            circuit.build_eraser(*settings))
        b = circuit.copenhagen_joint_distribution(
            circuit.build_eraser(*settings, right_acts_first=True))
        print(f"  {settings}: order-independent = {a == b}")

    # and a sampled run agrees with the exact table
    n = 50_000
    counts = circuit.sample_bohmian_runs(circuit.build_eraser(INT, INT), n, seed=7).outcome_counts()
    print(f"\n{n} sampled runs of (interference, interference):")
    for pair, k in sorted(counts.items()):
        print(f"  {pair}: {k / n:.4f}")


if __name__ == "__main__":
    main()
