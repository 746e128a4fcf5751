"""One hidden configuration, two far-side settings, two different records.

The deterministic transport assigns every run a definite path history.
Fix the hidden configuration (labels plus coordinates) and rerun it with
the right arm toggled between interference and which-path, with the right
arm acting first.  The left particle's own record changes, even though the
left arm's equipment and the left outcome statistics stay identical.  By
exact enumeration, half of the equilibrium measure changes its left record
this way - yet the left record's marginal law is setting-independent, so
the dependence is invisible at the ensemble level.
"""

from qfoundations import circuit, inference

INT = circuit.INTERFERENCE
WP = circuit.WHICHPATH


def left_record(circ, labels, coords):
    run = circuit.sample_bohmian_runs(circ, 0, 0, hidden=([labels], [coords]))
    layers = (0,) + run.bs_layers["L"]
    labs = (run.labels0[0, 0],) + tuple(row[0] for row in run.bs_labels["L"])
    return tuple((layer, circuit.PATH_LABELS[lab]) for layer, lab in zip(layers, labs))


def main():
    circ_int = circuit.build_eraser(INT, INT, right_acts_first=True)
    circ_wp = circuit.build_eraser(INT, WP, right_acts_first=True)

    print("hidden value: labels (1,1), x_L = 3/10, x_R = 3/4, right arm first")
    print(f"  right = interference -> left record {left_record(circ_int, [0, 0], [0.3, 0.75])}")
    print(f"  right = which-path   -> left record {left_record(circ_wp, [0, 0], [0.3, 0.75])}")
    print("  the left record flips with the *right* arm's configuration\n")

    enum_int = circuit.enumerate_transport(
        circuit.build_eraser(INT, INT, right_acts_first=True))
    enum_wp = circuit.enumerate_transport(
        circuit.build_eraser(INT, WP, right_acts_first=True))
    paired = circuit.record_overlap_distance(enum_int, enum_wp, arms=("L",))
    print(f"measure of hidden values whose left record changes: {paired}")

    # swap the time order and the dependence disappears: a record already
    # written cannot react to a later far-side choice
    early_int = circuit.enumerate_transport(circuit.build_eraser(INT, INT))
    early_wp = circuit.enumerate_transport(circuit.build_eraser(INT, WP))
    print(f"same measure when the left arm acts first: "
          f"{circuit.record_overlap_distance(early_int, early_wp, arms=('L',))}\n")

    report = inference.trajectory_setting_dependence(1000, seed=7, stream_index=400)
    print(f"sampled check over {report.n} equilibrium configurations:")
    print(f"  changed fraction = {report.statistic:.3f}  (exact value 1/2)")


if __name__ == "__main__":
    main()
