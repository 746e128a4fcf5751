"""The float transport kernel that `circuit.sample_bohmian_runs` used to run,
kept as the oracle for the cell lookup that replaced it.

`kernel_runs` pushes whole ensembles through the circuit as an (n, 2, 2)
complex state, element by element, and reads each beam-splitter angle as
`float(theta)`; it returns the beam-splitter labels per arm and the
detector numbers per run.

Run as a script, it compares the sampler with the kernel on seeded draws
for every setting/order pair and angle and prints the disagreements:

    PYTHONPATH=src python tests/kernel_oracle.py [draws per case]
"""

import sys
from fractions import Fraction

import numpy as np

from qfoundations import circuit, exact

_FLOAT_PROB_FLOOR = 1e-12

PAIRS = [
    (left, right, rfirst)
    for left in (circuit.INTERFERENCE, circuit.WHICHPATH)
    for right in (circuit.INTERFERENCE, circuit.WHICHPATH)
    for rfirst in (False, True)
]
ANGLES = [
    exact.pi_times(Fraction(1, 4)),
    exact.pi_times(Fraction(1, 8)),
    exact.pi_times(Fraction(3, 16)),
    0.0,
    0.3,
    1.1,
    np.pi / 2,
]


def kernel_runs(circ, labels0, coords0):
    """(bs_labels, outcomes) of the float kernel for these configurations."""
    labels0 = np.asarray(labels0, dtype=np.intp)
    coords0 = np.asarray(coords0, dtype=np.float64)
    n = labels0.shape[0]
    state = np.broadcast_to(circuit.FLOAT_SOURCE, (n, 2, 2)).copy()
    labels = labels0.copy()
    xs = coords0.copy()
    rows = np.arange(n)
    bs_labels: dict = {"L": [], "R": []}
    outcomes = np.zeros((n, 2), dtype=np.intp)

    for el in circ.elements:
        a = 0 if el.arm == "L" else 1
        other = labels[:, 1 - a]
        if a == 0:
            amps = state[rows[:, None], np.arange(2)[None, :], other[:, None]]
        else:
            amps = state[rows[:, None], other[:, None], np.arange(2)[None, :]]
        pb = np.abs(amps) ** 2
        tot = pb.sum(axis=1)
        if not np.all(tot > 0):
            raise RuntimeError("conditional state has zero norm")
        pb = pb / tot[:, None]

        if el.kind == "beam_splitter":
            own = pb[rows, labels[:, a]]
            if not np.all(own > _FLOAT_PROB_FLOOR):
                raise RuntimeError("actual label at zero probability")
            c = np.where(labels[:, a] == 1, pb[:, 0], 0.0) + xs[:, a] * own
            b = circuit.beam_splitter_matrix(float(el.theta))
            if a == 0:
                state = np.einsum("ij,njk->nik", b, state)
            else:
                state = np.einsum("ij,nkj->nki", b, state)
            if a == 0:
                amps2 = state[rows[:, None], np.arange(2)[None, :], other[:, None]]
            else:
                amps2 = state[rows[:, None], other[:, None], np.arange(2)[None, :]]
            pa = np.abs(amps2) ** 2
            pa = pa / pa.sum(axis=1)[:, None]
            new_lab = (c >= pa[:, 0]).astype(np.intp)
            chosen = pa[rows, new_lab]
            if not np.all(chosen > _FLOAT_PROB_FLOOR):
                raise RuntimeError("transport hit a zero-probability label")
            lo = np.where(new_lab == 1, pa[:, 0], 0.0)
            xs[:, a] = (c - lo) / chosen
            labels[:, a] = new_lab
            bs_labels[el.arm].append(new_lab.copy())
        else:
            num = np.where(
                labels[:, a] == 0,
                2 if el.kind == "erasure_detector" else 3,
                1 if el.kind == "erasure_detector" else 4,
            )
            outcomes[:, a] = num
            keep = labels[:, a]
            mask = np.arange(2)[None, :] == keep[:, None]
            if a == 0:
                state = state * mask[:, :, None]
            else:
                state = state * mask[:, None, :]

    return {k: tuple(v) for k, v in bs_labels.items()}, outcomes


def disagreements(sample) -> int:
    """Runs of a sample whose outcome or beam-splitter labels differ from the
    kernel's for the same initial configurations."""
    bs_labels, outcomes = kernel_runs(sample.circuit, sample.labels0, sample.coords0)
    differ = np.any(outcomes != sample.outcomes, axis=1)
    for arm in "LR":
        for ours, theirs in zip(sample.bs_labels[arm], bs_labels[arm]):
            differ |= ours != theirs
    return int(differ.sum())


def main(draws: int) -> None:
    chunk = 100_000
    print(f"draws per case: {draws} (chunks of {chunk}, seed 0, stream i for chunk i)")
    for theta in ANGLES:
        for left, right, rfirst in PAIRS:
            circ = circuit.build_eraser(left, right, theta_left=theta, theta_right=theta,
                                        right_acts_first=rfirst)
            count = sum(
                disagreements(circuit.sample_bohmian_runs(circ, min(chunk, draws - start), 0, i))
                for i, start in enumerate(range(0, draws, chunk))
            )
            print(f"theta={float(theta)!r:<20} {left:>12} {right:>12} right_first={rfirst!s:<5} "
                  f"disagreements={count}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 1_000_000)
