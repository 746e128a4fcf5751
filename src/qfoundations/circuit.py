"""Discrete quantum eraser with a deterministic hidden-path dynamics.

Two particles leave a source on perfectly correlated path labels,

    psi0 = (|1>_L |1>_R + |2>_L |2>_R) / sqrt(2),

and fly into a left and a right arm.  Each arm is configured either as a
which-path arm (terminal detector reading the path label) or as an
interference arm (beam splitter, then a terminal detector reading the
output port).  The beam splitter convention is

    |1> -> cos(theta) |1'> + sin(theta) |2'>,
    |2> -> sin(theta) |1'> - cos(theta) |2'>,

real orthogonal; at theta = pi/4 the output ports collect the sum and
difference combinations (|1> +/- |2>)/sqrt(2).  Detector numbering per arm:
the 1-detector receives the difference port, the 2-detector the sum port,
3 and 4 are the which-path detectors on labels 1 and 2.  Copenhagen
statistics come from evolving the joint state through the layered elements
(`hilbert` does the linear algebra) and reading the terminal basis.

On the same circuit rides a deterministic hidden configuration: each
particle actually sits on one label, dressed with a coordinate x in [0,1)
inside it.  Its global coordinate is the cumulative conditional probability
of the labels above it - conditional on the other particle's current actual
label - plus x times its own label's probability.  When an element
transforms an arm, that global coordinate is held fixed while the label
decomposition of [0,1) changes to the post-element conditional; the
particle lands in whichever output interval contains its coordinate.  This
is the monotone inverse-CDF coupling of the before/after conditionals,
hence measure preserving: an equilibrium ensemble reproduces the Born
weights at every layer, which `enumerate_transport` verifies cell by cell.
Detection reads the actual label and conditions the joint state on it, so
later transport on the other arm depends on what was detected here - and on
whether a beam splitter was present here at all.

Arithmetic: the analytic engine (`evolved_state`,
`copenhagen_joint_distribution`, `enumerate_transport`,
`record_overlap_distance`) runs on `exact.Cyclotomic` scalars only.  It
takes `exact.pi_times` angles, so every amplitude and probability lies in a
cyclotomic field, where zero tests are exact and signs are decided or
refused, never guessed; a radian angle raises TypeError.  The transport is
one cell split, generic over its scalar: the Monte Carlo sampler
`sample_bohmian_runs` runs it once per circuit (in floats if an angle is in
radians) and reads each run off the cell holding its initial configuration;
a single configuration is a one-row ensemble passed as `hidden`.
`sample_eraser` streams a large ensemble through the sampler: it yields
fixed-size chunks in stream order, drawing at most `workers` ahead, so a
consumer that folds each chunk in holds O(workers x chunk) runs at any n.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from collections import Counter, deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from . import exact as ex
from . import hilbert
from .streams import stream

__all__ = [
    "INTERFERENCE",
    "WHICHPATH",
    "PATH_LABELS",
    "FLOAT_SOURCE",
    "CircuitElement",
    "OpticalCircuit",
    "path_space",
    "joint_space",
    "initial_state",
    "beam_splitter_matrix",
    "build_eraser",
    "evolved_state",
    "copenhagen_joint_distribution",
    "detector_names",
    "outcome_name",
    "sample_bohmian_runs",
    "BohmianSample",
    "enumerate_transport",
    "TransportEnumeration",
    "record_overlap_distance",
    "sample_eraser",
]

INTERFERENCE = "interference"
WHICHPATH = "whichpath"
PATH_LABELS = ("1", "2")
_QUARTER = ex.pi_times(Fraction(1, 4))
_R = 1.0 / np.sqrt(2.0)
# the source state (|11> + |22>)/sqrt(2) in float arithmetic, as a 2x2 table
# of amplitudes indexed (left label, right label), for the sampler
FLOAT_SOURCE = np.array([[_R, 0.0], [0.0, _R]], dtype=np.complex128)
FLOAT_SOURCE.setflags(write=False)


# ---------------------------------------------------------------------------
# circuit structure


@dataclass(frozen=True)
class CircuitElement:
    layer: int
    arm: str  # 'L' | 'R'
    kind: str  # 'beam_splitter' | 'whichpath_detector' | 'erasure_detector'
    theta: object = None


@dataclass(frozen=True)
class OpticalCircuit:
    settings: tuple[str, str]  # (left, right)
    elements: tuple[CircuitElement, ...]
    right_acts_first: bool

    def __post_init__(self):
        layers = [e.layer for e in self.elements]
        if any(b <= a for a, b in zip(layers, layers[1:])):
            raise ValueError(f"element layers must strictly increase, got {layers}")
        for arm in "LR":
            terminals = [e for e in self.elements if e.arm == arm and e.kind.endswith("detector")]
            if len(terminals) != 1:
                raise ValueError(f"arm {arm} needs exactly one terminal detector")
            if terminals[0] is not [e for e in self.elements if e.arm == arm][-1]:
                raise ValueError(f"the detector must be the last element on arm {arm}")
        for e in self.elements:
            if e.kind == "beam_splitter":
                if e.theta is None:
                    raise ValueError(f"beam splitter (layer {e.layer}, arm {e.arm}) has no angle")
                th = float(e.theta)
                if not 0.0 <= th <= np.pi / 2 + 1e-12:
                    raise ValueError(f"beam splitter angle {th} outside [0, pi/2]")

    def arm_elements(self, arm: str) -> tuple[CircuitElement, ...]:
        return tuple(e for e in self.elements if e.arm == arm)


def detector_names(setting: str, arm: str) -> tuple[str, str]:
    """Outcome names an arm can produce, in detector-number order."""
    if setting == INTERFERENCE:
        return (f"{arm}1", f"{arm}2")
    if setting == WHICHPATH:
        return (f"{arm}3", f"{arm}4")
    raise ValueError(f"unknown setting {setting!r}")


def _detector_number(kind: str, label_idx: int) -> int:
    # interference: difference port (label index 1) -> 1, sum port (index 0) -> 2
    # which-path:   label 1 -> 3, label 2 -> 4
    if kind == "erasure_detector":
        return 2 - label_idx
    return 3 + label_idx


def outcome_name(setting: str, arm: str, label_idx: int) -> str:
    """Detector name an arm reports when its terminal label has this index."""
    kind = "erasure_detector" if setting == INTERFERENCE else "whichpath_detector"
    return f"{arm}{_detector_number(kind, label_idx)}"


def build_eraser(
    left: str,
    right: str,
    theta_left=None,
    theta_right=None,
    right_acts_first: bool = False,
) -> OpticalCircuit:
    """Two-arm eraser circuit; interference arms get a beam splitter before
    their terminal detector, which-path arms only the detector.

    The angles default to `exact.pi_times(1/4)`.  The analytic engine takes
    only `exact.pi_times` angles; the Monte Carlo sampler also takes radians.

    Layer times honor `right_acts_first`: the full right arm acts before the
    left one when set, else the other way around.  Each arm owns a fixed pair
    of layer slots (1-2 for the first-acting arm, 3-4 for the second) no
    matter how the other arm is configured, so path records taken under
    different far-side settings stay comparable entry by entry.
    """
    for setting in (left, right):
        if setting not in (INTERFERENCE, WHICHPATH):
            raise ValueError(f"unknown setting {setting!r}")
    thetas = {
        "L": theta_left if theta_left is not None else _QUARTER,
        "R": theta_right if theta_right is not None else _QUARTER,
    }
    settings = {"L": left, "R": right}
    order = ("R", "L") if right_acts_first else ("L", "R")
    elements = []
    for slot, arm in enumerate(order):
        base = 1 + 2 * slot
        if settings[arm] == INTERFERENCE:
            elements.append(CircuitElement(base, arm, "beam_splitter", theta=thetas[arm]))
            elements.append(CircuitElement(base + 1, arm, "erasure_detector"))
        else:
            elements.append(CircuitElement(base, arm, "whichpath_detector"))
    return OpticalCircuit((left, right), tuple(elements), right_acts_first)


# ---------------------------------------------------------------------------
# states and Copenhagen statistics


def path_space() -> hilbert.HilbertSpace:
    return hilbert.HilbertSpace(PATH_LABELS)


def joint_space() -> hilbert.HilbertSpace:
    return path_space().tensor(path_space())


def initial_state() -> hilbert.StateVector:
    """(|11> + |22>)/sqrt(2) on the joint path space, exactly."""
    r = ex.SQRT2 / 2
    return hilbert.StateVector(joint_space(), np.array([r, ex.ZERO, ex.ZERO, r], dtype=object))


def beam_splitter_matrix(theta) -> np.ndarray:
    """2x2 action on (|1>, |2>) amplitude columns; see the module docstring.

    Exact entries for an `exact.Angle`, complex floats for radians.
    """
    if isinstance(theta, ex.Angle):
        c, s = theta.cos(), theta.sin()
        return np.array([[c, s], [s, -c]], dtype=object)
    c, s = np.cos(float(theta)), np.sin(float(theta))
    return np.array([[c, s], [s, -c]], dtype=np.complex128)


def _joint_unitary(b: np.ndarray, arm: str) -> hilbert.UnitaryMap:
    """A one-arm 2x2 matrix lifted to the joint path space."""
    eye = np.eye(2, dtype=b.dtype)
    return hilbert.UnitaryMap(np.kron(b, eye) if arm == "L" else np.kron(eye, b))


def _exact_beam_splitter(el: CircuitElement) -> np.ndarray:
    """The analytic engine's beam-splitter matrix; it refuses radians."""
    if not isinstance(el.theta, ex.Angle):
        raise TypeError(
            f"the analytic engine takes exact.pi_times angles, not the radian angle {el.theta!r}"
        )
    return beam_splitter_matrix(el.theta)


def evolved_state(circ: OpticalCircuit) -> hilbert.StateVector:
    """Joint state after every beam-splitter layer (detectors read this)."""
    psi = initial_state()
    for el in circ.elements:
        if el.kind == "beam_splitter":
            psi = hilbert.evolve(psi, _joint_unitary(_exact_beam_splitter(el), el.arm))
    return psi


def _prob(z):
    return z * z.conjugate()


def copenhagen_joint_distribution(circ: OpticalCircuit) -> dict:
    """Probability table over joint detector outcomes, keyed (left, right).

    The joint state is evolved through every beam splitter layer; the
    terminal detectors then read the path basis of the evolved state, which
    is the same thing as applying the rotated projectors to the source state.
    """
    psi = evolved_state(circ)
    kinds = {
        arm: circ.arm_elements(arm)[-1].kind for arm in "LR"
    }
    amps = psi.amplitudes.reshape(2, 2)
    out: dict = {}
    for l, r in itertools.product(range(2), range(2)):
        name_l = f"L{_detector_number(kinds['L'], l)}"
        name_r = f"R{_detector_number(kinds['R'], r)}"
        out[(name_l, name_r)] = _prob(amps[l, r])
    if sum(out.values()) != 1:
        raise RuntimeError("joint distribution must sum to 1 exactly")
    return dict(sorted(out.items()))


# ---------------------------------------------------------------------------
# monotone transport helpers for the cell split


def _arm_major(state: np.ndarray, arm: int) -> np.ndarray:
    """A view of the 2x2 amplitude table with rows indexed by `arm`'s label."""
    return state if arm == 0 else state.T


def _conditional(state: np.ndarray, arm: int, other_label: int, prob) -> list:
    """This arm's label probabilities given the other arm's actual label."""
    ps = [prob(a) for a in _arm_major(state, arm)[:, other_label]]
    tot = ps[0] + ps[1]
    if tot == 0:
        raise RuntimeError("conditional state has zero norm; transport is inconsistent")
    return [p / tot for p in ps]


def _with(pair: tuple, arm: int, value) -> tuple:
    """A (left, right) pair with this arm's entry replaced."""
    return (value, pair[1]) if arm == 0 else (pair[0], value)


@dataclass
class _Cell:
    labels0: tuple[int, int]
    init: tuple  # ((a,b), (c,d)) initial coordinate rectangles
    cur: tuple  # ((lo,hi), (lo,hi)) current intra-label coordinate intervals
    labels: tuple[int, int]
    state: np.ndarray  # 2x2 joint amplitudes, indexed (left label, right label)
    recs: tuple  # (rec_left, rec_right)
    outcome: dict


def _split_cells(circ: OpticalCircuit, psi0, prob, beam_splitter, zero, one) -> Iterator[list]:
    """Split the hidden-variable space into cells with constant label history;
    yields the cells at the source and after each element of `circ`.

    Cells are (initial joint label, coordinate sub-rectangle) pieces; the
    transport map is affine on each piece, so finitely many cells capture the
    whole dynamics.  The split is generic over its scalar: `psi0` is the 2x2
    source amplitude table, `prob` maps an amplitude to a real probability,
    `beam_splitter` maps an element to its 2x2 matrix, and `zero` and `one`
    bound the coordinates.
    """
    cells = [
        _Cell(
            labels0=(l, r),
            init=((zero, one), (zero, one)),
            cur=((zero, one), (zero, one)),
            labels=(l, r),
            state=psi0,
            recs=(((0, PATH_LABELS[l]),), ((0, PATH_LABELS[r]),)),
            outcome={},
        )
        for l, r in itertools.product(range(2), range(2))
        if prob(psi0[l][r]) != 0
    ]
    yield cells

    for el in circ.elements:
        arm = 0 if el.arm == "L" else 1
        new_cells = []
        b = beam_splitter(el) if el.kind == "beam_splitter" else None
        for cell in cells:
            if b is None:
                # a detector reads the actual label and conditions the state on it
                lab = cell.labels[arm]
                state = cell.state.copy()
                _arm_major(state, arm)[1 - lab] = zero
                outcome = {**cell.outcome, el.arm: f"{el.arm}{_detector_number(el.kind, lab)}"}
                new_cells.append(dataclasses.replace(cell, state=state, outcome=outcome))
                continue
            other = cell.labels[1 - arm]
            before = _conditional(cell.state, arm, other, prob)
            own = before[cell.labels[arm]]
            if own == 0:
                raise RuntimeError("cell label carries zero conditional probability")
            xlo, xhi = cell.cur[arm]
            base = before[0] if cell.labels[arm] == 1 else zero
            clo = base + xlo * own
            chi = base + xhi * own
            new_state = _arm_major(b @ _arm_major(cell.state, arm), arm)
            after = _conditional(new_state, arm, other, prob)
            bounds = [zero, after[0], one]
            for k in range(2):
                plo = clo if bounds[k] < clo else bounds[k]
                phi = chi if chi < bounds[k + 1] else bounds[k + 1]
                if not plo < phi:
                    continue
                frac_lo = (plo - clo) / (chi - clo)
                frac_hi = (phi - clo) / (chi - clo)
                ia, ib = cell.init[arm]
                # weighted so that fractions 0 and 1 give ia and ib exactly in
                # floats too, and neighbouring cells share their edges
                init_arm = (ia * (1 - frac_lo) + ib * frac_lo, ia * (1 - frac_hi) + ib * frac_hi)
                cur_arm = ((plo - bounds[k]) / after[k], (phi - bounds[k]) / after[k])
                new_cells.append(
                    dataclasses.replace(
                        cell,
                        init=_with(cell.init, arm, init_arm),
                        cur=_with(cell.cur, arm, cur_arm),
                        labels=_with(cell.labels, arm, k),
                        state=new_state,
                        recs=_with(cell.recs, arm, cell.recs[arm] + ((el.layer, PATH_LABELS[k]),)),
                    )
                )
        cells = new_cells
        yield cells


# ---------------------------------------------------------------------------
# Monte Carlo sampling: runs read off the transport cells


@dataclass(frozen=True)
class BohmianSample:
    """Equilibrium ensemble pushed through the circuit, as flat arrays."""

    circuit: OpticalCircuit
    labels0: np.ndarray  # (n, 2) int
    coords0: np.ndarray  # (n, 2) float
    bs_layers: dict  # arm -> tuple of layer ids with a beam splitter
    bs_labels: dict  # arm -> (n, n_bs) int labels after each beam splitter
    outcomes: np.ndarray  # (n, 2) int detector numbers

    @property
    def n(self) -> int:
        return self.labels0.shape[0]

    def outcome_counts(self) -> Counter:
        """Runs per joint outcome, keyed (left name, right name) like the
        analytic tables; only outcomes that occurred are listed."""
        # detector numbers run 1..4 per arm, so (left, right) packs into 0..15
        counts = np.bincount(4 * (self.outcomes[:, 0] - 1) + self.outcomes[:, 1] - 1, minlength=16)
        return Counter(
            {(f"L{k // 4 + 1}", f"R{k % 4 + 1}"): int(c) for k, c in enumerate(counts) if c}
        )

    def run_dicts(self, limit: int | None = None) -> list[dict]:
        """Export form: one dict per run, matching the path-record JSON schema,
        for the first `limit` runs (all runs when None)."""
        left, right = self.circuit.settings
        out = []
        for i in range(self.n if limit is None else min(limit, self.n)):
            recs = {}
            for arm, a in (("L", 0), ("R", 1)):
                entries = [[0, PATH_LABELS[self.labels0[i, a]]]]
                for layer, labs in zip(self.bs_layers[arm], self.bs_labels[arm]):
                    entries.append([int(layer), PATH_LABELS[labs[i]]])
                recs[arm] = entries
            out.append(
                {
                    "hidden": {
                        "label_L": PATH_LABELS[self.labels0[i, 0]],
                        "label_R": PATH_LABELS[self.labels0[i, 1]],
                        "x_L": float(self.coords0[i, 0]),
                        "x_R": float(self.coords0[i, 1]),
                    },
                    "settings": {"left": left, "right": right},
                    "record_L": recs["L"],
                    "record_R": recs["R"],
                    "outcome": {"left": f"L{self.outcomes[i, 0]}", "right": f"R{self.outcomes[i, 1]}"},
                }
            )
        return out


@dataclass(frozen=True)
class _CellTable:
    """A circuit's final transport cells as float arrays.  The edges of the
    cells' initial rectangles cut each axis into half-open intervals, and
    each box of that grid lies in one cell."""

    edges: tuple  # arm -> sorted distinct rectangle edges, 0.0 to 1.0
    grid: np.ndarray  # (label_L, label_R, box_L, box_R) -> cell, -1 if none
    outcomes: np.ndarray  # (cells, 2) detector numbers
    bs_labels: dict  # arm -> tuple of (cells,) labels, one per beam splitter


@functools.lru_cache(maxsize=64)
def _cell_table(circ: OpticalCircuit) -> _CellTable:
    """The cell split of `circ`, run once per circuit: exactly when every
    beam-splitter angle is an `exact.Angle`, else in floats."""
    if all(isinstance(e.theta, ex.Angle) for e in circ.elements if e.kind == "beam_splitter"):
        psi0 = initial_state().amplitudes.reshape(2, 2)
        *_, cells = _split_cells(circ, psi0, _prob, _exact_beam_splitter, ex.ZERO, ex.ONE)
    else:
        *_, cells = _split_cells(
            circ, FLOAT_SOURCE, lambda z: abs(z) ** 2,
            lambda el: beam_splitter_matrix(float(el.theta)), 0.0, 1.0,
        )
    rects = np.array([[[float(v) for v in iv] for iv in c.init] for c in cells])
    edges = tuple(np.unique(rects[:, a]) for a in range(2))
    grid = np.full((2, 2, edges[0].size - 1, edges[1].size - 1), -1, dtype=np.intp)
    for k, (cell, rect) in enumerate(zip(cells, rects)):
        (l0, h0), (l1, h1) = (np.searchsorted(e, rect[a]) for a, e in enumerate(edges))
        boxes = grid[cell.labels0][l0:h0, l1:h1]
        if np.any(boxes >= 0):
            raise RuntimeError("transport cells overlap in floats")
        boxes[...] = k
    if any(np.any(grid[c.labels0] < 0) for c in cells):
        raise RuntimeError("transport cells leave a gap in floats")
    outcomes = np.array([[int(c.outcome[arm][1:]) for arm in "LR"] for c in cells], dtype=np.intp)
    bs_labels = {
        arm: tuple(
            np.array([PATH_LABELS.index(c.recs[a][j][1]) for c in cells], dtype=np.intp)
            for j in range(1, len(cells[0].recs[a]))
        )
        for a, arm in enumerate("LR")
    }
    for array in (*edges, grid, outcomes, *bs_labels["L"], *bs_labels["R"]):
        array.setflags(write=False)
    return _CellTable(edges, grid, outcomes, bs_labels)


def sample_bohmian_runs(
    circ: OpticalCircuit,
    n: int,
    seed: int,
    stream_index: int = 0,
    hidden: tuple[np.ndarray, np.ndarray] | None = None,
) -> BohmianSample:
    """Push n equilibrium configurations through the circuit, vectorized.

    `hidden` can supply (labels0, coords0) directly, e.g. to reuse the same
    initial configurations across different settings: label indices in
    {0, 1} and coordinates in [0, 1), one row per run; n is then ignored.
    Each run is read off the cell of `_cell_table` whose initial labels and
    half-open rectangle hold it; a configuration that the source state gives
    zero probability lies in no cell and raises RuntimeError.
    """
    if hidden is None:
        rng = stream(seed, stream_index)
        probs = np.abs(FLOAT_SOURCE.ravel()) ** 2
        cum = np.cumsum(probs)
        cum[-1] = 1.0
        cells = np.searchsorted(cum, rng.random(n), side="right")
        labels0 = np.stack(np.divmod(cells, 2), axis=1).astype(np.intp)
        coords0 = rng.random((n, 2))
    else:
        labels0, coords0 = hidden
        labels0 = np.asarray(labels0, dtype=np.intp).copy()
        coords0 = np.asarray(coords0, dtype=np.float64).copy()
        if labels0.ndim != 2 or labels0.shape[1] != 2 or coords0.shape != labels0.shape:
            raise ValueError("hidden labels and coordinates must both have shape (n, 2)")
        if not np.all((labels0 == 0) | (labels0 == 1)):
            raise ValueError("hidden label indices must lie in {0, 1}")
        if not np.all((coords0 >= 0.0) & (coords0 < 1.0)):
            raise ValueError("hidden coordinates outside [0, 1)")

    table = _cell_table(circ)
    box_l, box_r = (
        np.searchsorted(edges, coords0[:, a], side="right") - 1
        for a, edges in enumerate(table.edges)
    )
    cell = table.grid[labels0[:, 0], labels0[:, 1], box_l, box_r]
    if np.any(cell < 0):
        raise RuntimeError("a hidden configuration has zero probability under the source state")
    return BohmianSample(
        circuit=circ,
        labels0=labels0,
        coords0=coords0,
        bs_layers={
            arm: tuple(e.layer for e in circ.arm_elements(arm) if e.kind == "beam_splitter")
            for arm in "LR"
        },
        bs_labels={arm: tuple(labs[cell] for labs in table.bs_labels[arm]) for arm in "LR"},
        outcomes=table.outcomes[cell],
    )


def sample_eraser(circ, n: int, seed: int, workers: int, base_index: int) -> Iterator[BohmianSample]:
    """`sample_bohmian_runs` over n runs in fixed-size chunks, chunk i drawn
    from stream (seed, base_index + i), yielded in that order; `workers`
    threads draw ahead, at most `workers` chunks at a time.  Fewer than one
    run raises ValueError here, not at the first chunk."""
    if n < 1:
        raise ValueError(f"n must be at least 1, got n={n}")
    # chunk size depends only on n, so stream indices (and results) are the
    # same no matter how many workers draw them
    chunk = max(10000, math.ceil(n / 100))
    sizes = [min(chunk, n - start) for start in range(0, n, chunk)]

    def work(i):
        return sample_bohmian_runs(circ, sizes[i], seed, stream_index=base_index + i)

    if workers <= 1:
        return map(work, range(len(sizes)))
    return _drawn_ahead(work, len(sizes), workers)


def _drawn_ahead(work, count: int, workers: int) -> Iterator[BohmianSample]:
    """work(0), ..., work(count - 1) in order, computed on `workers` threads
    with at most `workers` results submitted and not yet yielded."""
    with ThreadPoolExecutor(max_workers=workers) as pool:
        ahead: deque = deque()
        for i in range(count):
            ahead.append(pool.submit(work, i))
            if len(ahead) == workers:
                yield ahead.popleft().result()
        while ahead:
            yield ahead.popleft().result()


# ---------------------------------------------------------------------------
# exact enumeration of the transport


@dataclass(frozen=True)
class TransportEnumeration:
    """Exact pushforward of the equilibrium measure through the circuit."""

    circuit: OpticalCircuit
    cells: tuple
    layer_distributions: tuple  # ((layer, {(l_idx, r_idx): weight}), ...) transport side
    reference_distributions: tuple  # same layers, Born weights of the evolved state
    outcome_distribution: dict  # (left name, right name) -> weight
    record_distribution: dict  # ((rec_L, rec_R)) -> weight

    def left_marginal(self) -> dict:
        out: dict = {}
        for (l, _), w in self.outcome_distribution.items():
            out[l] = out.get(l, 0) + w
        return dict(sorted(out.items()))

    def initial_label_distribution(self) -> dict:
        psi0 = initial_state().amplitudes.reshape(2, 2)
        out: dict = {}
        for cell in self.cells:
            w = (
                _prob(psi0[cell.labels0[0]][cell.labels0[1]])
                * _interval_len(cell.init[0])
                * _interval_len(cell.init[1])
            )
            out[cell.labels0] = out.get(cell.labels0, 0) + w
        return dict(sorted(out.items()))


def _interval_len(iv):
    return iv[1] - iv[0]


def enumerate_transport(circ: OpticalCircuit) -> TransportEnumeration:
    """The cell split of `_split_cells` in exact arithmetic, with the exact
    measure of every cell and the Born weights at every layer."""
    zero = ex.ZERO
    psi_ref = initial_state()
    psi0 = psi_ref.amplitudes.reshape(2, 2)
    label_weights = {
        (l, r): _prob(psi0[l][r]) for l, r in itertools.product(range(2), range(2))
    }

    def cell_measure(cell: _Cell):
        return (
            label_weights[cell.labels0]
            * _interval_len(cell.init[0])
            * _interval_len(cell.init[1])
        )

    def label_distribution(cells):
        out: dict = {}
        for cell in cells:
            out[cell.labels] = out.get(cell.labels, zero) + cell_measure(cell)
        return {k: v for k, v in sorted(out.items())}

    def reference_distribution():
        amps = psi_ref.amplitudes.reshape(2, 2)
        return {(l, r): _prob(amps[l, r]) for l, r in itertools.product(range(2), range(2))}

    steps = _split_cells(circ, psi0, _prob, _exact_beam_splitter, zero, ex.ONE)
    cells = next(steps)
    layer_dists = [(0, label_distribution(cells))]
    ref_dists = [(0, reference_distribution())]
    for el, cells in zip(circ.elements, steps):
        if el.kind == "beam_splitter":
            psi_ref = hilbert.evolve(psi_ref, _joint_unitary(_exact_beam_splitter(el), el.arm))
        layer_dists.append((el.layer, label_distribution(cells)))
        ref_dists.append((el.layer, reference_distribution()))

    outcome_dist: dict = {}
    record_dist: dict = {}
    for cell in cells:
        w = cell_measure(cell)
        key = (cell.outcome["L"], cell.outcome["R"])
        outcome_dist[key] = outcome_dist.get(key, zero) + w
        record_dist[cell.recs] = record_dist.get(cell.recs, zero) + w

    return TransportEnumeration(
        circuit=circ,
        cells=tuple(cells),
        layer_distributions=tuple(layer_dists),
        reference_distributions=tuple(ref_dists),
        outcome_distribution=dict(sorted(outcome_dist.items())),
        record_distribution=record_dist,
    )


def _rect_intersection_area(ra, rb):
    area = None
    for (alo, ahi), (blo, bhi) in zip(ra, rb):
        lo = blo if alo < blo else alo
        hi = bhi if bhi < ahi else ahi
        if not lo < hi:
            return None
        side = hi - lo
        area = side if area is None else area * side
    return area


def record_overlap_distance(
    enum_a: TransportEnumeration,
    enum_b: TransportEnumeration,
    arms: Sequence[str] = ("L", "R"),
):
    """Exact total variation distance between the two (hidden value, record) laws.

    Both enumerations push the same equilibrium prior through deterministic
    maps, so the distance equals the prior measure of initial configurations
    whose records differ; computed by intersecting the two cell partitions.
    """
    armsel = tuple("LR".index(a) for a in arms)
    psi0 = initial_state().amplitudes.reshape(2, 2)
    agree = ex.ZERO
    for ca in enum_a.cells:
        for cb in enum_b.cells:
            if ca.labels0 != cb.labels0:
                continue
            if tuple(ca.recs[i] for i in armsel) != tuple(cb.recs[i] for i in armsel):
                continue
            inter = _rect_intersection_area(ca.init, cb.init)
            if inter is None:
                continue
            agree = agree + _prob(psi0[ca.labels0[0]][ca.labels0[1]]) * inter
    return 1 - agree
