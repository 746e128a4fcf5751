"""Finite-dimensional quantum state calculus over labelled bases.

The model implemented here is deliberately minimal and operational:

* states are unit vectors over an ordered, labelled basis;
* measurable quantities are Hermitian matrices whose (possibly degenerate)
  eigenvalues label the outcomes;
* between measurements, states change by unitary maps;
* a measurement yields outcome k with probability ||P_k psi||^2 and leaves
  the state P_k psi / ||P_k psi|| (projection onto the whole eigenspace, so
  degenerate outcomes collapse correctly);
* composite systems are tensor products, with partial trace and purity for
  the reduced bookkeeping.

Branching is offered as an alternative to collapse: `branch` keeps every
nonzero-probability outcome as a weighted relative state instead of sampling
one.  Both descriptions produce identical statistics, which the test suite
checks head on.

States built with exact scalars (`exact.Cyclotomic` in an object array) are
accepted by the linear operations (`tensor`, `evolve`) and by exact
branching (`branch_joint_distribution`); spectral operations (observables,
collapse, density matrices) require float states.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "NORM_TOL",
    "HERMITICITY_TOL",
    "EIGENVALUE_MERGE_RTOL",
    "PROBABILITY_FLOOR",
    "DENSITY_EIGENVALUE_FLOOR",
    "ImpossibleOutcomeError",
    "HilbertSpace",
    "StateVector",
    "UnitaryMap",
    "Observable",
    "DensityMatrix",
    "Branch",
    "BranchSet",
    "basis_state",
    "superposition",
    "tensor",
    "evolve",
    "born_distribution",
    "collapse",
    "measure",
    "measure_many",
    "branch",
    "branch_joint_distribution",
    "path_observable",
    "cnot_unitary",
    "partial_trace",
    "purity",
]

NORM_TOL = 1e-12
HERMITICITY_TOL = 1e-12
EIGENVALUE_MERGE_RTOL = 1e-9
PROBABILITY_FLOOR = 1e-14
DENSITY_EIGENVALUE_FLOOR = -1e-10


class ImpossibleOutcomeError(ValueError):
    """Raised when conditioning on an outcome of (numerically) zero probability."""


def _norm_sq(amplitudes: np.ndarray):
    """Squared norm: a float, or the exact sum for an object array."""
    if amplitudes.dtype == np.dtype(object):
        acc = None
        for a in amplitudes.flat:
            term = a.conjugate() * a
            acc = term if acc is None else acc + term
        return acc
    return float(np.vdot(amplitudes, amplitudes).real)


class HilbertSpace:
    """Finite-dimensional space with an ordered, labelled basis.

    Composite spaces remember their tensor factors so reduced states can be
    formed later; a composite basis label is a tuple with one entry per
    factor, ordered the same way `np.kron` orders amplitudes.
    """

    __slots__ = ("_factors",)

    def __init__(self, labels: Sequence[str]):
        self._factors = (tuple(str(l) for l in labels),)
        self._validate()

    @classmethod
    def _from_factors(cls, factors: tuple[tuple[str, ...], ...]) -> "HilbertSpace":
        obj = cls.__new__(cls)
        obj._factors = factors
        obj._validate()
        return obj

    def _validate(self) -> None:
        if not self._factors:
            raise ValueError("a space needs at least one factor")
        for labels in self._factors:
            if len(labels) == 0:
                raise ValueError("a factor needs at least one basis label")
            if len(set(labels)) != len(labels):
                raise ValueError(f"duplicate basis labels in factor {labels!r}")

    @property
    def factors(self) -> tuple[tuple[str, ...], ...]:
        return self._factors

    @property
    def factor_dims(self) -> tuple[int, ...]:
        return tuple(len(f) for f in self._factors)

    @property
    def dim(self) -> int:
        d = 1
        for n in self.factor_dims:
            d *= n
        return d

    @property
    def labels(self) -> tuple:
        if len(self._factors) == 1:
            return self._factors[0]
        return tuple(itertools.product(*self._factors))

    def index(self, label) -> int:
        if len(self._factors) > 1 and isinstance(label, (list, tuple)):
            label = tuple(str(x) for x in label)
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"{label!r} is not a basis label of {self!r}") from None

    def tensor(self, other: "HilbertSpace") -> "HilbertSpace":
        return HilbertSpace._from_factors(self._factors + other._factors)

    def subspace(self, keep: Sequence[int]) -> "HilbertSpace":
        keep = _checked_factor_subset(keep, len(self._factors))
        return HilbertSpace._from_factors(tuple(self._factors[i] for i in keep))

    def __eq__(self, other) -> bool:
        return isinstance(other, HilbertSpace) and self._factors == other._factors

    def __hash__(self) -> int:
        return hash(self._factors)

    def __repr__(self) -> str:
        inner = " x ".join("{" + ",".join(f) + "}" for f in self._factors)
        return f"HilbertSpace({inner})"


def _checked_factor_subset(keep: Sequence[int], nfactors: int) -> tuple[int, ...]:
    keep = tuple(int(k) for k in keep)
    if len(keep) == 0:
        raise ValueError("factor subset must be nonempty")
    if len(set(keep)) != len(keep):
        raise ValueError(f"factor subset has duplicates: {keep}")
    if any(k < 0 or k >= nfactors for k in keep):
        raise ValueError(f"factor subset {keep} out of range for {nfactors} factors")
    return tuple(sorted(keep))


class StateVector:
    """Unit vector over a labelled basis; amplitudes in declared basis order."""

    __slots__ = ("space", "amplitudes")

    def __init__(self, space: HilbertSpace, amplitudes):
        amps = np.asarray(amplitudes)
        if amps.dtype != np.dtype(object):
            amps = np.asarray(amplitudes, dtype=np.complex128)
        if amps.shape != (space.dim,):
            raise ValueError(f"expected {space.dim} amplitudes, got shape {amps.shape}")
        nrm = np.sqrt(float(_norm_sq(amps)))
        if abs(nrm - 1.0) > NORM_TOL:
            raise ValueError(f"state is not normalized: |psi| = {nrm!r}")
        amps = amps.copy()
        amps.setflags(write=False)
        self.space = space
        self.amplitudes = amps

    @property
    def is_exact(self) -> bool:
        return self.amplitudes.dtype == np.dtype(object)

    def amplitude(self, label):
        return self.amplitudes[self.space.index(label)]

    def to_float(self) -> "StateVector":
        if not self.is_exact:
            return self
        return StateVector(self.space, np.array([complex(a) for a in self.amplitudes]))

    def __repr__(self) -> str:
        return f"StateVector(dim={self.space.dim})"


def basis_state(space: HilbertSpace, label) -> StateVector:
    amps = np.zeros(space.dim, dtype=np.complex128)
    amps[space.index(label)] = 1.0
    return StateVector(space, amps)


def superposition(space: HilbertSpace, weights: Mapping) -> StateVector:
    """State proportional to sum of amplitude * basis vector, normalized."""
    amps = np.zeros(space.dim, dtype=np.complex128)
    for label, a in weights.items():
        amps[space.index(label)] = a
    nrm = np.linalg.norm(amps)
    if nrm < PROBABILITY_FLOOR:
        raise ValueError("cannot normalize the zero vector")
    return StateVector(space, amps / nrm)


class UnitaryMap:
    """Square matrix with U^dagger U = 1 within 1e-12.

    `provenance` records whether the map came in as a gate matrix or was
    generated from a Hermitian matrix as exp(-iHt).
    """

    __slots__ = ("matrix", "provenance")

    def __init__(self, matrix, provenance: str = "gate"):
        m = np.asarray(matrix)
        if m.dtype != np.dtype(object):
            m = np.asarray(matrix, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"unitary must be square, got shape {m.shape}")
        self._check_unitary(m)
        m = m.copy()
        m.setflags(write=False)
        self.matrix = m
        self.provenance = provenance

    @staticmethod
    def _check_unitary(m: np.ndarray) -> None:
        d = m.shape[0]
        if m.dtype == np.dtype(object):
            gram = np.empty((d, d), dtype=object)
            for i in range(d):
                for j in range(d):
                    acc = None
                    for k in range(d):
                        term = m[k, i].conjugate() * m[k, j]
                        acc = term if acc is None else acc + term
                    gram[i, j] = acc
            dev = max(
                abs(complex(gram[i, j]) - (1.0 if i == j else 0.0))
                for i in range(d)
                for j in range(d)
            )
        else:
            dev = float(np.max(np.abs(m.conj().T @ m - np.eye(d))))
        if dev > 1e-12:
            raise ValueError(f"matrix is not unitary: max |U^H U - 1| = {dev:.3e}")

    @classmethod
    def from_hamiltonian(cls, hamiltonian, time: float) -> "UnitaryMap":
        """exp(-i H t) through the eigendecomposition of H."""
        h = np.asarray(hamiltonian, dtype=np.complex128)
        dev = float(np.max(np.abs(h - h.conj().T)))
        if dev > HERMITICITY_TOL:
            raise ValueError(f"generator is not Hermitian: max |H - H^H| = {dev:.3e}")
        w, v = np.linalg.eigh(h)
        u = (v * np.exp(-1j * w * time)) @ v.conj().T
        return cls(u, provenance="hamiltonian")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def cnot_unitary() -> UnitaryMap:
    """Entangler on a 2x2 composite: flips the second label when the first is the lower path."""
    m = np.array(
        [
            [1, 0, 0, 0],
            [0, 1, 0, 0],
            [0, 0, 0, 1],
            [0, 0, 1, 0],
        ],
        dtype=np.complex128,
    )
    return UnitaryMap(m)


class Observable:
    """Hermitian matrix with a merged eigendecomposition.

    Eigenvalues closer than 1e-9 relative to the spectral scale are treated
    as one outcome sharing a joint eigenprojector, so collapse on a
    degenerate outcome projects onto the whole eigenspace.  Outcomes are
    reported by `outcome_labels` when given (aligned with ascending
    eigenvalue groups), otherwise by the eigenvalue itself.
    """

    __slots__ = ("matrix", "eigenvalues", "projectors", "outcomes", "_blocks")

    def __init__(self, matrix, outcome_labels: Sequence | None = None):
        m = np.asarray(matrix, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"observable must be square, got shape {m.shape}")
        dev = float(np.max(np.abs(m - m.conj().T)))
        if dev > HERMITICITY_TOL:
            raise ValueError(f"observable is not Hermitian: max |A - A^H| = {dev:.3e}")

        w, v = np.linalg.eigh(m)
        scale = max(1.0, float(np.max(np.abs(w))) if len(w) else 1.0)
        groups: list[list[int]] = [[0]]
        for i in range(1, len(w)):
            if w[i] - w[groups[-1][0]] <= EIGENVALUE_MERGE_RTOL * scale:
                groups[-1].append(i)
            else:
                groups.append([i])

        eigenvalues = []
        projectors = []
        blocks = []
        for g in groups:
            eigenvalues.append(float(np.mean(w[g])))
            block = v[:, g]
            p = block @ block.conj().T
            p.setflags(write=False)
            projectors.append(p)
            blocks.append(block)

        if outcome_labels is not None:
            if len(outcome_labels) != len(groups):
                raise ValueError(
                    f"{len(outcome_labels)} outcome labels for {len(groups)} eigenspaces"
                )
            outcomes = tuple(outcome_labels)
        else:
            outcomes = tuple(eigenvalues)

        m = m.copy()
        m.setflags(write=False)
        self.matrix = m
        self.eigenvalues = tuple(eigenvalues)
        self.projectors = tuple(projectors)
        self.outcomes = outcomes
        self._blocks = tuple(blocks)
        self._check_projectors()

    def _check_projectors(self) -> None:
        d = self.matrix.shape[0]
        total = np.zeros((d, d), dtype=np.complex128)
        for i, p in enumerate(self.projectors):
            if not float(np.max(np.abs(p @ p - p))) < 1e-11:
                raise RuntimeError("projector not idempotent")
            for q in self.projectors[i + 1 :]:
                if not float(np.max(np.abs(p @ q))) < 1e-11:
                    raise RuntimeError("projectors not orthogonal")
            total += p
        if not float(np.max(np.abs(total - np.eye(d)))) < 1e-11:
            raise RuntimeError("projectors do not resolve 1")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def outcome_index(self, outcome) -> int:
        try:
            return self.outcomes.index(outcome)
        except ValueError:
            raise KeyError(f"{outcome!r} is not an outcome of this observable") from None


def path_observable(space: HilbertSpace) -> Observable:
    """Diagonal observable whose outcomes are the basis labels themselves."""
    d = space.dim
    m = np.diag(np.arange(d, dtype=np.float64))
    return Observable(m, outcome_labels=list(space.labels))


def tensor(a, b):
    """Tensor product of two spaces or two states (kron ordering)."""
    if isinstance(a, HilbertSpace) and isinstance(b, HilbertSpace):
        return a.tensor(b)
    if isinstance(a, StateVector) and isinstance(b, StateVector):
        return StateVector(a.space.tensor(b.space), np.kron(a.amplitudes, b.amplitudes))
    raise TypeError(f"cannot tensor {type(a).__name__} with {type(b).__name__}")


def evolve(obj, u: UnitaryMap):
    """Apply a unitary map to a state vector or a density matrix."""
    if isinstance(obj, StateVector):
        if u.dim != obj.space.dim:
            raise ValueError(f"dimension mismatch: state {obj.space.dim}, unitary {u.dim}")
        return StateVector(obj.space, u.matrix @ obj.amplitudes)
    if isinstance(obj, DensityMatrix):
        if u.dim != obj.space.dim:
            raise ValueError(f"dimension mismatch: state {obj.space.dim}, unitary {u.dim}")
        return DensityMatrix(obj.space, u.matrix @ obj.matrix @ u.matrix.conj().T)
    raise TypeError(f"cannot evolve {type(obj).__name__}")


def _outcome_probabilities(state: StateVector, obs: Observable) -> np.ndarray:
    if state.is_exact:
        raise TypeError("spectral operations need a float state; use .to_float()")
    if obs.dim != state.space.dim:
        raise ValueError(f"dimension mismatch: state {state.space.dim}, observable {obs.dim}")
    probs = np.array(
        [float(np.sum(np.abs(block.conj().T @ state.amplitudes) ** 2)) for block in obs._blocks]
    )
    if not abs(float(probs.sum()) - 1.0) < 1e-12:
        raise RuntimeError(f"Born probabilities sum to {float(probs.sum())!r}, not 1")
    return probs


def born_distribution(state: StateVector, obs: Observable) -> dict:
    """Probability table over the observable's outcomes, in outcome order."""
    probs = _outcome_probabilities(state, obs)
    return {outcome: float(p) for outcome, p in zip(obs.outcomes, probs)}


def collapse(state: StateVector, obs: Observable, outcome) -> StateVector:
    """Post-measurement state for the given outcome (whole-eigenspace projection)."""
    k = obs.outcome_index(outcome)
    probs = _outcome_probabilities(state, obs)
    p = float(probs[k])
    if p <= PROBABILITY_FLOOR:
        raise ImpossibleOutcomeError(
            f"outcome {outcome!r} has Born probability {p:.3e} <= {PROBABILITY_FLOOR}"
        )
    amps = obs.projectors[k] @ state.amplitudes
    return StateVector(state.space, amps / np.sqrt(p))


def measure(state: StateVector, obs: Observable, rng: np.random.Generator):
    """Sample one outcome with Born weights and return (outcome, post state)."""
    probs = _outcome_probabilities(state, obs)
    u = float(rng.random())
    acc = 0.0
    k = len(probs) - 1
    for i, p in enumerate(probs):
        acc += float(p)
        if u < acc:
            k = i
            break
    outcome = obs.outcomes[k]
    return outcome, collapse(state, obs, outcome)


# measure_many's `collapse` flag hides the function of that name inside it
_post_state = collapse


def _unique(a) -> np.ndarray:
    """The sorted distinct values of `a`, flattened, as `np.unique(a)` gives
    them for NaN-free input; np.unique would load numpy.ma on its first call."""
    a = np.sort(a, axis=None)
    keep = np.ones(a.size, dtype=bool)
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


def measure_many(
    state: StateVector, obs: Observable, rng: np.random.Generator, n: int, collapse: bool = True
) -> np.ndarray:
    """n runs of two immediate successive measurements, batched.

    Returns the outcome indices into `obs.outcomes`, shape (n, 2).  With
    `collapse` the second measurement acts on the first one's post state,
    without it on `state` again.  The result equals calling `measure` 2n
    times in run order: the uniforms come from one `rng.random` call in the
    same order, each pick is the first index whose sequential cumulative
    Born weight exceeds its uniform (the last index if none), and every
    picked outcome is collapsed on once per distinct state, so the Born-sum
    check and the impossible-outcome floor fire as they would there.
    """
    u = rng.random(2 * n).reshape(n, 2)
    picks = np.empty((n, 2), dtype=np.intp)
    states = [state]
    current = np.zeros(n, dtype=np.intp)  # index into states, per run
    for r in range(2):
        nxt = current.copy()
        for sid in _unique(current):
            rows = np.flatnonzero(current == sid)
            # np.cumsum adds in order, like the running sum in `measure`
            cum = np.cumsum(_outcome_probabilities(states[sid], obs))
            k = np.minimum(np.searchsorted(cum, u[rows, r], side="right"), len(cum) - 1)
            picks[rows, r] = k
            for o in _unique(k):
                post = _post_state(states[sid], obs, obs.outcomes[o])
                if collapse:
                    states.append(post)
                    nxt[rows[k == o]] = len(states) - 1
        current = nxt
    return picks


@dataclass(frozen=True)
class Branch:
    weight: float
    outcome: object
    state: StateVector


class BranchSet:
    """All nonzero-probability measurement outcomes kept as weighted branches."""

    __slots__ = ("branches",)

    def __init__(self, branches: Sequence[Branch]):
        total = sum(b.weight for b in branches)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"branch weights sum to {total!r}, not 1")
        self.branches = tuple(branches)

    def weights(self) -> dict:
        return {b.outcome: b.weight for b in self.branches}

    def __iter__(self):
        return iter(self.branches)

    def __len__(self) -> int:
        return len(self.branches)


def branch(state: StateVector, obs: Observable) -> BranchSet:
    """Branch the state on an observable instead of collapsing it.

    One branch per outcome with Born probability above the zero floor; the
    branch states are the same states collapse would produce.
    """
    probs = _outcome_probabilities(state, obs)
    branches = []
    for outcome, p in zip(obs.outcomes, probs):
        if p <= PROBABILITY_FLOOR:
            continue
        branches.append(Branch(float(p), outcome, collapse(state, obs, outcome)))
    return BranchSet(branches)


def branch_joint_distribution(state: StateVector, observables: Iterable[Mapping]) -> dict:
    """Joint outcome weights from sequential branching, never sampling.

    Each observable maps outcomes to projectors (an `Observable`'s, or 0/1
    integer matrices for exact states).  A leaf keeps the unnormalised
    relative state P_k ... P_1 psi, weighed by its squared norm: no square
    root is taken, so exact states get exact weights.  Returns the nonzero
    leaf weights keyed by outcome tuples.
    """
    frontier = [((), state.amplitudes)]
    for projectors in observables:
        frontier = [
            (outs + (outcome,), p @ amps)
            for outs, amps in frontier
            for outcome, p in projectors.items()
        ]
    weights = ((outs, _norm_sq(amps)) for outs, amps in frontier)
    return {outs: w for outs, w in weights if w != 0}


class DensityMatrix:
    """Hermitian, unit-trace, positive (within tolerance) matrix over a labelled basis."""

    __slots__ = ("space", "matrix")

    def __init__(self, space: HilbertSpace, matrix):
        m = np.asarray(matrix, dtype=np.complex128)
        if m.shape != (space.dim, space.dim):
            raise ValueError(f"expected shape {(space.dim, space.dim)}, got {m.shape}")
        dev = float(np.max(np.abs(m - m.conj().T)))
        if dev > HERMITICITY_TOL:
            raise ValueError(f"density matrix is not Hermitian: {dev:.3e}")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > 1e-12:
            raise ValueError(f"density matrix has trace {tr!r}, not 1")
        wmin = float(np.min(np.linalg.eigvalsh(m)))
        if wmin < DENSITY_EIGENVALUE_FLOOR:
            raise ValueError(f"density matrix has eigenvalue {wmin:.3e} below the floor")
        m = m.copy()
        m.setflags(write=False)
        self.space = space
        self.matrix = m

    @classmethod
    def from_state(cls, state: StateVector) -> "DensityMatrix":
        st = state.to_float()
        return cls(st.space, np.outer(st.amplitudes, st.amplitudes.conj()))

    def __repr__(self) -> str:
        return f"DensityMatrix(dim={self.space.dim})"


def partial_trace(rho: DensityMatrix, keep: Sequence[int]) -> DensityMatrix:
    """Reduced density matrix on the kept tensor factors (ascending order)."""
    dims = rho.space.factor_dims
    keep = _checked_factor_subset(keep, len(dims))
    t = rho.matrix.reshape(dims + dims)
    n = len(dims)
    traced = [i for i in range(n) if i not in keep]
    # trace out highest axes first so earlier axis numbers stay valid
    for i in sorted(traced, reverse=True):
        t = np.trace(t, axis1=i, axis2=i + (t.ndim // 2))
    d = 1
    for i in keep:
        d *= dims[i]
    return DensityMatrix(rho.space.subspace(keep), t.reshape(d, d))


def purity(rho: DensityMatrix) -> float:
    """tr(rho^2); 1 for pure states, 1/dim for the maximally mixed state."""
    return float(np.trace(rho.matrix @ rho.matrix).real)
