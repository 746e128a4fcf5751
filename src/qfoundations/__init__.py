"""Test bench for comparing quantum-mechanical interpretations on shared scenarios.

Five layers: ``hilbert`` (finite-dimensional states, observables, collapse,
branching, density matrices), ``pilotwave`` (grid Schroedinger evolution with
guided trajectories), ``circuit`` (a discrete delayed-choice eraser with a
deterministic hidden-variable transport rule), ``inference`` (statistical
verdicts: locality, measurement independence, no-signaling, CHSH,
repeatability), and ``cli`` (seeded scenario runner).  ``exact`` holds the
exact scalars (cyclotomic field elements) of the analytic computations.
"""

from . import circuit, exact, hilbert, inference, pilotwave, schemas, svgplot
from .streams import stream

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "circuit",
    "exact",
    "hilbert",
    "inference",
    "pilotwave",
    "schemas",
    "stream",
    "svgplot",
]
