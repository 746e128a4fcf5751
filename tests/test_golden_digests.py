"""Golden digests: every artifact byte of every scenario at small configs.

Criterion 11 only proves that one build agrees with itself; these pins make
a refactor that changes any emitted byte fail loudly.  `manifest.json` is
left out because it records the output directory.  Every pin runs with
sympy made unimportable: sympy is a test-only oracle, never a runtime need.

The digests hold for the numpy version recorded in `generated_with`; FFT
and SIMD rounding may move the last bits of a correct build on another
version, so the tests skip there instead of reporting a regression.

Regenerate (only when an output change is intended, and say why):

    PYTHONPATH=src python tests/test_golden_digests.py --write
"""

import hashlib
import json
import os
import sys

import numpy as np
import pytest

from qfoundations.cli import main

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_digests.json")

# pin name -> (scenario, arguments)
PINS = {
    "free_packet": ("free_packet", ["--trials", "200", "--steps", "200", "--format", "json,csv,svg"]),
    "harmonic": ("harmonic", ["--trials", "200", "--steps", "300"]),
    "double_slit": ("double_slit", ["--trials", "100", "--steps", "300"]),
    "eraser": ("eraser", ["--format", "json,csv,svg"]),
    "eraser_montecarlo": (
        "eraser", ["--mode", "montecarlo", "--trials", "20000", "--format", "json,csv,svg"]
    ),
    "eraser_montecarlo_one_run": (
        "eraser", ["--mode", "montecarlo", "--trials", "1", "--format", "json,csv,svg"]
    ),
    # one row past a power-of-two chunk, across the sampler's 10 000-run chunks
    "eraser_montecarlo_chunk_tail": ("eraser", ["--mode", "montecarlo", "--trials", "32769"]),
    "eraser_montecarlo_whichpath_right_first": (
        "eraser",
        [
            "--mode", "montecarlo", "--trials", "20000", "--format", "json,csv,svg",
            "--right", "whichpath", "--right-acts-first",
        ],
    ),
    "repeatability": ("repeatability", []),
    "repeatability_analytic": ("repeatability", ["--mode", "analytic"]),
    "bell_chsh": ("bell_chsh", []),
    "bell_chsh_montecarlo": ("bell_chsh", ["--mode", "montecarlo", "--trials", "20000"]),
    # a six-step grid wins at a pi/12 multiple, whose exact S has the cos form
    "bell_chsh_grid_6": ("bell_chsh", ["--grid-step-count", "6"]),
    # theta = pi/8: the exact eraser table holds irrational probabilities
    "eraser_theta_pi_over_8": ("eraser", ["--theta", "0.39269908169872414", "--format", "json,csv,svg"]),
    "claims_suite": ("claims_suite", ["--trials", "20000"]),
}


def _digests(pin, outdir):
    scenario, args = PINS[pin]
    code = main(["run", scenario, "--out", str(outdir), *args])
    if code != 0:
        raise RuntimeError(f"{pin} exited with {code}")
    found = {}
    for root, _, names in os.walk(outdir):
        for name in names:
            path = os.path.join(root, name)
            rel = os.path.relpath(path, outdir).replace(os.sep, "/")
            if rel == "manifest.json":
                continue
            with open(path, "rb") as fh:
                found[rel] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(found.items()))


def _golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def _check(pin, tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(sys.modules, "sympy", None)
    golden = _golden()
    pinned_numpy = golden["generated_with"]["numpy"]
    if np.__version__ != pinned_numpy:
        pytest.skip(f"digests pinned with numpy {pinned_numpy}, running {np.__version__}")
    pinned = golden["scenarios"][pin]
    assert pinned["args"] == PINS[pin][1]
    found = _digests(pin, tmp_path / pin)
    capsys.readouterr()
    assert sorted(found) == sorted(pinned["digests"])
    changed = [name for name, sha in found.items() if pinned["digests"][name] != sha]
    assert not changed, f"{pin}: artifacts differ from the golden digests: {changed}"


_GRID = ("double_slit", "free_packet", "harmonic")


@pytest.mark.parametrize("scenario", _GRID)
def test_grid_scenario_bytes_match_golden(scenario, tmp_path, capsys, monkeypatch):
    _check(scenario, tmp_path, capsys, monkeypatch)


@pytest.mark.parametrize("pin", sorted(set(PINS) - set(_GRID)))
def test_scenario_bytes_match_golden(pin, tmp_path, capsys, monkeypatch):
    _check(pin, tmp_path, capsys, monkeypatch)


def _write(outroot):
    golden = {
        "generated_with": {"python": sys.version.split()[0], "numpy": np.__version__},
        "scenarios": {
            name: {"args": args, "digests": _digests(name, os.path.join(outroot, name))}
            for name, (_, args) in PINS.items()
        },
    }
    with open(GOLDEN_PATH, "w", newline="\n") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    with tempfile.TemporaryDirectory() as tmp:
        _write(tmp)
    print(f"wrote {GOLDEN_PATH}")
