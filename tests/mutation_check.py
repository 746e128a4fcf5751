"""Mutation check of the verdict rules: the tier-1 tests must kill each mutant.

    PYTHONPATH=src python tests/mutation_check.py [name ...]

Each mutant replaces one piece of text, which must occur exactly once, in
one source file: a rule in `inference.py`, `pilotwave.check_equivariance`,
`circuit._cell_table` or `cli._run_grid_scenario`.  For each mutant the script copies `src/`,
`tests/`, `docs/` and `pyproject.toml` to a temporary directory, applies the
mutant there, runs `python -m pytest -x -q tests` against the copy and
prints `killed`, with the first failing test, or `survived`.  The unmutated
copy runs first and must pass.  It exits 1 if a mutant outside `EQUIVALENT`
survives or its text is not found exactly once.  Names on the command line
run only those mutants.  It uses the standard library alone.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COPIED = ("src", "tests", "docs", "pyproject.toml")
TIMEOUT_S = 900

_INF = "src/qfoundations/inference.py"
_PW = "src/qfoundations/pilotwave.py"
_CIRC = "src/qfoundations/circuit.py"
_CLI = "src/qfoundations/cli.py"

# name -> (file, old text, new text)
MUTANTS = {
    "interval_violated_all": (
        _INF,
        "    if any(lo > 0.0 or hi < 0.0 for lo, hi in intervals):",
        "    if all(lo > 0.0 or hi < 0.0 for lo, hi in intervals):",
    ),
    "interval_violated_and": (
        _INF,
        "    if any(lo > 0.0 or hi < 0.0 for lo, hi in intervals):",
        "    if any(lo > 0.0 and hi < 0.0 for lo, hi in intervals):",
    ),
    "interval_satisfied_any": (
        _INF,
        "    if all(max(abs(lo), abs(hi)) < EQUIVALENCE_MARGIN for lo, hi in intervals):",
        "    if any(max(abs(lo), abs(hi)) < EQUIVALENCE_MARGIN for lo, hi in intervals):",
    ),
    "interval_width_min": (
        _INF,
        "    if all(max(abs(lo), abs(hi)) < EQUIVALENCE_MARGIN for lo, hi in intervals):",
        "    if all(min(abs(lo), abs(hi)) < EQUIVALENCE_MARGIN for lo, hi in intervals):",
    ),
    "interval_margin_doubled": (
        _INF,
        "    if all(max(abs(lo), abs(hi)) < EQUIVALENCE_MARGIN for lo, hi in intervals):",
        "    if all(max(abs(lo), abs(hi)) < 2 * EQUIVALENCE_MARGIN for lo, hi in intervals):",
    ),
    "exact_report_inverted": (
        _INF,
        "        verdict=VIOLATED if statistic != 0 else SATISFIED,",
        "        verdict=VIOLATED if statistic == 0 else SATISFIED,",
    ),
    "wilson_zero_fix_dropped": (
        _INF,
        "    lo = 0.0 if k == 0 else max(0.0, center - half)",
        "    lo = max(0.0, center - half)",
    ),
    "wilson_full_fix_dropped": (
        _INF,
        "    return lo, 1.0 if k == n else min(1.0, center + half)",
        "    return lo, min(1.0, center + half)",
    ),
    "local_causality_interval_to_point": (
        _INF,
        "        verdict=_interval_verdict([ci]),",
        "        verdict=_interval_verdict([(diff, diff)]),",
    ),
    "independence_interval_halved": (
        _INF,
        "_interval_verdict([(stat - allowance, stat + allowance)])",
        "_interval_verdict([(stat - allowance / 2, stat + allowance / 2)])",
    ),
    "no_signaling_interval_halved": (
        _INF,
        "            intervals.append(_newcombe_diff_ci(ki, ni, kj, nj))",
        "            intervals.append(_newcombe_diff_ci(ki, ni, kj, nj, Z99 / 2))",
    ),
    "repeatability_interval_halved": (
        _INF,
        "    lo, hi = wilson_interval(differ, n)",
        "    lo, hi = wilson_interval(differ, n, Z99 / 2)",
    ),
    "setting_dependence_interval_halved": (
        _INF,
        "    lo, hi = wilson_interval(k, n)",
        "    lo, hi = wilson_interval(k, n, Z99 / 2)",
    ),
    "independence_allowance_tenth": (
        _INF,
        "    allowance = 0.5 * Z99 *",
        "    allowance = 0.05 * Z99 *",
    ),
    "branch_collapse_or": (
        _INF,
        "    ok = max_weight_dev <= 1e-12 and max_z <= z_threshold",
        "    ok = max_weight_dev <= 1e-12 or max_z <= z_threshold",
    ),
    "correlation_threshold_tenfold": (
        _INF,
        "        verdict=SATISFIED if max_z <= 3.0 else VIOLATED,",
        "        verdict=SATISFIED if max_z <= 30 else VIOLATED,",
    ),
    "correlation_impossible_cell_ignored": (
        _INF,
        "            if abs(f - p) > 0.0:\n                max_z = math.inf",
        "            if abs(f - p) > 0.5:\n                max_z = math.inf",
    ),
    "chsh_local_bound_strict": (
        _INF,
        "        verdict=SATISFIED if ev.local_max <= 2 else VIOLATED,",
        "        verdict=SATISFIED if ev.local_max < 2 else VIOLATED,",
    ),
    "equivariance_absorbed_half": (
        _PW,
        "    if n_absorbed > 0.01 * n_total:",
        "    if n_absorbed > 0.5 * n_total:",
    ),
    "equivariance_ks_constant_tenfold": (
        _PW,
        "        threshold = 1.63 / math.sqrt(n)",
        "        threshold = 16.3 / math.sqrt(n)",
    ),
    "equivariance_pass_below_twice_threshold": (
        _PW,
        '        verdict = "pass" if stat < threshold else "fail"',
        '        verdict = "pass" if stat < 2 * threshold else "fail"',
    ),
    "grid_crossing_ignored": (
        _CLI,
        '        "verdict": "invalid" if swaps else report.verdict,',
        '        "verdict": report.verdict,',
    ),
    "grid_crossing_above_one": (
        _CLI,
        '        "verdict": "invalid" if swaps else report.verdict,',
        '        "verdict": "invalid" if swaps and swaps > 1 else report.verdict,',
    ),
    "cell_table_right_edges": (
        _CIRC,
        "        (l0, h0), (l1, h1) = (np.searchsorted(e, rect[a]) for a, e in enumerate(edges))",
        "        (l0, h0), (l1, h1) = (np.searchsorted(e, rect[a], side=\"right\") for a, e in enumerate(edges))",
    ),
    "cell_table_no_empty_boxes": (
        _CIRC,
        "    grid = np.full((2, 2, edges[0].size - 1, edges[1].size - 1), -1, dtype=np.intp)",
        "    grid = np.full((2, 2, edges[0].size - 1, edges[1].size - 1), 0, dtype=np.intp)",
    ),
}

# mutants that no test can kill, because they do not change the program's
# behaviour on any input it accepts: name -> reason
EQUIVALENT: dict = {}


def _copy(dest: str) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", "*.pyc")
    for name in COPIED:
        src = os.path.join(ROOT, name)
        if os.path.isdir(src):
            shutil.copytree(src, os.path.join(dest, name), ignore=ignore)
        else:
            shutil.copy2(src, os.path.join(dest, name))


def run_tests(mutant: str | None) -> tuple[str, str]:
    """Tier-1 on a temporary copy with `mutant` applied (None: unmutated):
    ('killed', first failing test), ('survived', '') or ('not applied',
    '') when the mutant's text is not found exactly once."""
    with tempfile.TemporaryDirectory() as tmp:
        _copy(tmp)
        if mutant is not None:
            path, old, new = MUTANTS[mutant]
            target = os.path.join(tmp, path)
            with open(target) as fh:
                text = fh.read()
            if text.count(old) != 1:
                return "not applied", ""
            with open(target, "w") as fh:
                fh.write(text.replace(old, new))
        env = {**os.environ, "PYTHONPATH": os.path.join(tmp, "src")}
        try:
            done = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "tests"],
                cwd=tmp, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return "killed", f"timeout after {TIMEOUT_S} s"
    if done.returncode == 0:
        return "survived", ""
    lines = done.stdout.splitlines()
    failed = [line for line in lines if line.startswith(("FAILED", "ERROR"))]
    return "killed", (failed[:1] or lines[-1:] or [f"exit code {done.returncode}"])[0]


def main(argv: list[str]) -> int:
    names = argv or list(MUTANTS)
    unknown = [n for n in names if n not in MUTANTS]
    if unknown:
        print(f"unknown mutants: {unknown}", file=sys.stderr)
        return 2
    # a copy that fails unmutated would report every mutant killed
    outcome, why = run_tests(None)
    if outcome != "survived":
        print(f"the unmutated copy fails its tests: {why}", file=sys.stderr)
        return 2
    bad = []
    for name in names:
        t0 = time.perf_counter()
        outcome, why = run_tests(name)
        note = f"by {why}" if why else f"equivalent: {EQUIVALENT[name]}" if name in EQUIVALENT else ""
        print(f"{outcome:11s} {name}  {time.perf_counter() - t0:.0f} s  {note}", flush=True)
        if outcome == "not applied" or (outcome == "survived" and name not in EQUIVALENT):
            bad.append(name)
    print(f"{len(names) - len(bad)} of {len(names)} mutants as expected; unexpected: {bad or 'none'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
