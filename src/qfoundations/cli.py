"""Scenario runner: seeded execution, file emission, and the claims suite.

One JSON config (or flags; flags win) selects a scenario, seed, trial count
and output formats.  Every run writes its artifacts plus a manifest listing
each file with a sha256 digest; identical (config, seed) reruns are
byte-identical regardless of worker count, because all randomness flows
through counter-based streams keyed (seed, purpose index) and Monte-Carlo
work is split into fixed-size chunks whose streams do not depend on how
many threads consume them.

Exit codes: 0 success, 1 usage or config error, 2 runtime failure, 3 claims
suite verdict mismatch.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import hashlib
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import circuit, exact, inference, pilotwave, schemas, svgplot
from .streams import stream

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2
EXIT_CLAIMS = 3

# stream-index blocks per purpose, so no two consumers share a (seed, index)
_IDX_SCENARIO = 0
_IDX_ERASER_A = 100
_IDX_ERASER_B = 200
_IDX_REPEAT = 300
_IDX_CONFIGS = 400
_IDX_BRANCH = 500
_IDX_CHSH = 600
_IDX_SAMPLING = 700

# analytic --theta must be k*pi/q with q at most this
_MAX_THETA_DENOMINATOR = 64

# glibc mallopt parameter M_TOP_PAD, and the heap slack a run keeps
_M_TOP_PAD = -2
_HEAP_TOP_PAD = 16 << 20

_COMMON_DEFAULTS = {
    "seed": 7,
    "formats": ["json", "csv"],
    "workers": 1,
}

class _Parser(argparse.ArgumentParser):
    """argparse that exits with the documented usage code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    parser = _Parser(prog="qfoundations", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="verb", required=True)

    run = sub.add_parser("run", help="execute a scenario and write its artifacts")
    run.add_argument("scenario", choices=_SCENARIOS)
    run.add_argument("--config", help="JSON config file; flags override its fields")
    run.add_argument("--seed", type=int)
    run.add_argument("--trials", type=int)
    run.add_argument("--mode", choices=["analytic", "montecarlo"])
    run.add_argument("--out", help="output directory")
    run.add_argument("--format", dest="formats", help="comma list from csv,json,svg")
    run.add_argument("--workers", type=int)
    run.add_argument("--left", choices=["interference", "whichpath"])
    run.add_argument("--right", choices=["interference", "whichpath"])
    run.add_argument("--theta", type=float)
    run.add_argument("--right-acts-first", action=argparse.BooleanOptionalAction, default=None)
    run.add_argument("--qmin", type=float)
    run.add_argument("--qmax", type=float)
    run.add_argument("--npoints", type=int)
    run.add_argument("--dt", type=float)
    run.add_argument("--steps", type=int)
    run.add_argument("--save-every", dest="save_every", type=int)
    run.add_argument("--sigma", type=float)
    run.add_argument("--separation", type=float)
    run.add_argument("--omega", type=float)
    run.add_argument("--x0", type=float)
    run.add_argument("--grid-step-count", dest="grid_step_count", type=int)

    plot = sub.add_parser("plot", help="render a trajectory CSV or path-record JSON as SVG")
    plot.add_argument("input")
    plot.add_argument("--out", help="output SVG path (default: input with .svg suffix)")

    schema = sub.add_parser("schema", help="print the JSON schemas")
    schema.add_argument("name", nargs="?", choices=sorted(schemas.SCHEMAS))
    return parser


# ---------------------------------------------------------------------------
# config handling


def _fail_usage(message: str) -> "SystemExit":
    print(f"qfoundations: error: {message}", file=sys.stderr)
    return SystemExit(EXIT_USAGE)


def _load_config_file(path: str) -> dict:
    try:
        with open(path) as fh:
            loaded = json.load(fh)
    except OSError as err:
        raise _fail_usage(f"cannot read config {path}: {err}")
    except json.JSONDecodeError as err:
        raise _fail_usage(
            f"config {path} is not valid JSON (line {err.lineno}, column {err.colno}): {err.msg}"
        )
    if not isinstance(loaded, dict):
        raise _fail_usage(f"config {path} must hold a JSON object")
    return loaded


def _merge_config(args) -> dict:
    cfg = dict(_COMMON_DEFAULTS)
    cfg.update(_SCENARIOS[args.scenario][1])
    cfg["scenario"] = args.scenario
    cfg["out"] = os.path.join("out", args.scenario)

    if args.config:
        file_cfg = _load_config_file(args.config)
        if "scenario" in file_cfg and file_cfg["scenario"] != args.scenario:
            raise _fail_usage(
                f"config names scenario {file_cfg['scenario']!r} but {args.scenario!r} was requested"
            )
        cfg.update(file_cfg)

    # every run flag's dest is a config key; the positional and --config are not
    for key, value in vars(args).items():
        if key not in ("verb", "scenario", "config") and value is not None:
            cfg[key] = value
    if isinstance(cfg.get("formats"), str):
        cfg["formats"] = [f.strip() for f in cfg["formats"].split(",") if f.strip()]

    # JSON Schema cannot say "finite"; NaN passes every bound it can state
    for key, value in cfg.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise _fail_usage(f"config error at $.{key}: {value!r} is not a finite number")

    import jsonschema

    validator = jsonschema.Draft202012Validator(schemas.SCENARIO_CONFIG)
    errors = sorted(validator.iter_errors(cfg), key=lambda e: str(e.json_path))
    if errors:
        for err in errors:
            print(f"qfoundations: config error at {err.json_path}: {err.message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    return cfg


# ---------------------------------------------------------------------------
# emission helpers


def _write_json(path: str, payload) -> str:
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _write_csv(path: str, header: list[str], rows) -> str:
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")
    return path


def _write_text(path: str, text: str) -> str:
    with open(path, "w", newline="\n") as fh:
        fh.write(text)
    return path


def _write_manifest(outdir: str, cfg: dict, files: list[str]) -> str:
    entries = []
    for path in sorted(files):
        with open(path, "rb") as fh:
            blob = fh.read()
        entries.append(
            {
                "path": os.path.relpath(path, outdir),
                "sha256": hashlib.sha256(blob).hexdigest(),
                "bytes": len(blob),
            }
        )
    manifest = {
        "scenario": cfg["scenario"],
        "mode": cfg["mode"],
        "seed": cfg["seed"],
        "config": cfg,
        "files": entries,
    }
    return _write_json(os.path.join(outdir, "manifest.json"), manifest)


def _joint_distribution_payload(circ, dist, mode, n=None, counts=None) -> dict:
    entries = []
    for (left, right), p in sorted(dist.items()):
        entry = {"left": left, "right": right, "probability": float(p)}
        if mode == "analytic":
            entry["exact"] = str(p)
        if counts is not None:
            entry["count"] = int(counts.get((left, right), 0))
        entries.append(entry)
    payload = {
        "settings": {"left": circ.settings[0], "right": circ.settings[1]},
        "mode": mode,
        "entries": entries,
    }
    if n is not None:
        payload["n"] = int(n)
    return payload


# ---------------------------------------------------------------------------
# eraser scenario


def _merge_samples(circ, parts) -> circuit.BohmianSample:
    return circuit.BohmianSample(
        circuit=circ,
        labels0=np.concatenate([p.labels0 for p in parts]),
        coords0=np.concatenate([p.coords0 for p in parts]),
        bs_layers=parts[0].bs_layers,
        bs_labels={
            arm: tuple(
                np.concatenate([p.bs_labels[arm][k] for p in parts])
                for k in range(len(parts[0].bs_layers[arm]))
            )
            for arm in ("L", "R")
        },
        outcomes=np.concatenate([p.outcomes for p in parts]),
    )


def _sample_eraser(circ, n: int, seed: int, workers: int, base_index: int) -> circuit.BohmianSample:
    # chunk size depends only on n, so stream indices (and results) are the
    # same no matter how many workers drain the queue
    chunk = max(10000, math.ceil(n / 100))
    tasks = []
    start = 0
    index = 0
    while start < n:
        size = min(chunk, n - start)
        tasks.append((index, size))
        start += size
        index += 1

    def work(task):
        i, size = task
        return circuit.sample_bohmian_runs(circ, size, seed, stream_index=base_index + i)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(work, tasks))
    else:
        parts = [work(t) for t in tasks]
    return parts[0] if len(parts) == 1 else _merge_samples(circ, parts)


def _enumeration_runs(enum: circuit.TransportEnumeration) -> list[dict]:
    """One representative run per enumeration cell (interval midpoints)."""
    left, right = enum.circuit.settings
    runs = []
    for cell in enum.cells:
        mid = [float(lo + hi) / 2 for lo, hi in cell.init]
        runs.append(
            {
                "hidden": {
                    "label_L": circuit.PATH_LABELS[cell.labels0[0]],
                    "label_R": circuit.PATH_LABELS[cell.labels0[1]],
                    "x_L": mid[0],
                    "x_R": mid[1],
                },
                "settings": {"left": left, "right": right},
                "record_L": [[int(l), str(lab)] for l, lab in cell.recs[0]],
                "record_R": [[int(l), str(lab)] for l, lab in cell.recs[1]],
                "outcome": {"left": cell.outcome["L"], "right": cell.outcome["R"]},
            }
        )
    return runs


def _run_eraser(cfg: dict, outdir: str) -> tuple[list[str], bool]:
    files = []
    analytic = cfg["mode"] == "analytic"
    theta = cfg["theta"]
    if analytic and theta is not None:
        # exact arithmetic needs the angle as a pi-fraction, not a float
        frac = exact.nearest_pi_fraction(theta, max_denominator=_MAX_THETA_DENOMINATOR)
        if frac is None:
            raise _fail_usage(
                f"config error at $.theta: {theta!r} is not k*pi/q for any q <= "
                f"{_MAX_THETA_DENOMINATOR} (within 1e-12), which analytic mode needs; "
                "use --mode montecarlo for other angles"
            )
        theta = exact.pi_times(frac)
    circ = circuit.build_eraser(
        cfg["left"],
        cfg["right"],
        theta_left=theta,
        theta_right=theta,
        right_acts_first=cfg["right_acts_first"],
    )

    if analytic:
        dist = circuit.copenhagen_joint_distribution(circ)
        enum = circuit.enumerate_transport(circ)
        if "json" in cfg["formats"]:
            files.append(
                _write_json(
                    os.path.join(outdir, "joint_distribution.json"),
                    _joint_distribution_payload(circ, dist, "analytic"),
                )
            )
            files.append(
                _write_json(
                    os.path.join(outdir, "transport_distribution.json"),
                    _joint_distribution_payload(circ, enum.outcome_distribution, "analytic"),
                )
            )
        if "csv" in cfg["formats"]:
            rows = [
                (left, right, float(p)) for (left, right), p in sorted(dist.items())
            ]
            files.append(
                _write_csv(
                    os.path.join(outdir, "joint_distribution.csv"),
                    ["left", "right", "probability"],
                    rows,
                )
            )
        if "svg" in cfg["formats"]:
            svg = svgplot.render_eraser_records(_enumeration_runs(enum))
            files.append(_write_text(os.path.join(outdir, "records.svg"), svg))
        return files, True

    sample = _sample_eraser(circ, cfg["trials"], cfg["seed"], cfg["workers"], _IDX_ERASER_A)
    counts = sample.outcome_counts()
    n = sample.n
    freqs = {pair: c / n for pair, c in counts.items()}
    if "json" in cfg["formats"]:
        files.append(
            _write_json(
                os.path.join(outdir, "joint_frequencies.json"),
                _joint_distribution_payload(circ, freqs, "montecarlo", n=n, counts=counts),
            )
        )
        files.append(
            _write_json(os.path.join(outdir, "path_records.json"), sample.run_dicts(500))
        )
    if "csv" in cfg["formats"]:
        rows = (
            (
                i,
                circuit.PATH_LABELS[sample.labels0[i, 0]],
                circuit.PATH_LABELS[sample.labels0[i, 1]],
                repr(float(sample.coords0[i, 0])),
                repr(float(sample.coords0[i, 1])),
                f"L{sample.outcomes[i, 0]}",
                f"R{sample.outcomes[i, 1]}",
            )
            for i in range(n)
        )
        files.append(
            _write_csv(
                os.path.join(outdir, "outcomes.csv"),
                ["run_id", "label_L", "label_R", "x_L", "x_R", "outcome_L", "outcome_R"],
                rows,
            )
        )
    if "svg" in cfg["formats"]:
        svg = svgplot.render_eraser_records(sample.run_dicts(20))
        files.append(_write_text(os.path.join(outdir, "records.svg"), svg))
    return files, True


# ---------------------------------------------------------------------------
# grid scenarios


def _grid_setup(cfg: dict):
    grid = pilotwave.GridSpec.make((cfg["qmin"], cfg["qmax"], cfg["npoints"]))
    scenario = cfg["scenario"]
    if scenario == "free_packet":
        profile = pilotwave.GaussianProfile(center=(0.0,), width=(cfg["sigma"],), momentum=(0.0,))
        potential = pilotwave.free()
    elif scenario == "double_slit":
        half = cfg["separation"] / 2.0
        profile = pilotwave.TwoGaussianProfile(
            components=(
                pilotwave.GaussianProfile(center=(-half,), width=(cfg["sigma"],), momentum=(0.0,)),
                pilotwave.GaussianProfile(center=(half,), width=(cfg["sigma"],), momentum=(0.0,)),
            ),
            weights=(0.5, 0.5),
        )
        potential = pilotwave.free()
    elif scenario == "harmonic":
        width = math.sqrt(1.0 / (2.0 * cfg["omega"]))
        profile = pilotwave.GaussianProfile(center=(cfg["x0"],), width=(width,), momentum=(0.0,))
        potential = pilotwave.harmonic(cfg["omega"])
    else:
        raise ValueError(f"not a grid scenario: {scenario}")
    params = pilotwave.PhysicsParams(masses=(1.0,), potential=potential)
    psi0 = pilotwave.init_wavefunction(grid, profile)
    return psi0, params


def _run_grid_scenario(cfg: dict, outdir: str) -> tuple[list[str], bool]:
    if cfg["mode"] != "montecarlo":
        raise _fail_usage(f"scenario {cfg['scenario']} has no analytic mode; use --mode montecarlo")
    files = []
    psi0, params = _grid_setup(cfg)
    rng = stream(cfg["seed"], _IDX_SCENARIO)
    positions = pilotwave.sample_equilibrium(psi0, cfg["trials"], rng)
    run = pilotwave.integrate_trajectories(
        psi0,
        params,
        positions,
        dt=cfg["dt"],
        steps=cfg["steps"],
        save_every=cfg["save_every"],
    )
    report = pilotwave.check_equivariance(run)
    swaps = pilotwave.check_noncrossing(run) if len(run.grid.axes) == 1 else None
    final_norm = run.wavefunctions[-1].norm()

    payload = {
        "statistic": float(report.statistic),
        "threshold": float(report.threshold),
        "verdict": report.verdict,
        "n": int(report.n),
        "n_absorbed": int(report.n_absorbed),
        "order_swaps": None if swaps is None else int(swaps),
        "norm_drift": abs(float(final_norm) - 1.0),
        "final_time": float(run.times[-1]),
    }
    if "json" in cfg["formats"]:
        files.append(_write_json(os.path.join(outdir, "equivariance_report.json"), payload))
    if "csv" in cfg["formats"]:
        traj_path = os.path.join(outdir, "trajectories.csv")
        pilotwave.export_trajectories_csv(traj_path, run)
        files.append(traj_path)
        wave_dir = os.path.join(outdir, "wavefunctions")
        os.makedirs(wave_dir, exist_ok=True)
        files.extend(pilotwave.export_wavefunction_csv(wave_dir, run))
    if "svg" in cfg["formats"]:
        keep = min(run.n_trajectories, 200)
        groups = []
        for k in range(keep):
            pts = [
                (float(t), float(run.positions[s, k, 0]))
                for s, t in enumerate(run.times)
            ]
            groups.append((f"{k:05d}", pts))
        files.append(
            _write_text(os.path.join(outdir, "trajectories.svg"), svgplot.render_trajectories(groups))
        )
    return files, True


# ---------------------------------------------------------------------------
# repeatability and CHSH scenarios


def _run_repeatability(cfg: dict, outdir: str) -> tuple[list[str], bool]:
    files = []
    mode = inference.ANALYTIC if cfg["mode"] == "analytic" else inference.MONTE_CARLO
    with_collapse = inference.repeatability_test(
        cfg["trials"], collapse=True, mode=mode, seed=cfg["seed"], stream_index=_IDX_REPEAT
    )
    without_collapse = inference.repeatability_test(
        cfg["trials"], collapse=False, mode=mode, seed=cfg["seed"], stream_index=_IDX_REPEAT + 1
    )
    if "json" in cfg["formats"]:
        files.append(
            _write_json(
                os.path.join(outdir, "repeatability_with_collapse.json"),
                with_collapse.to_dict(),
            )
        )
        files.append(
            _write_json(
                os.path.join(outdir, "repeatability_without_collapse.json"),
                without_collapse.to_dict(),
            )
        )
    if "csv" in cfg["formats"]:
        rows = [
            (r.test, repr(r.statistic), r.verdict, r.n, r.details["collapse"])
            for r in (with_collapse, without_collapse)
        ]
        files.append(
            _write_csv(
                os.path.join(outdir, "repeatability.csv"),
                ["test", "statistic", "verdict", "n", "collapse"],
                rows,
            )
        )
    return files, True


def _chsh_payload(cfg: dict) -> dict:
    montecarlo = cfg["mode"] == "montecarlo"
    if montecarlo and cfg["trials"] < 2:
        raise _fail_usage(
            f"config error at $.trials: {cfg['trials']} is too few; the Monte-Carlo "
            "standard error needs a sample variance, so at least 2 trials per setting"
        )
    step = (np.pi / 2) / cfg["grid_step_count"]
    result = inference.chsh_optimize(step=step)
    models = inference.local_deterministic_models()
    local_max = max(inference.local_model_chsh_max(m, step=step) for m in models)
    payload = {
        "s_max": float(result.s_value),
        "settings": [float(v) for v in result.settings],
        # kept for the schema: S is maximized on the grid itself
        "grid_value": float(result.s_value),
        "grid_settings": [float(v) for v in result.settings],
        "exact_value": str(result.exact_value),
        "local_model_max": float(local_max),
        "local_models": len(models),
        "monte_carlo": None,
    }
    if montecarlo:
        n = cfg["trials"]
        t1, t2, f1, f2 = result.angles
        estimate = 0.0
        variance = 0.0
        for k, (tl, tr, sign) in enumerate(
            ((t1, f1, 1), (t1, f2, 1), (t2, f1, 1), (t2, f2, -1))
        ):
            circ = circuit.build_eraser(
                "interference", "interference", theta_left=tl, theta_right=tr
            )
            dist = circuit.copenhagen_joint_distribution(circ)
            pairs = inference.sample_outcome_pairs(dist, n, cfg["seed"], _IDX_CHSH + k)
            signs = {"1": -1, "2": 1}
            values = np.array([signs[l[-1]] * signs[r[-1]] for l, r in pairs], dtype=float)
            e_hat = float(values.mean())
            estimate += sign * e_hat
            variance += float(values.var(ddof=1)) / n
        payload["monte_carlo"] = {
            "estimate": estimate,
            "standard_error": math.sqrt(variance),
            "n_per_setting": n,
        }
    return payload


def _run_bell(cfg: dict, outdir: str) -> tuple[list[str], bool]:
    files = []
    payload = _chsh_payload(cfg)
    if "json" in cfg["formats"]:
        files.append(_write_json(os.path.join(outdir, "chsh_result.json"), payload))
    if "csv" in cfg["formats"]:
        rows = [
            ("s_max", repr(payload["s_max"])),
            ("grid_value", repr(payload["grid_value"])),
            ("local_model_max", repr(payload["local_model_max"])),
        ]
        files.append(_write_csv(os.path.join(outdir, "chsh_summary.csv"), ["quantity", "value"], rows))
    return files, True


# ---------------------------------------------------------------------------
# claims suite


def _claim(claims: list, name: str, expected: str, report: inference.TestReport) -> None:
    claims.append(
        {
            "claim": name,
            "expected_verdict": expected,
            "report": report.to_dict(),
            "matches": report.verdict == expected,
        }
    )


def _transport_equivariance_report() -> inference.TestReport:
    """Exact layer-by-layer agreement between transport and Born weights,
    across all setting pairs and both time orderings."""
    worst = exact.ZERO
    checked = 0
    for left in (circuit.INTERFERENCE, circuit.WHICHPATH):
        for right in (circuit.INTERFERENCE, circuit.WHICHPATH):
            for right_first in (False, True):
                circ = circuit.build_eraser(left, right, right_acts_first=right_first)
                enum = circuit.enumerate_transport(circ)
                for (layer_a, dist), (layer_b, ref) in zip(
                    enum.layer_distributions, enum.reference_distributions
                ):
                    if layer_a != layer_b:
                        raise RuntimeError(f"transport layer {layer_a} paired with Born layer {layer_b}")
                    dev = inference.total_variation(dist, ref)
                    checked += 1
                    if dev > worst:
                        worst = dev
    return inference.TestReport(
        test="transport_equivariance",
        statistic=float(worst),
        threshold=0.0,
        verdict=inference.SATISFIED if worst == 0 else inference.VIOLATED,
        n=0,
        mode=inference.ANALYTIC,
        details={"layer_tables_checked": checked, "settings": 4, "orderings": 2},
    )


def _setting_dependence_report(seed: int, n: int = 200) -> inference.TestReport:
    dep = circuit.trajectory_setting_dependence(n, seed, _IDX_CONFIGS, right_acts_first=True)
    examples = [
        {
            "hidden": {
                "label_L": labels[0],
                "label_R": labels[1],
                "x_L": coords[0],
                "x_R": coords[1],
            },
            "record_left_interference": [[int(l), lab] for l, lab in rec_a],
            "record_left_whichpath": [[int(l), lab] for l, lab in rec_b],
        }
        for (labels, coords), rec_a, rec_b in dep.examples
    ]
    lo, hi = inference.wilson_interval(round(dep.changed_fraction * dep.n), dep.n)
    if dep.changed_fraction == 0.0:
        verdict = inference.SATISFIED
    elif lo > 0.0:
        verdict = inference.VIOLATED
    else:
        verdict = inference.INCONCLUSIVE
    return inference.TestReport(
        test="trajectory_setting_dependence",
        statistic=dep.changed_fraction,
        threshold=0.0,
        verdict=verdict,
        n=dep.n,
        mode=inference.MONTE_CARLO,
        details={"examples": examples, "ci_low": lo, "ci_high": hi},
    )


def _purity_report() -> inference.TestReport:
    from . import hilbert

    # float arithmetic: the purity deviations reported are rounding-level
    psi = hilbert.StateVector(circuit.joint_space(), circuit.FLOAT_SOURCE.ravel())
    rho = hilbert.DensityMatrix.from_state(psi)
    global_before = hilbert.purity(rho)
    # the both-arms-interfering eraser's beam splitters, left arm first
    b = circuit.beam_splitter_matrix(np.pi / 4)
    evolved = rho
    for arm in "LR":
        evolved = hilbert.evolve(evolved, circuit._joint_unitary(b, arm))
    global_after = hilbert.purity(evolved)
    global_dev = abs(global_after - global_before)

    reduced = hilbert.purity(hilbert.partial_trace(rho, keep=[0]))
    reduced_dev = abs(reduced - 0.5)

    space = circuit.path_space()
    product = hilbert.tensor(
        hilbert.superposition(space, {"1": 1.0, "2": 1.0}), hilbert.basis_state(space, "1")
    )
    before = hilbert.purity(hilbert.partial_trace(hilbert.DensityMatrix.from_state(product), [0]))
    entangled = hilbert.evolve(product, hilbert.cnot_unitary())
    after = hilbert.purity(hilbert.partial_trace(hilbert.DensityMatrix.from_state(entangled), [0]))

    ok = global_dev <= 1e-12 and reduced_dev <= 1e-12 and after < before - 1e-9
    return inference.TestReport(
        test="purity_bookkeeping",
        statistic=reduced_dev,
        threshold=1e-12,
        verdict=inference.SATISFIED if ok else inference.VIOLATED,
        n=0,
        mode=inference.ANALYTIC,
        details={
            "global_purity_change": global_dev,
            "reduced_purity": reduced,
            "product_purity_before_entangler": before,
            "product_purity_after_entangler": after,
        },
    )


def _correlation_agreement_report(counts: dict, exact_dist: dict) -> inference.TestReport:
    n = sum(counts.values())
    max_z = 0.0
    for pair, p in exact_dist.items():
        p = float(p)
        f = counts.get(pair, 0) / n
        if p <= 0.0 or p >= 1.0:
            if abs(f - p) > 0.0:
                max_z = math.inf
            continue
        max_z = max(max_z, abs(f - p) / math.sqrt(p * (1.0 - p) / n))
    return inference.TestReport(
        test="eraser_correlation_agreement",
        statistic=max_z,
        threshold=3.0,
        verdict=inference.SATISFIED if max_z <= 3.0 else inference.VIOLATED,
        n=n,
        mode=inference.MONTE_CARLO,
        details={"frequencies": {f"{l},{r}": c / n for (l, r), c in sorted(counts.items())}},
    )


def _continuum_equivariance_report(seed: int) -> inference.TestReport:
    grid = pilotwave.GridSpec.make((-16.0, 16.0, 256))
    profile = pilotwave.GaussianProfile(center=(0.0,), width=(1.0,), momentum=(0.0,))
    psi0 = pilotwave.init_wavefunction(grid, profile)
    params = pilotwave.PhysicsParams(masses=(1.0,), potential=pilotwave.free())
    positions = pilotwave.sample_equilibrium(psi0, 2000, stream(seed, _IDX_SCENARIO + 1))
    run = pilotwave.integrate_trajectories(psi0, params, positions, dt=0.002, steps=500, save_every=500)
    report = pilotwave.check_equivariance(run)
    verdict = {
        "pass": inference.SATISFIED,
        "fail": inference.VIOLATED,
        "invalid": inference.INCONCLUSIVE,
    }[report.verdict]
    return inference.TestReport(
        test="continuum_equivariance",
        statistic=float(report.statistic),
        threshold=float(report.threshold),
        verdict=verdict,
        n=report.n,
        mode=inference.MONTE_CARLO,
        details={"n_absorbed": report.n_absorbed, "final_time": float(run.times[-1])},
    )


def _run_claims(cfg: dict, outdir: str) -> tuple[list[str], bool]:
    seed = cfg["seed"]
    trials = cfg["trials"]
    workers = cfg["workers"]
    claims: list = []

    # exact eraser distributions, used by several claims below
    circ_ii = circuit.build_eraser(circuit.INTERFERENCE, circuit.INTERFERENCE)
    circ_iw = circuit.build_eraser(circuit.INTERFERENCE, circuit.WHICHPATH)
    dist_ii = circuit.copenhagen_joint_distribution(circ_ii)
    dist_iw = circuit.copenhagen_joint_distribution(circ_iw)

    _claim(
        claims,
        "local_causality_eraser_analytic",
        inference.VIOLATED,
        inference.local_causality_test(dist_ii, "R1", "L1"),
    )

    counts_ii = _sample_eraser(circ_ii, trials, seed, workers, _IDX_ERASER_A).outcome_counts()
    counts_iw = _sample_eraser(circ_iw, trials, seed, workers, _IDX_ERASER_B).outcome_counts()
    _claim(
        claims,
        "local_causality_eraser_monte_carlo",
        inference.VIOLATED,
        inference.local_causality_test(counts_ii, "R1", "L1"),
    )
    _claim(
        claims,
        "local_causality_mwi_records",
        inference.VIOLATED,
        inference.local_causality_test(inference.mwi_joint_distribution(circ_ii), "R1", "L1"),
    )
    _claim(
        claims,
        "no_signaling_eraser_analytic",
        inference.SATISFIED,
        inference.no_signaling_test(
            {("interference", "interference"): dist_ii, ("interference", "whichpath"): dist_iw},
            side="left",
        ),
    )
    _claim(
        claims,
        "no_signaling_eraser_monte_carlo",
        inference.SATISFIED,
        inference.no_signaling_test(
            {
                ("interference", "interference"): counts_ii,
                ("interference", "whichpath"): counts_iw,
            },
            side="left",
        ),
    )
    _claim(
        claims,
        "eraser_correlation_agreement",
        inference.SATISFIED,
        _correlation_agreement_report(counts_ii, dist_ii),
    )

    enum_int = circuit.enumerate_transport(
        circuit.build_eraser(circuit.INTERFERENCE, circuit.INTERFERENCE, right_acts_first=True)
    )
    enum_wp = circuit.enumerate_transport(
        circuit.build_eraser(circuit.INTERFERENCE, circuit.WHICHPATH, right_acts_first=True)
    )
    groups = {
        ("interference", "interference"): enum_int,
        ("interference", "whichpath"): enum_wp,
    }
    _claim(
        claims,
        "measurement_independence_pre_detection",
        inference.VIOLATED,
        inference.measurement_independence_test(groups),
    )
    _claim(
        claims,
        "measurement_independence_initial",
        inference.SATISFIED,
        inference.measurement_independence_test(groups, stage="initial"),
    )
    _claim(claims, "trajectory_setting_dependence", inference.VIOLATED, _setting_dependence_report(seed))
    _claim(claims, "transport_equivariance", inference.SATISFIED, _transport_equivariance_report())

    repeat_n = min(trials, 10000)
    _claim(
        claims,
        "repeatability_with_collapse",
        inference.SATISFIED,
        inference.repeatability_test(repeat_n, collapse=True, seed=seed, stream_index=_IDX_REPEAT),
    )
    _claim(
        claims,
        "repeatability_without_collapse",
        inference.VIOLATED,
        inference.repeatability_test(
            repeat_n, collapse=False, seed=seed, stream_index=_IDX_REPEAT + 1
        ),
    )
    _claim(
        claims,
        "branch_collapse_equivalence",
        inference.SATISFIED,
        inference.branch_collapse_equivalence(seed=seed, stream_base=_IDX_BRANCH),
    )

    chsh = inference.chsh_optimize()
    models = inference.local_deterministic_models()
    local_max = max(inference.local_model_chsh_max(m) for m in models)
    _claim(
        claims,
        "chsh_local_bound",
        inference.SATISFIED,
        inference.TestReport(
            test="chsh_local_bound",
            statistic=local_max,
            threshold=2.0,
            verdict=inference.SATISFIED if local_max <= 2.0 + 1e-12 else inference.VIOLATED,
            n=0,
            mode=inference.ANALYTIC,
            details={"models": len(models)},
        ),
    )
    tsirelson = 2.0 * math.sqrt(2.0)
    quantum_ok = chsh.s_value > 2.0 and abs(chsh.s_value - tsirelson) < 1e-9
    _claim(
        claims,
        "chsh_quantum_optimum",
        inference.VIOLATED,
        inference.TestReport(
            test="chsh_quantum_optimum",
            statistic=chsh.s_value,
            threshold=2.0,
            verdict=inference.VIOLATED if quantum_ok else inference.INCONCLUSIVE,
            n=0,
            mode=inference.ANALYTIC,
            details={
                "exact_value": str(chsh.exact_value),
                "deviation_from_tsirelson": abs(chsh.s_value - tsirelson),
                "settings": list(chsh.settings),
            },
        ),
    )
    _claim(claims, "purity_bookkeeping", inference.SATISFIED, _purity_report())
    _claim(claims, "continuum_equivariance", inference.SATISFIED, _continuum_equivariance_report(seed))

    all_match = all(c["matches"] for c in claims)
    payload = {"seed": seed, "claims": claims, "all_match": all_match}
    files = []
    if "json" in cfg["formats"]:
        files.append(_write_json(os.path.join(outdir, "claims_suite.json"), payload))
    if "csv" in cfg["formats"]:
        rows = [
            (
                c["claim"],
                repr(c["report"]["statistic"]),
                c["report"]["verdict"],
                c["expected_verdict"],
                c["matches"],
            )
            for c in claims
        ]
        files.append(
            _write_csv(
                os.path.join(outdir, "claims_summary.csv"),
                ["claim", "statistic", "verdict", "expected", "matches"],
                rows,
            )
        )
    if not all_match:
        for c in claims:
            if not c["matches"]:
                print(
                    f"claims mismatch: {c['claim']} expected {c['expected_verdict']} "
                    f"got {c['report']['verdict']}",
                    file=sys.stderr,
                )
    return files, all_match


# ---------------------------------------------------------------------------
# scenario registry: scenario -> (runner, defaults); a runner returns (files
# written, whether every verdict it checks came out as expected)


_SCENARIOS = {
    "eraser": (
        _run_eraser,
        {
            "mode": "analytic",
            "trials": 100000,
            "left": "interference",
            "right": "interference",
            "theta": None,
            "right_acts_first": False,
        },
    ),
    "double_slit": (
        _run_grid_scenario,
        {
            "mode": "montecarlo",
            "trials": 200,
            "qmin": -16.0,
            "qmax": 16.0,
            "npoints": 512,
            "dt": 0.0008,
            "steps": 2500,
            "save_every": 50,
            "sigma": 0.7,
            "separation": 6.0,
        },
    ),
    "free_packet": (
        _run_grid_scenario,
        {
            "mode": "montecarlo",
            "trials": 10000,
            "qmin": -24.0,
            "qmax": 24.0,
            "npoints": 512,
            "dt": 0.001,
            "steps": 2000,
            "save_every": 100,
            "sigma": 1.0,
        },
    ),
    "harmonic": (
        _run_grid_scenario,
        {
            "mode": "montecarlo",
            "trials": 2000,
            "qmin": -12.0,
            "qmax": 12.0,
            "npoints": 256,
            "dt": 0.001,
            "steps": 3142,
            "save_every": 100,
            "omega": 1.0,
            "x0": 2.0,
        },
    ),
    "repeatability": (_run_repeatability, {"mode": "montecarlo", "trials": 10000}),
    "bell_chsh": (_run_bell, {"mode": "analytic", "trials": 100000, "grid_step_count": 16}),
    "claims_suite": (_run_claims, {"mode": "montecarlo", "trials": 100000}),
}


# ---------------------------------------------------------------------------
# verbs


def _keep_freed_heap() -> None:
    """Have glibc keep 16 MB of freed heap instead of returning it at once.

    Each pilot-wave step allocates and frees about 1 MB of numpy temporaries
    of 80 KB each.  On a small heap, glibc's default 128 KB trim threshold
    hands them back to the OS every step and faults them in again: about
    300 page faults per step, a third of `free_packet`'s run time.  Other
    platforms are left alone.
    """
    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TOP_PAD, _HEAP_TOP_PAD)


def _cmd_run(args) -> int:
    cfg = _merge_config(args)
    _keep_freed_heap()
    outdir = cfg["out"]
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as err:
        print(f"qfoundations: cannot create output directory {outdir}: {err}", file=sys.stderr)
        return EXIT_RUNTIME

    runner, _ = _SCENARIOS[cfg["scenario"]]
    try:
        files, ok = runner(cfg, outdir)
    except SystemExit:
        raise
    except Exception as err:  # noqa: BLE001 - boundary: report and use exit code 2
        print(f"qfoundations: runtime failure: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_RUNTIME

    _write_manifest(outdir, cfg, files)
    print(f"wrote {len(files) + 1} files to {outdir}")
    return EXIT_OK if ok else EXIT_CLAIMS


def _cmd_plot(args) -> int:
    out = args.out
    if out is None:
        base, _ = os.path.splitext(args.input)
        out = base + ".svg"
    try:
        if args.input.endswith(".csv"):
            svgplot.render_trajectory_csv(args.input, out)
        elif args.input.endswith(".json"):
            svgplot.render_path_record_json(args.input, out)
        else:
            print("qfoundations: plot input must be a .csv or .json file", file=sys.stderr)
            return EXIT_USAGE
    except OSError as err:
        print(f"qfoundations: {err}", file=sys.stderr)
        return EXIT_RUNTIME
    except ValueError as err:
        print(f"qfoundations: {err}", file=sys.stderr)
        return EXIT_RUNTIME
    print(f"wrote {out}")
    return EXIT_OK


def _cmd_schema(args) -> int:
    if args.name:
        payload = schemas.SCHEMAS[args.name]
    else:
        payload = schemas.SCHEMAS
    print(json.dumps(payload, indent=2, sort_keys=True))
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.verb == "run":
            return _cmd_run(args)
        if args.verb == "plot":
            return _cmd_plot(args)
        return _cmd_schema(args)
    except SystemExit as err:
        code = err.code if isinstance(err.code, int) else EXIT_USAGE
        return code


if __name__ == "__main__":
    sys.exit(main())
