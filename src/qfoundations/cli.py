"""Scenario runner: seeded execution, file emission, and the claims suite.

One JSON config (or flags; flags win) selects a scenario, seed, trial count
and output formats.  Every run writes its artifacts plus a manifest listing
each file with a sha256 digest; identical (config, seed) reruns are
byte-identical regardless of worker count, because all randomness flows
through counter-based streams keyed (seed, purpose index) and Monte-Carlo
work is split into fixed-size chunks whose streams do not depend on how
many threads consume them.  The Monte-Carlo eraser folds each chunk into its
artifacts as it arrives, in stream order, so its memory does not grow with
the number of runs.

Exit codes: 0 success, 1 usage or config error, 2 runtime failure, 3 claims
suite verdict mismatch.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import sys
from collections import Counter

import numpy as np

from . import circuit, exact, inference, pilotwave, schemas, svgplot
from .streams import IDX_CHSH, IDX_ERASER_A, IDX_REPEAT, IDX_SCENARIO, stream

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2
EXIT_CLAIMS = 3

# analytic --theta must be k*pi/q with q at most this
_MAX_THETA_DENOMINATOR = 64

# outcomes.csv rows are converted from numpy and formatted this many at a
# time, so the writer's memory does not grow with the number of runs
_CSV_CHUNK_ROWS = 4096
# outcomes.csv row pieces: the initial labels at index 2 * label_L + label_R,
# the detector numbers at 4 * outcome_L + outcome_R - 5
_ROW_PREFIXES = np.array([",1,1,", ",1,2,", ",2,1,", ",2,2,"], dtype=object)
_ROW_SUFFIXES = np.array([f",L{l},R{r}\n" for l in range(1, 5) for r in range(1, 5)], dtype=object)

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

    # checks that span fields, made before anything is written
    analytic = cfg["mode"] == "analytic"
    if analytic and _SCENARIOS[cfg["scenario"]][0] is _run_grid_scenario:
        raise _fail_usage(f"scenario {cfg['scenario']} has no analytic mode; use --mode montecarlo")
    if analytic and cfg["scenario"] == "eraser" and cfg["theta"] is not None:
        if _pi_fraction(cfg["theta"]) is None:
            raise _fail_usage(
                f"config error at $.theta: {cfg['theta']!r} is not k*pi/q for any q <= "
                f"{_MAX_THETA_DENOMINATOR} (within 1e-12), which analytic mode needs; "
                "use --mode montecarlo for other angles"
            )
    if not analytic and cfg["scenario"] == "bell_chsh" and cfg["trials"] < 2:
        raise _fail_usage(
            f"config error at $.trials: {cfg['trials']} is too few; the Monte-Carlo "
            "standard error needs a sample variance, so at least 2 trials per setting"
        )
    return cfg


def _pi_fraction(theta: float):
    return exact.nearest_pi_fraction(theta, max_denominator=_MAX_THETA_DENOMINATOR)


# ---------------------------------------------------------------------------
# emission helpers


def _write_json(path: str, payload) -> str:
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _write_csv(path: str, header: list[str], row_format: str, rows) -> str:
    """The header line, then `row_format % row` for each row tuple; the
    format ends in the newline."""
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(map(row_format.__mod__, rows))
    return path


def _write_text(path: str, text: str) -> str:
    with open(path, "w", newline="\n") as fh:
        fh.write(text)
    return path


def _write_manifest(outdir: str, cfg: dict, files: list[str]) -> str:
    entries = []
    for path in sorted(files):
        # hashed in blocks, so no artifact is read whole
        with open(path, "rb") as fh:
            digest = hashlib.file_digest(fh, "sha256").hexdigest()
        entries.append(
            {
                "path": os.path.relpath(path, outdir),
                "sha256": digest,
                "bytes": os.path.getsize(path),
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


def _outcome_rows(sample: circuit.BohmianSample, first_id: int):
    """The sample's outcomes.csv rows, run ids counted from `first_id`, as
    one string per `_CSV_CHUNK_ROWS` runs, converted from numpy that many at
    a time."""

    def chunk(start):
        part = slice(start, start + _CSV_CHUNK_ROWS)
        labels, outcomes = sample.labels0[part], sample.outcomes[part]
        prefixes = _ROW_PREFIXES[2 * labels[:, 0] + labels[:, 1]].tolist()
        suffixes = _ROW_SUFFIXES[4 * outcomes[:, 0] + outcomes[:, 1] - 5].tolist()
        x_l, x_r = sample.coords0[part].T.tolist()
        ids = range(first_id + start, first_id + start + len(x_l))
        rows = zip(ids, prefixes, x_l, x_r, suffixes)
        return "".join([f"{i}{pre}{a!r},{b!r}{suf}" for i, pre, a, b, suf in rows])

    return map(chunk, range(0, sample.n, _CSV_CHUNK_ROWS))


def _run_eraser(cfg: dict, outdir: str) -> tuple[list[str], bool]:
    files = []
    analytic = cfg["mode"] == "analytic"
    theta = cfg["theta"]
    if analytic and theta is not None:
        # exact arithmetic needs the angle as a pi-fraction, not a float
        theta = exact.pi_times(_pi_fraction(theta))
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
                    "%s,%s,%r\n",
                    rows,
                )
            )
        if "svg" in cfg["formats"]:
            svg = svgplot.render_eraser_records(_enumeration_runs(enum))
            files.append(_write_text(os.path.join(outdir, "records.svg"), svg))
        return files, True

    # fold each chunk in as it arrives: counts, outcomes.csv rows, and the
    # first runs of the stream for path_records.json / records.svg
    formats = cfg["formats"]
    keep = 500 if "json" in formats else 20 if "svg" in formats else 0
    counts: Counter = Counter()
    runs: list[dict] = []
    n = 0
    csv_path = os.path.join(outdir, "outcomes.csv")
    try:
        with open(csv_path, "w", newline="\n") if "csv" in formats else contextlib.nullcontext() as csv:
            if csv:
                csv.write("run_id,label_L,label_R,x_L,x_R,outcome_L,outcome_R\n")
            chunks = circuit.sample_eraser(circ, cfg["trials"], cfg["seed"], cfg["workers"], IDX_ERASER_A)
            for part in chunks:
                counts.update(part.outcome_counts())
                if csv:
                    csv.writelines(_outcome_rows(part, n))
                if len(runs) < keep:
                    runs += part.run_dicts(keep - len(runs))
                n += part.n
    except BaseException:
        # a chunk that fails mid-stream must not leave a truncated table behind
        if "csv" in formats and os.path.exists(csv_path):
            os.remove(csv_path)
        raise

    freqs = {pair: c / n for pair, c in counts.items()}
    if "json" in formats:
        files.append(
            _write_json(
                os.path.join(outdir, "joint_frequencies.json"),
                _joint_distribution_payload(circ, freqs, "montecarlo", n=n, counts=counts),
            )
        )
        files.append(_write_json(os.path.join(outdir, "path_records.json"), runs))
    if "csv" in formats:
        files.append(csv_path)
    if "svg" in formats:
        svg = svgplot.render_eraser_records(runs[:20])
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
    files = []
    psi0, params = _grid_setup(cfg)
    rng = stream(cfg["seed"], IDX_SCENARIO)
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
        cfg["trials"], collapse=True, mode=mode, seed=cfg["seed"], stream_index=IDX_REPEAT
    )
    without_collapse = inference.repeatability_test(
        cfg["trials"], collapse=False, mode=mode, seed=cfg["seed"], stream_index=IDX_REPEAT + 1
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
            (r.test, r.statistic, r.verdict, r.n, r.details["collapse"])
            for r in (with_collapse, without_collapse)
        ]
        files.append(
            _write_csv(
                os.path.join(outdir, "repeatability.csv"),
                ["test", "statistic", "verdict", "n", "collapse"],
                "%s,%r,%s,%s,%s\n",
                rows,
            )
        )
    return files, True


def _chsh_payload(cfg: dict) -> dict:
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
    if cfg["mode"] == "montecarlo":
        estimate, error = inference.chsh_estimate(
            result.angles, cfg["trials"], cfg["seed"], IDX_CHSH
        )
        payload["monte_carlo"] = {
            "estimate": estimate,
            "standard_error": error,
            "n_per_setting": cfg["trials"],
        }
    return payload


def _run_bell(cfg: dict, outdir: str) -> tuple[list[str], bool]:
    files = []
    payload = _chsh_payload(cfg)
    if "json" in cfg["formats"]:
        files.append(_write_json(os.path.join(outdir, "chsh_result.json"), payload))
    if "csv" in cfg["formats"]:
        rows = [(key, payload[key]) for key in ("s_max", "grid_value", "local_model_max")]
        files.append(
            _write_csv(
                os.path.join(outdir, "chsh_summary.csv"), ["quantity", "value"], "%s,%r\n", rows
            )
        )
    return files, True


# ---------------------------------------------------------------------------
# claims suite


def _run_claims(cfg: dict, outdir: str) -> tuple[list[str], bool]:
    evidence = inference.claim_evidence(cfg["seed"], cfg["trials"], cfg["workers"])
    claims = []
    for name, expected, test in inference.CLAIMS:
        report = test(evidence)
        claims.append(
            {
                "claim": name,
                "expected_verdict": expected,
                "report": report.to_dict(),
                "matches": report.verdict == expected,
            }
        )

    all_match = all(c["matches"] for c in claims)
    payload = {"seed": cfg["seed"], "claims": claims, "all_match": all_match}
    files = []
    if "json" in cfg["formats"]:
        files.append(_write_json(os.path.join(outdir, "claims_suite.json"), payload))
    if "csv" in cfg["formats"]:
        rows = [
            (
                c["claim"],
                c["report"]["statistic"],
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
                "%s,%r,%s,%s,%s\n",
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


def _cmd_run(args) -> int:
    cfg = _merge_config(args)
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
