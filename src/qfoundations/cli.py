"""Scenario runner: seeded execution, file emission, and the claims suite.

One JSON config (or flags; flags win) selects a scenario, seed, trial count
and output formats.  Every run writes its artifacts plus a manifest listing
each file with a sha256 digest; identical (config, seed) reruns are
byte-identical regardless of worker count, because all randomness flows
through counter-based streams keyed (seed, purpose index) and Monte-Carlo
work is split into fixed-size chunks whose streams do not depend on how
many threads consume them.  The Monte-Carlo eraser folds each chunk into its
artifacts as it arrives, in stream order, so its memory does not grow with
the number of runs.  Runners return their artifacts unbuilt; one emitter
builds and writes those in the requested formats, and a run that fails
leaves neither a file it started nor a manifest.

Exit codes: 0 success, 1 usage or config error, 2 runtime failure, 3 claims
suite verdict mismatch.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import itertools
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

# a grid packet's momentum density has standard deviation 1/(2 width); this
# many of them must lie within the grid's Nyquist wavenumber pi/dq, which
# leaves under 1e-6 of that density beyond it, the share of |psi|^2 that the
# grid allows outside [qmin, qmax]
_NYQUIST_SPREADS = 5

# outcomes.csv and trajectories.csv rows are converted from numpy and
# formatted about this many at a time, so the writers' memory does not grow
# with the number of runs or trajectories
_CSV_CHUNK_ROWS = 4096
# outcomes.csv row pieces: the initial labels and x_L's head at index
# 5 * (2 * label_L + label_R) + z, "," and x_R's head at z, the detector
# numbers at 4 * outcome_L + outcome_R - 5; a head is "0." and z zeros before
# the digits, or nothing before a repr at z = 4
_HEADS = ["0." + "0" * z for z in range(4)] + [""]
_ROW_HEADS_L = np.array([f",{l},{r},{h}" for l in (1, 2) for r in (1, 2) for h in _HEADS], dtype=object)
_ROW_HEADS_R = np.array(["," + h for h in _HEADS], dtype=object)
_ROW_SUFFIXES = np.array([f",L{l},R{r}\n" for l in range(1, 5) for r in range(1, 5)], dtype=object)
# |x| is at least 10^j exactly when |x| >= 1e{j} (each of these doubles lies
# at or above its power of ten); with dec of them at or below |x|, |x| * 10^k
# has 17 digits before the point at k = 21 - dec, where 10^k and 5^k are
# exact.  The kernel takes 1e-4 <= |x| < 1e15, dec 1 to 19
_DECADES = np.array([float(f"1e{j}") for j in range(-4, 16)])
_K = 21 - np.arange(_DECADES.size + 1)
_POW10, _POW5 = 10.0**_K, 5.0**_K
# trajectories.csv coordinate pieces: 10^i as int64, and a fraction's head,
# "." and z zeros, at index z, or nothing before a repr at the last index
_INT_POW10 = 10 ** np.arange(19, dtype=np.int64)
_POINTS = np.array(["." + "0" * z for z in range(18)] + [""], dtype=object)

_COMMON_DEFAULTS = {
    "seed": 7,
    "formats": ["json", "csv"],
    "workers": 1,
}
# a run flag's value type, by its config key's JSON type
_FLAG_TYPES = {"integer": int, "number": float, "string": str}


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
    run.add_argument("--format", dest="formats", help="comma list from csv,json,svg")
    # every other config key is the flag --key-name, typed by its schema
    for key, spec in schemas.SCENARIO_CONFIG["properties"].items():
        if key in ("scenario", "formats"):
            continue
        flag, kind = "--" + key.replace("_", "-"), spec.get("type")
        if "enum" in spec:
            run.add_argument(flag, choices=spec["enum"])
        elif kind == "boolean":
            run.add_argument(flag, action=argparse.BooleanOptionalAction)
        else:  # theta's type is ["number", "null"]; no flag spells null
            run.add_argument(flag, type=_FLAG_TYPES[kind if isinstance(kind, str) else kind[0]])

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
    cfg = {**_COMMON_DEFAULTS, **_SCENARIOS[args.scenario][1],
           "scenario": args.scenario, "out": os.path.join("out", args.scenario)}
    # cut to the keys that the scenario reads, the schema refuses any other
    properties = {k: v for k, v in schemas.SCENARIO_CONFIG["properties"].items() if k in cfg}
    schema = {**schemas.SCENARIO_CONFIG, "properties": properties}

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

    # a stable sort by path keeps each path's errors in keyword order
    errors = sorted(schemas.errors(schema, cfg), key=lambda e: e[0])
    if errors:
        for path, message in errors:
            print(f"qfoundations: config error at {path}: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    # JSON Schema counts 512.0 an integer; the engines take an int
    cfg.update((k, int(cfg[k])) for k, spec in properties.items() if spec.get("type") == "integer")

    # checks that span fields, made before anything is written
    analytic = cfg["mode"] == "analytic"
    on_grid = _SCENARIOS[cfg["scenario"]][0] is _run_grid_scenario
    if analytic and on_grid:
        raise _fail_usage(f"scenario {cfg['scenario']} has no analytic mode; use --mode montecarlo")
    if analytic and cfg["scenario"] == "eraser" and cfg["theta"] is not None:
        if _pi_fraction(cfg["theta"]) is None:
            raise _fail_usage(
                f"config error at $.theta: {cfg['theta']!r} is not k*pi/q for any q <= "
                f"{_MAX_THETA_DENOMINATOR} (within 1e-12), which analytic mode needs; "
                "use --mode montecarlo for other angles"
            )
    if cfg["scenario"] == "bell_chsh":
        if not analytic and cfg["trials"] < 2:
            raise _fail_usage(
                f"config error at $.trials: {cfg['trials']} is too few; the Monte-Carlo "
                "standard error needs a sample variance, so at least 2 trials per setting"
            )
        with _config_rule("grid_step_count"):
            inference._step_fraction(_chsh_step(cfg))
    if on_grid:
        _grid_setup(cfg)
    return cfg


@contextlib.contextmanager
def _config_rule(*keys: str):
    """Exit 1 if the body breaks a rule of an engine, which raises a
    ValueError or an ArithmeticError: a config error at the first of `keys`
    that the engine's message names, else at the first key."""
    try:
        yield
    except (ArithmeticError, ValueError) as err:
        key = next((k for k in keys if k in str(err)), keys[0])
        raise _fail_usage(f"config error at $.{key}: {err}") from None


def _pi_fraction(theta: float):
    return exact.nearest_pi_fraction(theta, max_denominator=_MAX_THETA_DENOMINATOR)


# ---------------------------------------------------------------------------
# emission: a runner returns (artifacts, whether every verdict it checks came
# out as expected).  An artifact is (path relative to the output directory,
# build); its format is the path's extension, and build() gives its payload:
# a JSON value, an iterator of CSV text chunks, or SVG text.


def _write(fh, kind: str, payload) -> None:
    if kind == "json":
        # json.dump writes as it encodes, so no whole-document token list is held
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    elif kind == "csv":
        fh.writelines(payload)
    else:
        fh.write(payload)


def _csv(header: str, row_format: str, rows):
    """CSV text chunks: the header line, then `row_format % row` for each
    row tuple; the format ends in the newline."""
    return itertools.chain([header + "\n"], map(row_format.__mod__, rows))


def _emit(cfg: dict, runner) -> tuple[int, bool]:
    """Run `runner` and write each artifact whose format is in
    cfg["formats"], building its payload only then; last, manifest.json
    with every file's sha256.  Returns the number of files written and the
    runner's verdict flag.  A manifest left by an earlier run in the same
    directory is removed first: it lists bytes this run may overwrite.  If
    anything raises, every file this run started is removed and the error
    propagates."""
    outdir = cfg["out"]
    manifest = os.path.join(outdir, "manifest.json")
    started = []
    try:
        with contextlib.suppress(FileNotFoundError):
            os.remove(manifest)
        artifacts, ok = runner(cfg)
        for rel, build in artifacts:
            kind = rel.rpartition(".")[2]
            if kind in cfg["formats"]:
                path = os.path.join(outdir, rel)
                os.makedirs(os.path.dirname(path), exist_ok=True)
                started.append(path)
                with open(path, "w", newline="\n") as fh:
                    _write(fh, kind, build())
        entries = []
        for path in sorted(started):
            # hashed in blocks, so no artifact is read whole
            with open(path, "rb") as fh:
                digest = hashlib.file_digest(fh, "sha256").hexdigest()
            entries.append(
                {"path": os.path.relpath(path, outdir), "sha256": digest, "bytes": os.path.getsize(path)}
            )
        payload = {"scenario": cfg["scenario"], "mode": cfg["mode"], "seed": cfg["seed"],
                   "config": cfg, "files": entries}
        started.append(manifest)
        with open(manifest, "w", newline="\n") as fh:
            _write(fh, "json", payload)
    except BaseException:
        for path in started:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        raise
    return len(started), ok


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


def _split(a):
    """a as hi + lo, each with at most 26 significant bits (Veltkamp)."""
    t = 134217729.0 * a
    hi = t - (t - a)
    return hi, a - hi


def _round_off(n, r, unit):
    """(n + r) / unit rounded to nearest, for int64 n and |r| <= 1/2, and
    the distance from n + r to unit times it."""
    q = n // unit
    m = n - q * unit
    up = m + r > unit / 2
    return q + up, np.abs(m + r - unit * up)


def _shortest_digits(x):
    """(digits, zeros, ok) for float64 x: wherever ok, |x| is the decimal
    digits * 10^-(zeros + len(str(digits))), the shortest that reads back as
    x, and of those the nearest (Steele & White 1990, Gay 1990); so for x in
    [0, 1) `repr(x)` == "0." + "0" * zeros + str(digits).  ok needs
    1e-4 <= |x| < 1e15, where repr prints x without an exponent.

    n17 + r == |x| * 10^k exactly (Dekker's product).  n17 always reads back,
    and the 16- and 15-digit roundings do when nearer x than half an ulp.
    None is exactly that far: x plus or minus half an ulp is an odd N >= 2^53
    times 2^-a, and a decimal m / 10^j of at most 17 digits equal to it needs
    m = N 5^j 2^(j-a), so 5^j < 10^17 / 2^53 < 12 and |x| >= 2^52 > 1e15.  A
    decimal of 15 digits or fewer that reads back is the 15-digit rounding.
    None rounds up to the power of ten above |x|, which would read back as a
    double at or above that power.  Not ok: |x| outside that range, a power
    of two (its interval is uneven), a tie at 17 or 16 digits.
    """
    ax = np.abs(x)
    dec = np.searchsorted(_DECADES, ax, side="right")
    in_range = (dec > 0) & (dec < _DECADES.size)
    if not in_range.all():
        # keep the arithmetic below finite and in int64; these are not ok
        ax, dec = np.where(in_range, ax, 0.5), np.where(in_range, dec, 4)
    p = _POW10[dec]
    hi = ax * p
    (xh, xl), (ph, pl) = _split(ax), _split(p)
    lo = ((xh * ph - hi) + xh * pl + xl * ph) + xl * pl
    floor = np.floor(lo)
    up = lo - floor > 0.5
    n17 = hi.astype(np.int64) + floor.astype(np.int64) + up
    r = lo - floor - up
    mant, exp = np.frexp(ax)
    half_ulp = np.ldexp(_POW5[dec], exp - 54 + _K[dec])  # times 10^k, exact
    (n16, d16), (n15, d15) = _round_off(n17, r, 10), _round_off(n17, r, 100)
    digits = np.where(d15 < half_ulp, n15, np.where(d16 < half_ulp, n16, n17))
    ok = in_range & (mant != 0.5) & (r != 0.5) & (d16 != 5)
    while (zero := ok & ((tenth := digits // 10) * 10 == digits)).any():
        digits = np.where(zero, tenth, digits)
    return digits, 4 - dec, ok


def _fixed_parts(x):
    """`repr` of each float64 in x as four lists of pieces, sign + whole +
    point + fraction: "-" or "", the integer part, "." and the fraction's
    leading zeros, and its other digits.  Where `_shortest_digits` is not
    ok, whole is `repr(x)` and the other pieces are empty."""
    digits, zeros, ok = _shortest_digits(x)
    # |x| == digits * 10^-places; the fraction has places digits
    places = zeros + np.searchsorted(_INT_POW10, digits, side="right")
    cut = _INT_POW10[np.clip(places, 0, 18)]
    whole = digits // cut * _INT_POW10[np.clip(-places, 0, 18)]
    fraction = digits % cut
    width = places - np.searchsorted(_INT_POW10, fraction, side="right")
    points = np.where(ok, np.where(fraction > 0, width, 0), _POINTS.size - 1)
    signs = np.where(ok & np.signbit(x), "-", "").tolist()
    whole, fraction = whole.tolist(), fraction.tolist()
    for i in np.flatnonzero(~ok).tolist():
        whole[i], fraction[i] = repr(float(x[i])), ""
    return signs, whole, _POINTS[points].tolist(), fraction


def _outcome_rows(sample: circuit.BohmianSample, first_id: int):
    """The sample's outcomes.csv rows, run ids counted from `first_id`, as
    one string per `_CSV_CHUNK_ROWS` runs, converted from numpy that many at
    a time.

    Each coordinate is Python's shortest round-trip decimal, as `repr`
    prints it: from `_shortest_digits`, or by `repr` where that is not ok.
    The pins in tests/golden_digests.json guard these bytes.
    """

    def chunk(start):
        part = slice(start, start + _CSV_CHUNK_ROWS)
        labels, outcomes, x = sample.labels0[part], sample.outcomes[part], sample.coords0[part]
        digits, zeros, ok = _shortest_digits(x)
        zeros = np.where(ok, zeros, 4)
        heads_l = _ROW_HEADS_L[5 * (2 * labels[:, 0] + labels[:, 1]) + zeros[:, 0]].tolist()
        heads_r = _ROW_HEADS_R[zeros[:, 1]].tolist()
        suffixes = _ROW_SUFFIXES[4 * outcomes[:, 0] + outcomes[:, 1] - 5].tolist()
        d_l, d_r = digits.T.tolist()
        for i, arm in zip(*np.nonzero(~ok)):
            (d_l, d_r)[arm][i] = repr(float(x[i, arm]))
        ids = range(first_id + start, first_id + start + len(d_l))
        rows = zip(ids, heads_l, d_l, heads_r, d_r, suffixes)
        return "".join([f"{i}{hl}{a}{hr}{b}{suf}" for i, hl, a, hr, b, suf in rows])

    return map(chunk, range(0, sample.n, _CSV_CHUNK_ROWS))


def _run_eraser(cfg: dict):
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
    if not analytic:
        return _montecarlo_eraser(cfg, circ), True

    dist = circuit.copenhagen_joint_distribution(circ)
    enum = circuit.enumerate_transport(circ)
    rows = [(left, right, float(p)) for (left, right), p in sorted(dist.items())]
    # one run per transport cell, from the midpoint of its initial rectangle
    cells = (
        [cell.labels0 for cell in enum.cells],
        [[float(lo + hi) / 2 for lo, hi in cell.init] for cell in enum.cells],
    )
    return [
        ("joint_distribution.json", lambda: _joint_distribution_payload(circ, dist, "analytic")),
        ("transport_distribution.json",
         lambda: _joint_distribution_payload(circ, enum.outcome_distribution, "analytic")),
        ("joint_distribution.csv", lambda: _csv("left,right,probability", "%s,%s,%r\n", rows)),
        ("records.svg", lambda: svgplot.render_eraser_records(
            circuit.sample_bohmian_runs(circ, 0, 0, hidden=cells).run_dicts()
        )),
    ], True


def _montecarlo_eraser(cfg: dict, circ):
    """The Monte-Carlo eraser's artifacts, drawn chunk by chunk.  The path
    records come from the first chunk, which holds the first min(n, 10000)
    runs.  One chunk iterator feeds outcomes.csv and the count fold; the
    chunks that the CSV did not take are then drained into the counts, so a
    run without the CSV formats no row."""
    parts = circuit.sample_eraser(circ, cfg["trials"], cfg["seed"], cfg["workers"], IDX_ERASER_A)
    first = next(parts)
    yield "path_records.json", lambda: first.run_dicts(slice(500))
    yield "records.svg", lambda: svgplot.render_eraser_records(first.run_dicts(slice(20)))
    counts: Counter = Counter()
    n = 0

    def counted(part):
        nonlocal n
        while part is not None:
            counts.update(part.outcome_counts())
            yield n, part
            n += part.n
            part = next(parts, None)

    chunks = counted(first)
    # the fold alone holds the first chunk now, and drops it for the next one
    del first
    rows = itertools.chain.from_iterable(_outcome_rows(part, start) for start, part in chunks)
    yield "outcomes.csv", lambda: itertools.chain(
        ["run_id,label_L,label_R,x_L,x_R,outcome_L,outcome_R\n"], rows
    )
    for _ in chunks:
        pass
    yield "joint_frequencies.json", lambda: _joint_distribution_payload(
        circ, {pair: c / n for pair, c in counts.items()}, "montecarlo", n=n, counts=counts
    )


# ---------------------------------------------------------------------------
# grid scenarios


def _grid_setup(cfg: dict):
    """A grid scenario's initial wave function and PhysicsParams, built and
    checked by the engines' own rules, and its packet checked against the
    grid's Nyquist wavenumber.  A config that breaks a rule exits 1 at a key
    it names; `_merge_config` calls this before anything is written."""
    with _config_rule("qmax", "npoints"):
        grid = pilotwave.GridSpec.make((cfg["qmin"], cfg["qmax"], cfg["npoints"]))
    # the packets' centers and width, the potential, and the keys that set
    # the width and place the packets
    if cfg["scenario"] == "harmonic":
        centers, width = [cfg["x0"]], math.sqrt(1.0 / (2.0 * cfg["omega"]))
        potential, width_key, place_key = pilotwave.harmonic(cfg["omega"]), "omega", "x0"
    elif cfg["scenario"] == "double_slit":
        centers, width = [-cfg["separation"] / 2.0, cfg["separation"] / 2.0], cfg["sigma"]
        potential, width_key, place_key = pilotwave.free(), "sigma", "separation"
    else:  # free_packet
        centers, width = [0.0], cfg["sigma"]
        potential, width_key, place_key = pilotwave.free(), "sigma", "sigma"
    packets = [pilotwave.GaussianProfile(center=(c,), width=(width,), momentum=(0.0,)) for c in centers]
    profile = packets[0] if len(packets) == 1 else pilotwave.TwoGaussianProfile(tuple(packets), (0.5, 0.5))

    dq = grid.axes[0].dq
    if _NYQUIST_SPREADS * dq > 2.0 * math.pi * width:
        raise _fail_usage(
            f"config error at $.{width_key}: {cfg[width_key]!r} under-resolves the packet on this grid: "
            f"the rule is {_NYQUIST_SPREADS}/(2*width) <= pi/dq (the Nyquist wavenumber), "
            f"with width = {'sqrt(1/(2*omega))' if width_key == 'omega' else 'sigma'} = {width:.6g} and "
            f"dq = {dq:.6g}, so the width must be at least "
            f"{_NYQUIST_SPREADS}*dq/(2*pi) = {_NYQUIST_SPREADS * dq / (2 * math.pi):.6g}"
        )
    with _config_rule(place_key):
        psi0 = pilotwave.init_wavefunction(grid, profile)
    params = pilotwave.PhysicsParams(masses=(1.0,), potential=potential)
    with _config_rule("dt"):
        pilotwave._check_dt(grid, params, potential.values(grid, params.masses), cfg["dt"])
    return psi0, params


def _trajectory_rows(run: pilotwave.TrajectoryRun):
    """trajectories.csv in long format, trajectory_id,time,q1[,q2], one row
    per (trajectory, time), as one string per chunk of whole trajectories of
    about `_CSV_CHUNK_ROWS` rows, converted from numpy that many at a time.

    Each coordinate is Python's shortest round-trip decimal, as `repr`
    prints it: from `_fixed_parts`.  Each row is a per-time ",<time>," piece
    between the id and the coordinates."""
    steps, n, ndim = run.positions.shape
    yield "trajectory_id,time," + ",".join(f"q{d + 1}" for d in range(ndim)) + "\n"
    times = [f",{t!r}," for t in run.times.tolist()]
    per_chunk = max(1, _CSV_CHUNK_ROWS // steps)
    for start in range(0, n, per_chunk):
        stop = min(n, start + per_chunk)
        # (trajectory, time, axis), so rows come trajectory by trajectory
        coords = run.positions[:, start:stop].transpose(1, 0, 2).reshape(-1, ndim)
        ids = np.repeat(np.arange(start, stop), steps).tolist()
        signs, whole, points, fraction = _fixed_parts(coords[:, 0])
        for d in range(1, ndim):
            # later coordinates ride on the first one's last piece
            fraction = [f"{a},{s}{w}{p}{f}" for a, s, w, p, f in zip(fraction, *_fixed_parts(coords[:, d]))]
        rows = zip(ids, times * (stop - start), signs, whole, points, fraction)
        yield "".join([f"{i}{t}{s}{w}{p}{f}\n" for i, t, s, w, p, f in rows])


def _wavefunction_csvs(run: pilotwave.TrajectoryRun) -> list:
    """One CSV artifact per saved snapshot, wavefunctions/wavefunction_<step>.csv
    with the step zero-padded: q1[,q2],re,im per grid node."""
    header = ",".join(f"q{d + 1}" for d in range(run.grid.ndim)) + ",re,im\n"

    @functools.cache
    def grid_columns():
        # the grid columns are the same text in every snapshot
        coords = np.stack([m.reshape(-1) for m in run.grid.meshes()], axis=1)
        return [",".join(map(repr, row)) for row in coords.tolist()]

    def rows(wf):
        flat = wf.values.reshape(-1)
        cells = zip(grid_columns(), map(repr, flat.real.tolist()), map(repr, flat.imag.tolist()))
        return [header, "".join(f"{q},{re},{im}\n" for q, re, im in cells)]

    return [
        (f"wavefunctions/wavefunction_{int(step):06d}.csv", functools.partial(rows, wf))
        for step, wf in zip(run.saved_steps, run.wavefunctions)
    ]


def _trajectory_svg(run: pilotwave.TrajectoryRun) -> str:
    groups = []
    for k in range(min(run.n_trajectories, 200)):
        pts = [(float(t), float(run.positions[s, k, 0])) for s, t in enumerate(run.times)]
        groups.append((f"{k:05d}", pts))
    return svgplot.render_trajectories(groups)


def _run_grid_scenario(cfg: dict):
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
        # 1D trajectories of an exact flow never cross, so a crossing shows
        # the run did not resolve the flow: its ensemble supports no verdict
        "verdict": "invalid" if swaps else report.verdict,
        "n": int(report.n),
        "n_absorbed": int(report.n_absorbed),
        "order_swaps": None if swaps is None else int(swaps),
        "norm_drift": abs(float(final_norm) - 1.0),
        "final_time": float(run.times[-1]),
    }
    return [
        ("equivariance_report.json", lambda: payload),
        ("trajectories.csv", lambda: _trajectory_rows(run)),
        *_wavefunction_csvs(run),
        ("trajectories.svg", lambda: _trajectory_svg(run)),
    ], True


# ---------------------------------------------------------------------------
# repeatability and CHSH scenarios


def _run_repeatability(cfg: dict):
    mode = inference.ANALYTIC if cfg["mode"] == "analytic" else inference.MONTE_CARLO
    with_collapse = inference.repeatability_test(
        cfg["trials"], collapse=True, mode=mode, seed=cfg["seed"], stream_index=IDX_REPEAT
    )
    without_collapse = inference.repeatability_test(
        cfg["trials"], collapse=False, mode=mode, seed=cfg["seed"], stream_index=IDX_REPEAT + 1
    )
    rows = [
        (r.test, r.statistic, r.verdict, r.n, r.details["collapse"])
        for r in (with_collapse, without_collapse)
    ]
    return [
        ("repeatability_with_collapse.json", with_collapse.to_dict),
        ("repeatability_without_collapse.json", without_collapse.to_dict),
        ("repeatability.csv",
         lambda: _csv("test,statistic,verdict,n,collapse", "%s,%r,%s,%s,%s\n", rows)),
    ], True


def _chsh_step(cfg: dict) -> float:
    return (np.pi / 2) / cfg["grid_step_count"]


def _run_bell(cfg: dict):
    step = _chsh_step(cfg)
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
    rows = [(key, payload[key]) for key in ("s_max", "grid_value", "local_model_max")]
    return [
        ("chsh_result.json", lambda: payload),
        ("chsh_summary.csv", lambda: _csv("quantity,value", "%s,%r\n", rows)),
    ], True


# ---------------------------------------------------------------------------
# claims suite


def _run_claims(cfg: dict):
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
        if report.verdict != expected:
            print(
                f"claims mismatch: {name} expected {expected} got {report.verdict}",
                file=sys.stderr,
            )

    all_match = all(c["matches"] for c in claims)
    payload = {"seed": cfg["seed"], "claims": claims, "all_match": all_match}
    rows = [
        (c["claim"], c["report"]["statistic"], c["report"]["verdict"], c["expected_verdict"], c["matches"])
        for c in claims
    ]
    return [
        ("claims_suite.json", lambda: payload),
        ("claims_summary.csv",
         lambda: _csv("claim,statistic,verdict,expected,matches", "%s,%r,%s,%s,%s\n", rows)),
    ], all_match


# ---------------------------------------------------------------------------
# scenario registry: scenario -> (runner, defaults).  A scenario reads the
# keys of its defaults and of _COMMON_DEFAULTS, and "out"; a config that sets
# any other key is refused.  What a runner returns is described where
# emission begins, above `_write`


_SCENARIOS = {
    "eraser": (_run_eraser, dict(
        mode="analytic", trials=100000, left="interference", right="interference", theta=None,
        right_acts_first=False)),
    "double_slit": (_run_grid_scenario, dict(
        mode="montecarlo", trials=200, qmin=-16.0, qmax=16.0, npoints=512, dt=0.0008, steps=2500,
        save_every=50, sigma=0.7, separation=6.0)),
    "free_packet": (_run_grid_scenario, dict(
        mode="montecarlo", trials=10000, qmin=-24.0, qmax=24.0, npoints=512, dt=0.001, steps=2000,
        save_every=100, sigma=1.0)),
    "harmonic": (_run_grid_scenario, dict(
        mode="montecarlo", trials=2000, qmin=-12.0, qmax=12.0, npoints=256, dt=0.001, steps=3142,
        save_every=100, omega=1.0, x0=2.0)),
    "repeatability": (_run_repeatability, dict(mode="montecarlo", trials=10000)),
    "bell_chsh": (_run_bell, dict(mode="analytic", trials=100000, grid_step_count=16)),
    "claims_suite": (_run_claims, dict(mode="montecarlo", trials=100000)),
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

    try:
        written, ok = _emit(cfg, _SCENARIOS[cfg["scenario"]][0])
    except Exception as err:  # noqa: BLE001 - boundary: report and use exit code 2
        print(f"qfoundations: runtime failure: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_RUNTIME
    print(f"wrote {written} files to {outdir}")
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
    except (OSError, ValueError) as err:
        print(f"qfoundations: {err}", file=sys.stderr)
        return EXIT_RUNTIME
    print(f"wrote {out}")
    return EXIT_OK


def _cmd_schema(args) -> int:
    payload = schemas.SCHEMAS[args.name] if args.name else schemas.SCHEMAS
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
        return err.code if isinstance(err.code, int) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
