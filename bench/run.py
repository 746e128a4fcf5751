"""Benchmark harness: time qfoundations scenarios end to end and layer by layer.

    python3 bench/run.py --workload claims --seed 0 --seconds 36 --trace 0

Runs the workload's scenario again and again for `--seconds` seconds, one
fresh interpreter at a time (a closed loop with one client, ``--workers 1``),
and passes `--seed` through as the scenario seed.  Every run must pass the
correctness gate in workloads.py; runs at the same seed must also write the
same bytes.  With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced runs and reports the
per-layer metrics of the traced ones.  BENCHMARK.json at the repository root
names every metric and its unit; README.md in this directory says what each
one measures.  The last line of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
Scratch files go to ``.bench_out/`` at the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

from spans import END, ERROR, NAME, PARENT, START, WORK, SpanError, layer_of, load, outermost, self_times
from workloads import WORKLOADS, check_artifacts, digests

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_out"
REFERENCE_DIGESTS = BENCH / "reference_digests.json"

CHILD_TIMEOUT_S = 150.0
# no run starts that would end after this, so one invocation stays under 180 s
START_LIMIT_S = 120.0
# layer self times must add up to run_s within this (clock reads are nanoseconds apart)
SELF_SUM_TOL_S = 1e-3

LAYERS = ("hilbert", "circuit", "inference", "pilotwave", "cli")
# per-layer metric prefix -> span name, where the issue names a method by its short name
SPAN_ALIASES = {
    "circuit.run_dicts": "circuit.BohmianSample.run_dicts",
    "circuit.outcome_pairs": "circuit.BohmianSample.outcome_pairs",
}


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def environment(seed: int) -> dict:
    """What was measured and on what: source identity, library versions, cores."""
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
        git_sha = proc.stdout.strip() or None
    tree = hashlib.sha256()
    for path in sorted((SRC / "qfoundations").glob("*.py")):
        tree.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha,
        "src_sha256": tree.hexdigest(),
        "python": platform.python_version(),
        **{lib: metadata.version(lib) for lib in ("numpy", "scipy", "sympy", "jsonschema")},
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def trace_summary(names: list[str], spans: list[list], run_s: float) -> tuple[dict, list[str]]:
    """Per-function calls, time and work, per-layer self time and errors of
    one traced run, with the problems its self-check found."""
    try:
        selfs = self_times(spans)
    except SpanError as err:
        return {}, [f"trace: {err}"]
    problems = []
    roots = [names[s[NAME]] for s in spans if s[PARENT] < 0]
    if roots != ["cli.main"]:
        problems.append(f"trace: top-level spans are {roots[:5]}, expected one cli.main")
    functions: dict = {}
    self_s = dict.fromkeys(LAYERS, 0.0)
    errors = dict.fromkeys(LAYERS, 0)
    for span, own, outer in zip(spans, selfs, outermost(names, spans)):
        name = names[span[NAME]]
        calls, secs, work = functions.get(name, (0, 0.0, 0))
        functions[name] = (calls + 1, secs + (span[END] - span[START] if outer else 0.0), work + span[WORK])
        self_s[layer_of(name)] += own
        errors[layer_of(name)] += span[ERROR]
    residual = sum(self_s.values()) - run_s
    if abs(residual) > SELF_SUM_TOL_S:
        problems.append(f"trace: layer self times sum to run_s {residual:+.6f} s")
    return {"functions": functions, "self_s": self_s, "errors": errors, "spans": len(spans),
            "self_sum_residual_s": residual}, problems


def per_layer_value(metric: str, record: dict) -> float:
    """One per-layer metric of one traced run, by the naming scheme in README.md."""
    summary = record["trace"]
    if metric == "circuit.run_dicts.kept_ratio":
        built = summary["functions"].get(SPAN_ALIASES["circuit.run_dicts"], (0, 0.0, 0))[2]
        return _rate(record["records_kept"], built)
    if metric == "cli.bytes_written":
        return record["bytes_written"]
    if metric == "cli.files_written":
        return record["files_written"]
    base, _, kind = metric.rpartition(".")
    if kind == "self_s":
        return summary["self_s"][base]
    if kind == "errors":
        return summary["errors"][base]
    calls, secs, work = summary["functions"].get(SPAN_ALIASES.get(base, base), (0, 0.0, 0))
    return {
        "calls": calls,
        "s": secs,
        "per_s": _rate(calls, secs),
        "built": work,
        "runs_per_s": _rate(work, secs),
        "particle_steps_per_s": _rate(work, secs),
        "mb_per_s": _rate(work / 1e6, secs),
    }[kind]


def _log_tail(path: Path, lines: int = 5) -> str:
    try:
        text = path.read_text(errors="replace").strip().splitlines()
    except OSError:
        return ""
    return " | ".join(text[-lines:])


def run_once(workload, scenario_args, seed: int, work: Path, run_id: str, traced: bool, schemas: dict) -> dict:
    """Run the scenario once in a fresh interpreter and check what it wrote."""
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    work.mkdir(parents=True, exist_ok=True)
    result_path, spans_path, log_path = work / "result.json", work / "spans.json", work / "child.log"
    for path in (result_path, spans_path):
        path.unlink(missing_ok=True)
    # a path relative to the root keeps the manifest's bytes independent of the checkout location
    out_arg = os.path.relpath(out, ROOT) if out.is_relative_to(ROOT) else str(out)
    cmd = [
        sys.executable, str(BENCH / "child.py"), str(result_path), str(spans_path) if traced else "-",
        str(SRC), run_id, "--", "run", *scenario_args,
        "--seed", str(seed), "--out", out_arg, "--workers", "1",
    ]
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall_s = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)

    record = {"run_id": run_id, "traced": traced, "exit_code": proc.returncode, "wall_s": wall_s,
              "peak_rss_mb": usage.ru_maxrss * 1024 / 1e6,
              "cpu_s": usage.ru_utime + usage.ru_stime, "problems": []}
    problems = record["problems"]
    if proc.returncode != 0:
        problems.append(f"exit code {proc.returncode}: {_log_tail(log_path)}")
    if result_path.exists():
        result = json.loads(result_path.read_text())
        record.update(setup_s=result["setup_s"], run_s=result["run_s"])
    else:
        problems.append("the run wrote no timings")
    if not (out / "manifest.json").exists():
        problems.append("the run wrote no manifest")
        return record

    on_disk = digests(str(out))
    record["digests"] = on_disk
    record["files_written"] = len(on_disk)
    record["bytes_written"] = sum(f.stat().st_size for f in out.rglob("*") if f.is_file())
    try:
        problems.extend(check_artifacts(str(out), schemas, on_disk))
        cfg = json.loads((out / "manifest.json").read_text())["config"]
        problems.extend(workload.check(str(out), cfg))
        record["work"] = workload.work(str(out), cfg)
    except (OSError, KeyError, TypeError, ValueError) as err:
        problems.append(f"output check failed: {type(err).__name__}: {err}")
    records_path = out / "path_records.json"
    record["records_kept"] = len(json.loads(records_path.read_text())) if records_path.exists() else 0

    if traced and "run_s" in record:
        if spans_path.exists():
            _, names, spans = load(str(spans_path))
            record["trace"], trace_problems = trace_summary(names, spans, record["run_s"])
            problems.extend(trace_problems)
        else:
            problems.append("trace: the traced run wrote no spans")
    return record


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """The highest percentile with at least ten samples above it, or None."""
    n = len(samples)
    if n < 11:
        return None
    rank = n - 10  # 1-based rank of the value with exactly ten samples above it
    return 100 * rank // n, sorted(samples)[rank - 1]


def _describe(name: str, unit: str, samples: list[float]) -> str:
    if not samples:
        return f"{name:<56} n/a (no finished run)"
    line = f"{name:<56} {statistics.median(samples):>14.6g} {unit:<8} median of {len(samples)}"
    tail = tail_percentile(samples)
    if tail is None:
        return line + "; no tail percentile (needs at least 11 samples)"
    return line + f"; p{tail[0]} {tail[1]:.6g}"


def end_to_end_samples(records: list[dict]) -> dict:
    good = [r for r in records if not r["traced"] and "run_s" in r]
    return {
        "wall_s": [r["wall_s"] for r in good],
        "setup_s": [r["setup_s"] for r in good],
        "run_s": [r["run_s"] for r in good],
        "work_per_s": [_rate(r["work"], r["run_s"]) for r in good if "work" in r],
        "peak_rss_mb": [r["peak_rss_mb"] for r in good],
    }


def check_determinism(records: list[dict]) -> None:
    """Mark as failed every run whose bytes differ from the first run's."""
    with_bytes = [r for r in records if "digests" in r]
    for record in with_bytes[1:]:
        first = with_bytes[0]
        differ = sorted(k for k in set(first["digests"]) | set(record["digests"])
                        if first["digests"].get(k) != record["digests"].get(k))
        if differ:
            record["problems"].append(
                f"bytes differ from {first['run_id']} at the same seed and config: {', '.join(differ)}")


def reference_mismatches(workload: str, seed: int, on_disk: dict) -> list[str] | None:
    """Files whose digest differs from the pinned reference, or None if none is pinned."""
    pinned = json.loads(REFERENCE_DIGESTS.read_text()).get(workload, {}).get(str(seed))
    if pinned is None:
        return None
    return sorted(k for k in set(pinned) | set(on_disk) if pinned.get(k) != on_disk.get(k))


def run_workload(name: str, seed: int, seconds: float, trace: bool, schemas: dict) -> list[dict]:
    """Closed loop: run the scenario until `seconds` have passed; untraced and
    traced runs alternate when `trace` is set, starting untraced."""
    workload = WORKLOADS[name]
    records: list[dict] = []
    durations: list[float] = []
    t0 = time.perf_counter()
    while True:
        traced = trace and len(records) % 2 == 1
        started = time.perf_counter()
        records.append(run_once(workload, workload.args, seed, WORK_DIR / name, f"{name}-{seed}-{len(records)}",
                                traced, schemas))
        durations.append(time.perf_counter() - started)
        # start another run only if a typical one still ends inside the window
        ends_at = time.perf_counter() - t0 + statistics.median(durations)
        enough = len(records) >= (2 if trace else 1)
        if enough and (ends_at > seconds or ends_at > START_LIMIT_S):
            break
    check_determinism(records)
    return records


def report(name: str, seed: int, trace: bool, records: list[dict], spec: dict, env: dict) -> dict:
    """Print every metric with its unit and return the final result object."""
    workload = WORKLOADS[name]
    failed = sum(1 for r in records if r["problems"])
    print(f"workload {name}  seed {seed}  trace {int(trace)}  runs {len(records)}  failed {failed}")
    print("environment " + json.dumps(env, sort_keys=True))
    for r in records:
        for problem in r["problems"]:
            print(f"FAILED {r['run_id']}: {problem}")
    print(f"{'failed_frac':<56} {failed / len(records):>14.6g} {'1':<8} of {len(records)} runs")
    first = next((r for r in records if "digests" in r), None)
    mismatched = None if first is None else reference_mismatches(name, seed, first["digests"])
    if mismatched is None:
        print(f"reference digests: none pinned for seed {seed}")
    else:
        print("reference digests: " + (f"differ in {', '.join(mismatched)}" if mismatched else "all files match"))

    metrics = {}
    if not trace:
        samples = end_to_end_samples(records)
        for m in spec["end_to_end"]:
            unit = f"{m['unit']} ({workload.work_unit})" if m["name"] == "work_per_s" else m["unit"]
            print(_describe(m["name"], unit, samples[m["name"]]))
            value = statistics.median(samples[m["name"]]) if samples[m["name"]] else 0.0
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    else:
        traced = [r for r in records if r["traced"] and r.get("trace")]
        untraced_run = [r["run_s"] for r in records if not r["traced"] and "run_s" in r]
        for m in spec["per_layer"]:
            if m["name"] == "trace.overhead_s":
                samples = []
                if traced and untraced_run:
                    samples = [statistics.median(r["run_s"] for r in traced) - statistics.median(untraced_run)]
            else:
                samples = [per_layer_value(m["name"], r) for r in traced]
            print(_describe(m["name"], m["unit"], samples))
            metrics[m["name"]] = {"value": statistics.median(samples) if samples else 0.0, "unit": m["unit"]}
        if traced:
            keys, share = workload.profile
            run_s = statistics.median(r["run_s"] for r in traced)
            got = sum(metrics[k]["value"] for k in keys) / run_s
            print(f"profile share ({' + '.join(keys)}) / run_s = {got:.3f}; expected above {share}")
            print(f"spans per traced run: {statistics.median(r['trace']['spans'] for r in traced):.0f}")

    result = {"correct": failed == 0, "attempted": len(records), "failed": failed, "metrics": metrics}
    details = {"environment": env, "reference_mismatches": mismatched, "result": result,
               "runs": [{k: v for k, v in r.items() if k not in ("digests", "trace")} for r in records]}
    (WORK_DIR / name / f"result-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(details, indent=1))
    return result


def load_schemas() -> dict:
    """qfoundations.schemas.SCHEMAS from the tree under test."""
    sys.path.insert(0, str(SRC))
    from qfoundations import schemas

    if not Path(schemas.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"imported {schemas.__file__}, which is not under {SRC}")
    return schemas.SCHEMAS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qfoundations" / "__init__.py").is_file():
        print(f"bench: no qfoundations package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    schemas = load_schemas()
    env = environment(args.seed)
    records = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), schemas)
    result = report(args.workload, args.seed, bool(args.trace), records, spec, env)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
