"""The benchmark's workloads and the correctness gate every run must pass.

Each workload is one ``qfoundations run`` scenario.  ``check_artifacts``
holds for all of them: every emitted JSON validates against its schema, and
the manifest lists exactly the files on disk with matching sha256 digests
and sizes.  Each workload adds checks of its own scientific output.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

# emitted JSON file name -> schema name in qfoundations.schemas.SCHEMAS
JSON_SCHEMAS = {
    "manifest.json": "manifest",
    "claims_suite.json": "claims_suite",
    "joint_frequencies.json": "joint_distribution",
    "path_records.json": "path_records",
    "equivariance_report.json": "equivariance_report",
}

# the claims battery and the verdict the paper assigns each claim
EXPECTED_VERDICTS = {
    "local_causality_eraser_analytic": "violated",
    "local_causality_eraser_monte_carlo": "violated",
    "local_causality_mwi_records": "violated",
    "no_signaling_eraser_analytic": "satisfied",
    "no_signaling_eraser_monte_carlo": "satisfied",
    "eraser_correlation_agreement": "satisfied",
    "measurement_independence_pre_detection": "violated",
    "measurement_independence_initial": "satisfied",
    "trajectory_setting_dependence": "violated",
    "transport_equivariance": "satisfied",
    "repeatability_with_collapse": "satisfied",
    "repeatability_without_collapse": "violated",
    "branch_collapse_equivalence": "satisfied",
    "chsh_local_bound": "satisfied",
    "chsh_quantum_optimum": "violated",
    "purity_bookkeeping": "satisfied",
    "continuum_equivariance": "satisfied",
}

# |z| of the L1/R1 frequency against its analytic value 1/2 that a correct
# sampler exceeds with probability below 1e-6
ERASER_Z_MAX = 5.0
NORM_DRIFT_MAX = 1e-8


def _load(outdir: str, name: str):
    with open(os.path.join(outdir, name)) as fh:
        return json.load(fh)


def _count_lines(path: str) -> int:
    with open(path, "rb") as fh:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))


def digests(outdir: str) -> dict:
    """sha256 of every file under `outdir`, keyed by relative path."""
    out = {}
    for dirpath, _, files in os.walk(outdir):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, outdir)] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(out.items()))


def check_artifacts(outdir: str, schemas: dict, on_disk: dict) -> list[str]:
    """Problems with the manifest or the schema validity of emitted JSON.

    `on_disk` is ``digests(outdir)``; `schemas` is qfoundations.schemas.SCHEMAS.
    """
    import jsonschema

    if "manifest.json" not in on_disk:
        return ["no manifest.json"]
    problems = []
    for rel in on_disk:
        if not rel.endswith(".json"):
            continue
        schema = JSON_SCHEMAS.get(os.path.basename(rel))
        if schema is None:
            problems.append(f"{rel}: no schema known for this file")
            continue
        errors = list(jsonschema.Draft202012Validator(schemas[schema]).iter_errors(_load(outdir, rel)))
        if errors:
            problems.append(f"{rel}: invalid against schema {schema}: {errors[0].message}")
    manifest = _load(outdir, "manifest.json")
    listed = {entry["path"]: entry for entry in manifest["files"]}
    for rel in sorted(set(listed) ^ (set(on_disk) - {"manifest.json"})):
        problems.append(f"{rel}: {'missing on disk' if rel in listed else 'not in manifest'}")
    for rel, entry in listed.items():
        if rel in on_disk:
            if entry["sha256"] != on_disk[rel]:
                problems.append(f"{rel}: sha256 differs from manifest")
            if entry["bytes"] != os.path.getsize(os.path.join(outdir, rel)):
                problems.append(f"{rel}: size differs from manifest")
    return problems


def _check_claims(outdir: str, cfg: dict) -> list[str]:
    suite = _load(outdir, "claims_suite.json")
    problems = [] if suite["all_match"] is True else ["all_match is not true"]
    reports = {c["claim"]: c["report"] for c in suite["claims"]}
    got = {claim: report["verdict"] for claim, report in reports.items()}
    if len(suite["claims"]) != len(EXPECTED_VERDICTS) or set(got) != set(EXPECTED_VERDICTS):
        problems.append(f"claims are {sorted(got)}, expected {sorted(EXPECTED_VERDICTS)}")
    for claim, verdict in EXPECTED_VERDICTS.items():
        if claim in got and got[claim] != verdict:
            r = reports[claim]
            problems.append(f"claim {claim}: verdict {got[claim]}, expected {verdict} "
                            f"(statistic {r['statistic']:.6g}, threshold {r['threshold']:.6g})")
    return problems


def _check_eraser(outdir: str, cfg: dict) -> list[str]:
    n = cfg["trials"]
    joint = _load(outdir, "joint_frequencies.json")
    counts = {(e["left"], e["right"]): e["count"] for e in joint["entries"]}
    problems = []
    if joint["n"] != n:
        problems.append(f"n is {joint['n']}, expected {n}")
    for pair in (("L1", "R2"), ("L2", "R1")):
        if counts.get(pair, 0) != 0:
            problems.append(f"{pair[0]}/{pair[1]} count is {counts[pair]}, analytic probability is 0")
    if sum(counts.values()) != n:
        problems.append(f"counts sum to {sum(counts.values())}, expected {n}")
    z = abs(counts.get(("L1", "R1"), 0) / n - 0.5) / math.sqrt(0.25 / n)
    if z > ERASER_Z_MAX:
        problems.append(f"L1/R1 frequency is {z:.2f} standard errors from 1/2 (limit {ERASER_Z_MAX})")
    lines = _count_lines(os.path.join(outdir, "outcomes.csv"))
    if lines != n + 1:
        problems.append(f"outcomes.csv has {lines} lines, expected {n + 1}")
    return problems


def _check_pilot(outdir: str, cfg: dict) -> list[str]:
    report = _load(outdir, "equivariance_report.json")
    problems = []
    if report["verdict"] != "pass":
        problems.append(f"equivariance verdict is {report['verdict']} (KS statistic "
                        f"{report['statistic']:.6g}, threshold {report['threshold']:.6g})")
    if report["order_swaps"] != 0:
        problems.append(f"order_swaps is {report['order_swaps']}")
    if not report["norm_drift"] <= NORM_DRIFT_MAX:
        problems.append(f"norm_drift is {report['norm_drift']}, limit {NORM_DRIFT_MAX}")
    steps, every = cfg["steps"], cfg["save_every"]
    snapshots = 1 + steps // every + (1 if steps % every else 0)
    lines = _count_lines(os.path.join(outdir, "trajectories.csv"))
    if lines != cfg["trials"] * snapshots + 1:
        problems.append(f"trajectories.csv has {lines} lines, expected {cfg['trials'] * snapshots + 1}")
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple[str, ...]  # after `qfoundations run`; the harness adds seed, out and workers
    small_args: tuple[str, ...]  # the same scenario at a size for smoke tests
    work_unit: str
    work: Callable[[str, dict], float]  # (outdir, config) -> units of work done
    check: Callable[[str, dict], list[str]]  # (outdir, config) -> problems
    # per-layer metrics whose sum should exceed the given share of run_s
    profile: tuple[tuple[str, ...], float]


# Each workload is dominated by different layers (see README.md), so a change
# to one layer has a workload that exercises it and others that bypass it.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="claims",
            args=("claims_suite",),
            small_args=("claims_suite", "--trials", "20000"),
            work_unit="claims",
            work=lambda outdir, cfg: len(_load(outdir, "claims_suite.json")["claims"]),
            check=_check_claims,
            profile=(("inference.chsh_optimize.s", "inference.repeatability_test.s"), 0.5),
        ),
        Workload(
            name="eraser_mc",
            args=("eraser", "--mode", "montecarlo", "--trials", "250000"),
            small_args=("eraser", "--mode", "montecarlo", "--trials", "5000"),
            work_unit="runs",
            work=lambda outdir, cfg: cfg["trials"],
            check=_check_eraser,
            profile=(("circuit.run_dicts.s", "cli.self_s"), 0.8),
        ),
        Workload(
            name="pilot",
            args=("free_packet",),
            small_args=("free_packet", "--trials", "500", "--steps", "200"),
            work_unit="particle-steps",
            work=lambda outdir, cfg: cfg["trials"] * cfg["steps"],
            check=_check_pilot,
            profile=(
                ("pilotwave.integrate_trajectories.s", "pilotwave.check_noncrossing.s"),
                0.7,
            ),
        ),
    )
}
