"""End-to-end command tests: artifacts, schemas, determinism, exit codes."""

import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfoundations import circuit, cli, pilotwave, schemas, svgplot
from qfoundations.cli import _CSV_CHUNK_ROWS, _NYQUIST_SPREADS, main
from qfoundations.streams import IDX_ERASER_A, stream


def _validate(path, schema_name):
    with open(path) as fh:
        payload = json.load(fh)
    jsonschema.Draft202012Validator(schemas.SCHEMAS[schema_name]).validate(payload)
    return payload


def _sha(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# ---------------------------------------------------------------------------
# verbs and usage


def test_schema_verb(capsys):
    assert main(["schema"]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert set(printed) == set(schemas.SCHEMAS)
    assert main(["schema", "manifest"]) == 0
    single = json.loads(capsys.readouterr().out)
    assert single["type"] == "object"


def test_docs_schemas_match_module():
    docs = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "docs", "schemas")
    on_disk = {}
    for fname in os.listdir(docs):
        if fname.endswith(".json"):
            with open(os.path.join(docs, fname)) as fh:
                on_disk[fname[: -len(".json")]] = json.load(fh)
    assert sorted(on_disk) == sorted(schemas.SCHEMAS)
    for name, schema in schemas.SCHEMAS.items():
        assert on_disk[name] == schema, name


def test_usage_errors_exit_one(capsys):
    assert main([]) == 1
    assert main(["run", "unknown_scenario"]) == 1
    assert main(["run", "eraser", "--no-such-flag"]) == 1
    assert main(["schema", "nope"]) == 1
    capsys.readouterr()


# ---------------------------------------------------------------------------
# eraser scenario


def test_eraser_analytic_artifacts(tmp_path, capsys):
    out = tmp_path / "eraser"
    code = main(["run", "eraser", "--out", str(out), "--format", "json,csv,svg"])
    assert code == 0
    capsys.readouterr()

    joint = _validate(out / "joint_distribution.json", "joint_distribution")
    assert joint["mode"] == "analytic"
    probs = {(e["left"], e["right"]): e["probability"] for e in joint["entries"]}
    assert probs[("L1", "R1")] == 0.5 and probs[("L2", "R2")] == 0.5
    assert any(e.get("exact") == "1/2" for e in joint["entries"])

    transport = _validate(out / "transport_distribution.json", "joint_distribution")
    moved = {(e["left"], e["right"]): e["probability"] for e in transport["entries"]}
    # transport only lists reachable outcomes; absences must be Born zeros
    for key, p in probs.items():
        assert moved.get(key, 0.0) == p

    assert (out / "joint_distribution.csv").exists()
    assert (out / "records.svg").read_text().startswith("<svg")

    manifest = _validate(out / "manifest.json", "manifest")
    listed = {e["path"]: e for e in manifest["files"]}
    for name in ("joint_distribution.json", "transport_distribution.json",
                 "joint_distribution.csv", "records.svg"):
        assert _sha(out / name) == listed[name]["sha256"]
    assert manifest["config"]["scenario"] == "eraser"


def test_eraser_emitted_json_is_canonical(tmp_path, capsys):
    out = tmp_path / "eraser"
    assert main(["run", "eraser", "--out", str(out), "--format", "json"]) == 0
    capsys.readouterr()
    raw = (out / "joint_distribution.json").read_text()
    payload = json.loads(raw)
    assert raw == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_eraser_montecarlo_worker_independence(tmp_path, capsys):
    args = ["run", "eraser", "--mode", "montecarlo", "--trials", "25000",
            "--seed", "5", "--format", "json,csv"]
    outs = {}
    for workers in (1, 4):
        out = tmp_path / f"w{workers}"
        code = main(args + ["--out", str(out), "--workers", str(workers)])
        assert code == 0
        outs[workers] = out
    capsys.readouterr()

    for name in ("joint_frequencies.json", "path_records.json", "outcomes.csv"):
        assert (outs[1] / name).read_bytes() == (outs[4] / name).read_bytes(), name

    freq = _validate(outs[1] / "joint_frequencies.json", "joint_distribution")
    assert freq["n"] == 25000
    total = sum(e["count"] for e in freq["entries"])
    assert total == 25000
    records = _validate(outs[1] / "path_records.json", "path_records")
    assert 0 < len(records) <= 500

    # full rerun with identical arguments is byte-identical, manifest included
    repeat = tmp_path / "w1_again"
    assert main(args + ["--out", str(repeat), "--workers", "1"]) == 0
    capsys.readouterr()
    for name in ("joint_frequencies.json", "path_records.json", "outcomes.csv"):
        assert (outs[1] / name).read_bytes() == (repeat / name).read_bytes()
    m1 = json.loads((outs[1] / "manifest.json").read_text())
    m2 = json.loads((repeat / "manifest.json").read_text())
    m1["config"].pop("out"), m2["config"].pop("out")
    assert m1 == m2


@pytest.mark.parametrize("n", [1, _CSV_CHUNK_ROWS - 1, _CSV_CHUNK_ROWS, _CSV_CHUNK_ROWS + 1])
def test_eraser_outcomes_csv_whole_at_chunk_edges(n, tmp_path, capsys):
    out = tmp_path / "mc"
    code = main(["run", "eraser", "--mode", "montecarlo", "--trials", str(n), "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    raw = (out / "outcomes.csv").read_bytes()
    assert raw.endswith(b"\n")
    lines = raw.split(b"\n")[:-1]
    assert len(lines) == n + 1
    assert lines[-1].split(b",")[0] == str(n - 1).encode()
    manifest = json.loads((out / "manifest.json").read_text())
    for entry in manifest["files"]:
        blob = (out / entry["path"]).read_bytes()
        assert entry["sha256"] == hashlib.sha256(blob).hexdigest(), entry["path"]
        assert entry["bytes"] == len(blob), entry["path"]


@pytest.mark.parametrize("n", [10000, 10001, 32769])
def test_eraser_montecarlo_digests_do_not_depend_on_workers(n, tmp_path, capsys):
    # n sits at the sampler's 10 000-run chunk edges
    digests = {}
    for workers in (1, 2, 3):
        out = tmp_path / f"w{workers}"
        code = main(["run", "eraser", "--mode", "montecarlo", "--trials", str(n), "--seed", "3",
                     "--format", "json,csv,svg", "--workers", str(workers), "--out", str(out)])
        assert code == 0
        digests[workers] = json.loads((out / "manifest.json").read_text())["files"]
    capsys.readouterr()
    assert len(digests[1]) == 4
    assert digests[1] == digests[2] == digests[3]


@pytest.mark.parametrize("workers", [1, 2])
def test_eraser_montecarlo_failing_chunk_exits_two_without_manifest(
    workers, tmp_path, capsys, monkeypatch
):
    draw = circuit.sample_bohmian_runs

    def second_chunk_fails(*args, stream_index, **kwargs):
        if stream_index == IDX_ERASER_A + 1:
            raise RuntimeError("second chunk failed")
        return draw(*args, stream_index=stream_index, **kwargs)

    monkeypatch.setattr(circuit, "sample_bohmian_runs", second_chunk_fails)
    out = tmp_path / "mc"
    code = main(["run", "eraser", "--mode", "montecarlo", "--trials", "30000",
                 "--workers", str(workers), "--out", str(out)])
    assert code == 2
    assert "runtime failure: RuntimeError: second chunk failed" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()
    # the first chunk's rows were written before the failure; none may remain
    assert not (out / "outcomes.csv").exists()


def test_failed_run_removes_the_stale_manifest_and_every_file_it_started(
    tmp_path, capsys, monkeypatch
):
    out = tmp_path / "shared"
    assert main(["run", "eraser", "--format", "json,csv,svg", "--out", str(out)]) == 0
    earlier = {p.name: p.read_bytes() for p in out.iterdir()}
    draw = circuit.sample_bohmian_runs

    def second_chunk_fails(*args, stream_index, **kwargs):
        if stream_index == IDX_ERASER_A + 1:
            raise RuntimeError("second chunk failed")
        return draw(*args, stream_index=stream_index, **kwargs)

    monkeypatch.setattr(circuit, "sample_bohmian_runs", second_chunk_fails)
    code = main(["run", "eraser", "--mode", "montecarlo", "--trials", "30000",
                 "--format", "json,csv,svg", "--out", str(out)])
    assert code == 2
    assert "second chunk failed" in capsys.readouterr().err
    # the earlier manifest listed records.svg, which the failed run overwrote
    # before it removed it with path_records.json and outcomes.csv
    left = {p.name: p.read_bytes() for p in out.iterdir()}
    assert sorted(left) == ["joint_distribution.csv", "joint_distribution.json",
                            "transport_distribution.json"]
    assert all(left[name] == earlier[name] for name in left)


def test_payloads_of_filtered_out_formats_are_never_built(tmp_path, capsys, monkeypatch):
    def unbuilt(*args, **kwargs):
        raise AssertionError("built a payload that the format filter drops")

    for name in ("_outcome_rows", "_trajectory_rows", "_trajectory_svg"):
        monkeypatch.setattr(cli, name, unbuilt)
    monkeypatch.setattr(svgplot, "render_eraser_records", unbuilt)
    mc, grid = tmp_path / "mc", tmp_path / "grid"
    assert main(["run", "eraser", "--mode", "montecarlo", "--trials", "25000",
                 "--format", "json", "--out", str(mc)]) == 0
    assert main(["run", "free_packet", "--trials", "20", "--steps", "20",
                 "--format", "json", "--out", str(grid)]) == 0
    capsys.readouterr()
    assert sorted(os.listdir(mc)) == ["joint_frequencies.json", "manifest.json", "path_records.json"]
    assert sorted(os.listdir(grid)) == ["equivariance_report.json", "manifest.json"]
    assert json.loads((mc / "joint_frequencies.json").read_text())["n"] == 25000


def _tree(out):
    found = {}
    for root, _, names in os.walk(out):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                found[os.path.relpath(path, out)] = fh.read()
    return found


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 40000), workers=st.sampled_from([2, 3]))
def test_eraser_montecarlo_bytes_do_not_depend_on_workers_at_any_n(n, workers):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        trees = []
        for w in (1, workers):
            args = ["run", "eraser", "--mode", "montecarlo", "--trials", str(n), "--seed", "11",
                    "--format", "json,csv,svg", "--workers", str(w), "--out", out]
            assert main(args) == 0
            trees.append(_tree(out))
    one, many = trees
    # the manifest records the config, so its worker count is the one byte
    # that may differ
    recorded = f'"workers": {workers}\n'.encode()
    assert recorded in many["manifest.json"]
    many["manifest.json"] = many["manifest.json"].replace(recorded, b'"workers": 1\n')
    assert sorted(one) == sorted(many)
    for name in one:
        assert one[name] == many[name], name


def test_eraser_montecarlo_memory_does_not_grow_with_runs(tmp_path, capsys):
    def traced_peak(n):
        args = ["run", "eraser", "--mode", "montecarlo", "--trials", str(n),
                "--out", str(tmp_path / str(n))]
        tracemalloc.start()
        try:
            assert main(args) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # a first run keeps imports and one-time caches out of both peaks
    traced_peak(10)
    # both sizes draw 10 000-run chunks; only the number of chunks differs
    small, large = traced_peak(100_000), traced_peak(250_000)
    capsys.readouterr()
    assert large <= 1.1 * small, (small, large)


_FAULTS_PER_ERASER_CHUNK = """
import contextlib, io, resource, tempfile
from qfoundations.cli import main

def faults(trials):
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        main(["run", "eraser", "--mode", "montecarlo", "--trials", str(trials),
              "--format", "json", "--out", out])
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

faults(10000)
print((faults(500000) - faults(250000)) / 25)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="minor-fault counts are read on Linux")
def test_eraser_montecarlo_chunks_do_not_fault_in_fresh_memory():
    # 250 000 and 500 000 runs draw 25 and 50 chunks of 10 000; the extra 25
    # chunks must not each fault in hundreds of fresh pages, as a transport
    # that held an (n, 2, 2) complex state per chunk did.  A fresh
    # interpreter with the allocator at its defaults counts the faults.
    src = os.path.dirname(os.path.dirname(os.path.abspath(circuit.__file__)))
    env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
    env["PYTHONPATH"] = src
    out = subprocess.run(
        [sys.executable, "-c", _FAULTS_PER_ERASER_CHUNK],
        env=env, capture_output=True, text=True, check=True,
    )
    per_chunk = float(out.stdout)
    assert per_chunk < 200, f"{per_chunk} extra minor faults per chunk"


def test_eraser_setting_flags(tmp_path, capsys):
    out = tmp_path / "wp"
    code = main(["run", "eraser", "--out", str(out), "--left", "whichpath",
                 "--right", "interference", "--right-acts-first",
                 "--format", "json"])
    assert code == 0
    capsys.readouterr()
    joint = _validate(out / "joint_distribution.json", "joint_distribution")
    names = {(e["left"], e["right"]) for e in joint["entries"]}
    assert names == {(l, r) for l in ("L3", "L4") for r in ("R1", "R2")}
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["right_acts_first"] is True


# ---------------------------------------------------------------------------
# grid scenarios


def test_eraser_analytic_theta_on_the_pi_grid_is_exact(tmp_path, capsys):
    # pi/8 to 13 digits lies within 1e-12 of the pi-fraction 1/8
    out = tmp_path / "eighth"
    code = main(["run", "eraser", "--theta", "0.3926990816987", "--right", "whichpath",
                 "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    joint = _validate(out / "joint_distribution.json", "joint_distribution")
    exact = {(e["left"], e["right"]): e["exact"] for e in joint["entries"]}
    # cos^2(pi/8) / 2 and sin^2(pi/8) / 2
    assert exact == {
        ("L1", "R3"): "1/4 - sqrt(2)/8",
        ("L1", "R4"): "sqrt(2)/8 + 1/4",
        ("L2", "R3"): "sqrt(2)/8 + 1/4",
        ("L2", "R4"): "1/4 - sqrt(2)/8",
    }
    for e in joint["entries"]:
        want = 0.25 + (0.25 if e["exact"].startswith("sqrt") else -0.25) * 2 ** 0.5 / 2
        assert abs(e["probability"] - want) < 1e-15


def test_eraser_analytic_theta_off_the_pi_grid_exits_one(tmp_path, capsys):
    out = tmp_path / "off"
    code = main(["run", "eraser", "--theta", "0.3", "--right", "whichpath", "--out", str(out)])
    assert code == 1
    assert "$.theta" in capsys.readouterr().err
    assert not (out / "joint_distribution.json").exists()
    # Monte Carlo takes any angle
    code = main(["run", "eraser", "--theta", "0.3", "--mode", "montecarlo", "--trials", "100",
                 "--out", str(tmp_path / "mc")])
    assert code == 0
    capsys.readouterr()


def test_import_leaves_sympy_unloaded():
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    probe = "import sys, qfoundations.cli; print('sympy' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    )
    assert done.stdout.strip() == "False"


_LOADED_BY_RUNS = """
import json, sys, tempfile
from qfoundations import cli
runs = (["claims_suite", "--trials", "20000"], ["eraser", "--mode", "montecarlo", "--trials", "5000"],
        ["free_packet", "--trials", "200", "--steps", "100"])
with tempfile.TemporaryDirectory() as out:
    for args in runs:
        if cli.main(["run", *args, "--workers", "1", "--out", f"{out}/{args[0]}"]) != 0:
            sys.exit(f"run failed: {args}")
print(json.dumps([m for m in ("jsonschema", "numpy.ma", "concurrent.futures") if m in sys.modules]))
"""


def test_runs_at_one_worker_load_no_validator_masked_arrays_or_thread_pool():
    # each costs import time and memory that a run at one worker never uses
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    done = subprocess.run(
        [sys.executable, "-c", _LOADED_BY_RUNS], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    )
    assert json.loads(done.stdout.splitlines()[-1]) == []


def test_module_run_writes_nothing_to_stderr(tmp_path):
    # `python -m qfoundations.cli` must not find the cli module imported
    # already by the package, which makes runpy warn on every run
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    done = subprocess.run(
        [sys.executable, "-m", "qfoundations.cli", "run", "repeatability", "--trials", "50",
         "--out", str(tmp_path / "rep")],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""


def test_free_packet_scenario_small(tmp_path, capsys):
    out = tmp_path / "fp"
    code = main(["run", "free_packet", "--out", str(out), "--trials", "50",
                 "--steps", "40", "--save-every", "20",
                 "--format", "json,csv,svg"])
    assert code == 0
    capsys.readouterr()

    report = _validate(out / "equivariance_report.json", "equivariance_report")
    assert report["verdict"] == "pass"
    assert report["n"] == 50
    assert report["order_swaps"] == 0
    assert report["norm_drift"] < 1e-8
    assert abs(report["final_time"] - 40 * 0.001) < 1e-12

    traj = (out / "trajectories.csv").read_text().splitlines()
    assert traj[0] == "trajectory_id,time,q1"
    waves = sorted((out / "wavefunctions").iterdir())
    assert len(waves) == 3  # saved steps 0, 20, 40
    assert (out / "trajectories.svg").read_text().startswith("<svg")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["eraser", "--theta", "0.3"], "config error at $.theta: 0.3 is not k*pi/q"),
        (["bell_chsh", "--mode", "montecarlo", "--trials", "1"],
         "config error at $.trials: 1 is too few"),
        (["free_packet", "--mode", "analytic"], "scenario free_packet has no analytic mode"),
        (["free_packet", "--sigma", "0.03"],
         "config error at $.sigma: 0.03 under-resolves the packet on this grid: "
         "the rule is 5/(2*width) <= pi/dq"),
        (["double_slit", "--sigma", "0.01"], "config error at $.sigma: 0.01 under-resolves"),
        (["harmonic", "--omega", "5000"],
         "config error at $.omega: 5000.0 under-resolves the packet on this grid: "
         "the rule is 5/(2*width) <= pi/dq (the Nyquist wavenumber), "
         "with width = sqrt(1/(2*omega)) = 0.01"),
        # a key that the scenario never reads
        (["eraser", "--sigma", "5"], "('sigma' was unexpected)"),
        (["eraser", "--mode", "montecarlo", "--trials", "10", "--dt", "7"], "('dt' was unexpected)"),
        (["repeatability", "--theta", "0.3"], "('theta' was unexpected)"),
        (["bell_chsh", "--npoints", "99"], "('npoints' was unexpected)"),
        (["claims_suite", "--left", "whichpath"], "('left' was unexpected)"),
        (["free_packet", "--x0", "1000"], "('x0' was unexpected)"),
        # a value that an engine's own rule refuses
        (["free_packet", "--dt", "1"], "config error at $.dt: dt = 1.0 exceeds the kinetic stability bound"),
        (["harmonic", "--dt", "0.002"], "config error at $.dt: dt = 0.002 exceeds the potential stability bound"),
        (["free_packet", "--npoints", "100"], "config error at $.npoints: npoints must be a power of two"),
        (["free_packet", "--qmin", "5", "--qmax", "-5"], "config error at $.qmax: axis needs qmax > qmin"),
        (["double_slit", "--separation", "1000"], "config error at $.separation: profile leaks"),
        (["harmonic", "--x0", "11"], "config error at $.x0: profile leaks"),
        (["free_packet", "--sigma", "1e300"], "config error at $.sigma: profile leaks"),
        (["double_slit", "--npoints", "4096"], "config error at $.dt: dt = 0.0008 exceeds the kinetic"),
        # the CHSH table of more steps would not fit in 100 MB
        (["bell_chsh", "--grid-step-count", "45"], "config error at $.grid_step_count: 45 is greater than"),
        (["bell_chsh", "--grid-step-count", "100000"],
         "config error at $.grid_step_count: 100000 is greater than the maximum of 44"),
        (["bell_chsh", "--grid-step-count", "10000000000000"], "config error at $.grid_step_count"),
        (["harmonic", "--omega", "1e200", "--qmin=-1e-99", "--qmax", "1e-99", "--x0", "0",
          "--npoints", "64"], "config error at $.omega: omega**2 overflows a double at omega = 1e+200"),
    ],
    ids=["analytic_theta", "montecarlo_chsh_trials", "analytic_grid", "free_packet_sigma",
         "double_slit_sigma", "harmonic_omega", "eraser_sigma", "eraser_montecarlo_dt",
         "repeatability_theta", "bell_chsh_npoints", "claims_suite_left", "free_packet_x0",
         "free_packet_dt", "harmonic_dt", "free_packet_npoints", "free_packet_qmax_below_qmin",
         "double_slit_separation", "harmonic_x0", "free_packet_wide_sigma", "double_slit_npoints",
         "bell_chsh_above_maximum", "bell_chsh_grid_step_count", "bell_chsh_zero_step",
         "harmonic_potential_overflow"],
)
def test_refused_run_writes_no_output_directory(tmp_path, capsys, argv, message):
    out = tmp_path / "refused"
    assert main(["run", *argv, "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("scale, code", [(1 - 1e-9, 1), (1 + 1e-9, 0)])
def test_under_resolved_packet_is_refused_at_the_nyquist_rule(tmp_path, capsys, scale, code):
    # free_packet's default grid: 512 points on [-24, 24]
    dq = 48.0 / 512
    sigma = scale * _NYQUIST_SPREADS * dq / (2 * math.pi)
    out = tmp_path / "packet"
    assert main(["run", "free_packet", "--sigma", repr(sigma), "--trials", "10",
                 "--steps", "5", "--out", str(out)]) == code
    assert ("under-resolves" in capsys.readouterr().err) == (code == 1)
    assert out.exists() == (code == 0)


def test_grid_scenario_rejects_analytic_mode(tmp_path, capsys):
    code = main(["run", "free_packet", "--out", str(tmp_path / "x"),
                 "--mode", "analytic"])
    assert code == 1
    assert "no analytic mode" in capsys.readouterr().err


def test_unstable_dt_exits_one(tmp_path, capsys):
    # the engine's own stability rule, applied to the config before the run
    code = main(["run", "free_packet", "--out", str(tmp_path / "x"),
                 "--trials", "10", "--dt", "1.0", "--steps", "5"])
    assert code == 1
    err = capsys.readouterr().err
    assert "config error at $.dt: dt = 1.0 exceeds the kinetic stability bound" in err
    assert "runtime failure" not in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("flag", ["--dt", "--sigma"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_config_number_exits_one(tmp_path, capsys, flag, value):
    code = main(["run", "free_packet", "--out", str(tmp_path / "x"),
                 "--trials", "10", "--steps", "5", flag, value])
    assert code == 1
    field = flag.lstrip("-")
    assert f"$.{field}: {value} is not a finite number" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_non_finite_number_in_config_file_exits_one(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"omega": NaN}')
    code = main(["run", "harmonic", "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert code == 1
    assert "$.omega: nan is not a finite number" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# repeatability and bell scenarios


def test_repeatability_scenario(tmp_path, capsys):
    out = tmp_path / "rep"
    # zero flips bless repeatability from 1937 trials on
    code = main(["run", "repeatability", "--out", str(out), "--trials", "2000"])
    assert code == 0
    capsys.readouterr()
    with_c = _validate(out / "repeatability_with_collapse.json", "test_report")
    without = _validate(out / "repeatability_without_collapse.json", "test_report")
    assert with_c["verdict"] == "satisfied" and with_c["statistic"] == 0.0
    assert without["verdict"] == "violated"
    assert abs(without["statistic"] - 0.5) < 0.1
    assert (out / "repeatability.csv").exists()


def test_bell_scenario(tmp_path, capsys):
    out = tmp_path / "bell"
    code = main(["run", "bell_chsh", "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    res = _validate(out / "chsh_result.json", "chsh_result")
    assert abs(res["s_max"] - 2 * 2 ** 0.5) < 1e-9
    assert res["local_model_max"] == 2.0
    assert res["exact_value"] == "2*sqrt(2)"
    assert (out / "chsh_summary.csv").exists()


def test_bell_montecarlo_needs_two_trials(tmp_path, capsys):
    # one trial per setting has no sample variance: it once wrote a NaN
    # standard error, which is not JSON
    out = tmp_path / "one"
    code = main(["run", "bell_chsh", "--mode", "montecarlo", "--trials", "1", "--out", str(out)])
    assert code == 1
    assert "config error at $.trials" in capsys.readouterr().err
    assert not (out / "chsh_result.json").exists()
    out = tmp_path / "two"
    code = main(["run", "bell_chsh", "--mode", "montecarlo", "--trials", "2", "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    res = _validate(out / "chsh_result.json", "chsh_result")
    assert math.isfinite(res["monte_carlo"]["standard_error"])


def test_free_packet_equivariance_holds_from_start_to_end(tmp_path, capsys):
    # a seed that failed while the sampler sat half a cell off |psi|^2: an
    # exact transport keeps the end-time KS statistic at its t = 0 value
    seed = 1231908698
    out = tmp_path / "free"
    assert main(["run", "free_packet", "--seed", str(seed), "--format", "json", "--out", str(out)]) == 0
    capsys.readouterr()
    end = _validate(out / "equivariance_report.json", "equivariance_report")
    assert end["verdict"] == "pass"
    # the free_packet defaults and the scenario's sampling stream
    grid = pilotwave.GridSpec.make((-24.0, 24.0, 512))
    psi0 = pilotwave.init_wavefunction(
        grid, pilotwave.GaussianProfile(center=(0.0,), width=(1.0,), momentum=(0.0,))
    )
    start = pilotwave.check_equivariance(
        pilotwave.sample_equilibrium(psi0, end["n"], stream(seed, 0)), psi0
    )
    assert abs(end["statistic"] - start.statistic) < 1e-3


def test_a_1d_crossing_makes_the_verdict_invalid(tmp_path, capsys):
    # the packet spreads to the grid's edge by T = 2 and one pair of
    # trajectories swaps order, while under 1% of them are absorbed
    out = tmp_path / "crossing"
    assert main(["run", "free_packet", "--sigma", "0.075", "--trials", "2000",
                 "--format", "json", "--out", str(out)]) == 0
    capsys.readouterr()
    report = _validate(out / "equivariance_report.json", "equivariance_report")
    assert report["order_swaps"] == 1
    assert 0 < report["n_absorbed"] <= 0.01 * 2000
    assert report["verdict"] == "invalid"


# ---------------------------------------------------------------------------
# config handling


def test_config_file_then_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "repeatability", "trials": 64, "seed": 3}))
    out = tmp_path / "rep"
    code = main(["run", "repeatability", "--config", str(cfg),
                 "--trials", "32", "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["trials"] == 32  # flag beats file
    assert manifest["config"]["seed"] == 3  # file beats default
    assert manifest["config"]["mode"] == "montecarlo"  # untouched default


def test_config_scenario_mismatch(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "repeatability"}))
    code = main(["run", "eraser", "--config", str(cfg)])
    assert code == 1
    assert "repeatability" in capsys.readouterr().err


def test_config_schema_violation_reports_path(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trials": -5}))
    code = main(["run", "repeatability", "--config", str(cfg)])
    assert code == 1
    err = capsys.readouterr().err
    assert "config error at" in err and "trials" in err


def test_config_key_no_scenario_reads_is_refused(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"collapse": False}))
    code = main(["run", "repeatability", "--config", str(cfg), "--out", str(tmp_path / "rep")])
    assert code == 1
    assert "'collapse' was unexpected" in capsys.readouterr().err
    assert not (tmp_path / "rep").exists()


def test_integral_float_for_an_integer_key_runs_as_an_int(tmp_path, capsys):
    # JSON Schema counts 256.0 an integer; GridAxis once raised TypeError on it
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"npoints": 256.0, "trials": 10.0, "steps": 4.0, "save_every": 2.0}))
    out = tmp_path / "fp"
    assert main(["run", "free_packet", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert [config[k] for k in ("npoints", "trials", "steps", "save_every")] == [256, 10, 4, 2]
    assert all(type(config[k]) is int for k in ("npoints", "trials", "steps", "save_every"))


def test_config_malformed_json(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{\"trials\": }")
    code = main(["run", "repeatability", "--config", str(cfg)])
    assert code == 1
    err = capsys.readouterr().err
    assert "line 1" in err

    cfg.write_text("[1, 2]")
    assert main(["run", "repeatability", "--config", str(cfg)]) == 1
    assert "JSON object" in capsys.readouterr().err

    code = main(["run", "repeatability", "--config", str(tmp_path / "absent.json")])
    assert code == 1
    assert "cannot read" in capsys.readouterr().err


def test_blocked_output_directory_exits_two(tmp_path, capsys):
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    code = main(["run", "repeatability", "--out", str(blocker), "--trials", "10"])
    assert code == 2
    assert "cannot create output directory" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# plot verb


def test_plot_trajectory_csv_and_records_json(tmp_path, capsys):
    grid_out = tmp_path / "fp"
    assert main(["run", "free_packet", "--out", str(grid_out), "--trials", "20",
                 "--steps", "20", "--save-every", "10"]) == 0
    svg = tmp_path / "traj.svg"
    assert main(["plot", str(grid_out / "trajectories.csv"), "--out", str(svg)]) == 0
    assert svg.read_text().startswith("<svg")

    mc_out = tmp_path / "mc"
    assert main(["run", "eraser", "--mode", "montecarlo", "--trials", "50",
                 "--out", str(mc_out)]) == 0
    default_target = mc_out / "path_records.svg"
    assert main(["plot", str(mc_out / "path_records.json")]) == 0
    assert default_target.read_text().startswith("<svg")
    capsys.readouterr()


def test_plot_failures(tmp_path, capsys):
    assert main(["plot", str(tmp_path / "missing.csv")]) == 2
    note = tmp_path / "note.txt"
    note.write_text("not plottable")
    assert main(["plot", str(note)]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"not": "records"}))
    assert main(["plot", str(bad)]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# claims suite


def test_claims_suite_starved_trials_exits_three(tmp_path, capsys):
    out = tmp_path / "claims"
    code = main(["run", "claims_suite", "--out", str(out), "--trials", "4"])
    assert code == 3
    err = capsys.readouterr().err
    assert "mismatch" in err.lower()
    payload = _validate(out / "claims_suite.json", "claims_suite")
    assert payload["all_match"] is False
    mismatched = [c for c in payload["claims"] if not c["matches"]]
    assert mismatched
    # starved monte-carlo claims must degrade to inconclusive, never to a
    # confidently wrong verdict
    for c in mismatched:
        if c["report"]["mode"] == "monte-carlo" and c["report"]["n"] <= 4:
            assert c["report"]["verdict"] == "inconclusive"
    assert (out / "manifest.json").exists()


def test_claims_suite_whose_conditioning_event_never_occurs_exits_three(tmp_path, capsys):
    # one run at seed 7 never shows L1, so the Monte-Carlo local-causality
    # claim has no evidence: inconclusive, not a runtime failure
    out = tmp_path / "claims"
    assert main(["run", "claims_suite", "--out", str(out), "--trials", "1"]) == 3
    assert "runtime failure" not in capsys.readouterr().err
    payload = _validate(out / "claims_suite.json", "claims_suite")
    (report,) = [c["report"] for c in payload["claims"]
                 if c["report"]["test"] == "local_causality" and c["report"]["mode"] == "monte-carlo"]
    assert report["details"]["n_b"] == 0
    assert report["verdict"] == "inconclusive" and report["statistic"] == 0.0
