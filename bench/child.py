"""One benchmark run: a fresh interpreter that imports the package and runs one scenario.

    python3 bench/child.py RESULT_JSON SPANS_JSON|- SRC_DIR RUN_ID -- qfoundations-args...

Times the import of ``qfoundations.cli`` (setup) and the call to
``cli.main`` (run), and writes both with the exit code to RESULT_JSON.  With
a SPANS_JSON path it first wraps the public functions of the engine layers
(see spans.py) and writes the spans there after the run.  The caller times
the whole process from exec to exit and reads its peak memory.
"""

import json
import os
import sys
import time

WORK_COUNTS = {
    # runs sampled
    "circuit.sample_bohmian_runs": lambda result, args, kwargs: int(result.n),
    # dicts built
    "circuit.BohmianSample.run_dicts": lambda result, args, kwargs: len(result),
    # particle-steps: trajectories times steps
    "pilotwave.integrate_trajectories": lambda result, args, kwargs: int(
        result.positions.shape[1] * int(kwargs["steps"] if "steps" in kwargs else args[4])
    ),
    # bytes written
    "pilotwave.export_trajectories_csv": lambda result, args, kwargs: os.path.getsize(
        kwargs["path"] if "path" in kwargs else args[0]
    ),
}


def main(argv: list[str]) -> int:
    result_path, spans_path, src, run_id, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: child.py RESULT SPANS|- SRC RUN_ID -- ARGS...")
    src = os.path.realpath(src)
    sys.path.insert(0, src)

    t0 = time.perf_counter()
    import qfoundations.cli as cli

    setup_s = time.perf_counter() - t0
    import qfoundations

    package_file = os.path.realpath(qfoundations.__file__)
    if os.path.commonpath([package_file, src]) != src:
        raise SystemExit(f"imported {package_file}, which is not under {src}")

    entry = cli.main
    tracer = None
    if spans_path != "-":
        from qfoundations import circuit, hilbert, inference, pilotwave
        from spans import Tracer

        tracer = Tracer(run_id)
        tracer.install(
            {"hilbert": hilbert, "circuit": circuit, "inference": inference, "pilotwave": pilotwave},
            WORK_COUNTS,
        )
        entry = tracer.wrap("cli.main", cli.main)

    t0 = time.perf_counter()
    code = entry(cli_args)
    run_s = time.perf_counter() - t0

    with open(result_path, "w") as fh:
        json.dump({"run_id": run_id, "setup_s": setup_s, "run_s": run_s, "exit_code": code,
                   "package_file": package_file}, fh)
    if tracer is not None:
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
