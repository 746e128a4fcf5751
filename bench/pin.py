"""Pin the reference artifact digests that bench/run.py compares against.

    python3 bench/pin.py [--seeds 0 1 ...] [--workloads claims pilot ...]

Runs each workload once per seed, exactly as the benchmark does, and
records the sha256 of every file it writes in reference_digests.json.  A run
that fails the correctness gate is not pinned, and the exit code is then 1.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import REFERENCE_DIGESTS, WORK_DIR, load_schemas, run_once
from workloads import WORKLOADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    parser.add_argument("--workloads", nargs="+", choices=sorted(WORKLOADS), default=sorted(WORKLOADS))
    args = parser.parse_args(argv)

    schemas = load_schemas()
    pinned = json.loads(REFERENCE_DIGESTS.read_text())
    status = 0
    for name in args.workloads:
        workload = WORKLOADS[name]
        for seed in args.seeds:
            record = run_once(workload, workload.args, seed, WORK_DIR / name, f"{name}-{seed}-pin", False, schemas)
            if record["problems"]:
                print(f"{name} seed {seed} not pinned: {'; '.join(record['problems'])}", file=sys.stderr)
                status = 1
                continue
            pinned.setdefault(name, {})[str(seed)] = record["digests"]
            REFERENCE_DIGESTS.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
            print(f"pinned {name} seed {seed}: {len(record['digests'])} files")
    return status


if __name__ == "__main__":
    sys.exit(main())
