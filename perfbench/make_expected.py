"""Write expected.json: the final values each workload's command produces,
for every instance seed, as the benchmark's correctness checks compare them.

    python3 perfbench/make_expected.py

Run from the root of a checkout whose outputs are known to be right; a
command whose own checks fail is reported and its values are not stored.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import EXPECTED, WORK, ROOT, Capture, import_cli, run_command
from workloads import N_INSTANCE_SEEDS, WORKLOADS, seed_key


def main() -> int:
    cli = import_cli()
    expected, bad = {}, 0
    for workload in WORKLOADS.values():
        expected[workload.name] = {}
        seeds = range(N_INSTANCE_SEEDS) if workload.seeded else [None]
        for seed in seeds:
            work = WORK / "make_expected"
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            argv = workload.write_files(work, seed, ROOT)
            outcome, wall = run_command(cli, argv, work / "out", Capture())
            problems = workload.check(outcome)
            print(f"{workload.name} seed {seed}: {wall:.2f} s "
                  f"{'; '.join(problems) or 'ok'}", flush=True)
            if problems:
                bad += 1
                continue
            expected[workload.name][seed_key(seed)] = workload.finals(outcome)
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
