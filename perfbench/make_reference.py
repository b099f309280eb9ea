"""Write reference.json: summaries of each workload's outputs on the default seed.

    python3 perfbench/make_reference.py

Run from the root of a checkout whose outputs are known to be right.  Each
workload's job runs once and must pass its own check first.
"""

import json
import os
import shutil
import sys
import tempfile

import run
import workloads

# Relative tolerance per workload.  The fd-check errors are differences of
# nearly equal solves, so they carry round-off at the 1e-3 level; the other
# outputs are direct solver results.
RTOL = {"control-1d": 1e-6, "grid-2d": 1e-8, "picard-fd-1d": 1e-2, "hyst-csv": 1e-9}
ATOL_SCALE = 1e-9  # absolute floor, as a share of the largest reference value


def main():
    stopsim = run._import_stopsim()
    os.makedirs(run.WORK_ROOT, exist_ok=True)
    reference = {}
    for name, workload in workloads.WORKLOADS.items():
        work_dir = tempfile.mkdtemp(prefix=f"{name}-", dir=run.WORK_ROOT)
        try:
            argv = workloads.generate(workload, workloads.DEFAULT_SEED, work_dir)
            out_dir = os.path.join(work_dir, "out")
            _, problem = run.run_job(stopsim.cli, argv, out_dir)
            problems = [problem] if problem else workload.check(work_dir, out_dir)
            if problems:
                sys.exit(f"{name}: {problems}")
            reference[name] = {"rtol": RTOL[name], "atol_scale": ATOL_SCALE,
                               "values": workload.summary(out_dir)}
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
    os.rmdir(run.WORK_ROOT)
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {run.REFERENCE}")


if __name__ == "__main__":
    main()
