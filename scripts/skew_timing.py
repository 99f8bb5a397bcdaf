"""Cold and in-process cost of the skew Proj CLI calls, per job.

Run as `PYTHONPATH=src python scripts/skew_timing.py [--rounds R]` from the
repository root.  The jobs and their input documents are the thirteen
`cli-skewproj` shapes of `perfbench/pool.py`, written once to a temporary
directory.  Each round times every job twice, each time with empty caches:
cold, as a fresh `python -m ncspec.cli` process from spawn to exit, and in
process, as one `cli.main` call right after `sheafspec.clear_caches()`,
with its report sent to a null stream.  Each round prints the milliseconds
of both per job, and the last line is the per-job medians over the rounds,
with the median job and the pool sum of each kind, as JSON.
"""

import argparse
import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench.pool import SKEW_JOBS, write_docs  # noqa: E402

from ncspec import cli, sheafspec  # noqa: E402


def cold_ms(argv, env):
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-m", "ncspec.cli", *argv], env=env,
                   stdout=subprocess.DEVNULL, check=False)
    return (time.perf_counter() - t0) * 1e3


def warm_ms(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        cli.main(argv)
        return (time.perf_counter() - t0) * 1e3


def summary(times):
    per_job = {key: round(statistics.median(ts), 2) for key, ts in times.items()}
    return {"jobs": per_job, "median_job": round(statistics.median(per_job.values()), 2),
            "pool_sum": round(sum(per_job.values()), 2)}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--rounds", type=int, default=7)
    args = ap.parse_args()
    # the child imports the same ncspec as this process
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    cold = {job.key: [] for job in SKEW_JOBS}
    warm = {job.key: [] for job in SKEW_JOBS}
    with tempfile.TemporaryDirectory() as tmp:
        docdir = Path(tmp)
        write_docs(docdir)
        for i in range(args.rounds):
            for job in SKEW_JOBS:
                argv = job.argv(docdir)
                cold[job.key].append(cold_ms(argv, env))
                sheafspec.clear_caches()
                warm[job.key].append(warm_ms(argv))
                print(f"round {i}: {job.key}: cold {cold[job.key][-1]:.1f} ms, "
                      f"in process {warm[job.key][-1]:.1f} ms")
    print(json.dumps({"cold_ms": summary(cold), "in_process_ms": summary(warm)}))


if __name__ == "__main__":
    main()
