#!/usr/bin/env python3
"""The ncspec benchmark.

Run from the root of a checkout (the library is taken from `src/`):

    python3 perfbench/run.py --workload cli-finite --seed 1 --seconds 30 --trace 0

prints every end-to-end metric of the workload with its unit and a
per-job breakdown, checks every output against the oracle in `pool.py`,
and ends with one JSON line: `correct`, `attempted`, `failed`, `metrics`.
`--trace 1` instead runs every job both untraced and traced, checks the
two outputs are identical, and reports the per-layer metrics.  Other modes:

    python3 perfbench/run.py --steady --workload W --runs 10 --seconds 30
    python3 perfbench/run.py --record

`--steady` runs the benchmark once per seed and prints each end-to-end
metric's quartile spread against its bound in BENCHMARK.json.  `--record`
rewrites `expected.json` from the current library; use it only on a
commit whose answers are trusted.  See README.md in this directory.
"""

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import layers
import pool

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"

# Nominal seconds per pass, fixed when the benchmark was added (2-core
# x86-64 container, Python 3.11).  A run makes round(--seconds / this)
# whole passes, so the sample count, and with it the tail percentile, is
# the same on every commit compared.
PASS_SECONDS = {"cli-finite": 15.0, "cli-skewproj": 14.0, "session-warm": 6.0}
SETUP_REPEATS = 9
# start no operation after this, so the run ends by 180 s; a planned
# operation left unstarted counts as failed
RUN_DEADLINE_S = 150.0
MIN_TAIL_BEYOND = 10


class BenchError(Exception):
    """The benchmark cannot run here (no library, no oracle, a broken child)."""


# -- process helpers ----------------------------------------------------------

class Env:
    """How children are started: from the checkout root, with `src` first on
    the import path and stderr appended to a log in the work directory."""

    def __init__(self, root, work):
        self.root = root
        self.work = work
        self.docs = work / "docs"
        src = str(root / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
        # children keep byte code in src/ncspec/__pycache__, as an installed
        # package does, whatever the caller's environment says
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.stderr_path = work / "stderr.log"

    def spawn(self, argv, **kw):
        with open(self.stderr_path, "ab") as err:
            return subprocess.Popen([sys.executable, *argv], cwd=self.root, env=self.env,
                                    stderr=err, **kw)

    def run(self, argv, timeout):
        """Run a child to completion: (seconds from spawn to exit, exit code, stdout)."""
        t0 = time.perf_counter()
        p = self.spawn(argv, stdout=subprocess.PIPE)
        try:
            out, _ = p.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            p.kill()
            p.communicate()
            return time.perf_counter() - t0, None, b""
        return time.perf_counter() - t0, p.returncode, out


def peak_children_rss_mb():
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def prepare(root):
    """Check the checkout, write the input documents, warm the byte-code cache."""
    if not (root / "src" / "ncspec" / "cli.py").is_file():
        raise BenchError(f"no ncspec sources under {root / 'src'}")
    work = HERE / ".work"
    work.mkdir(exist_ok=True)
    env = Env(root, work)
    pool.write_docs(env.docs)
    probe = ("import sys, ncspec.cli; "
             f"sys.exit(0 if ncspec.__file__.startswith({str(root / 'src')!r}) else 3)")
    _, code, _ = env.run(["-c", probe], timeout=60)
    if code != 0:
        raise BenchError("ncspec does not import from this checkout's src/")
    return env


# -- statistics -------------------------------------------------------------------

def tail(samples):
    """(value, percentile): the highest percentile with at least ten samples
    beyond it, read as the sample with exactly ten above it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= MIN_TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - MIN_TAIL_BEYOND - 1], 100.0 * (n - MIN_TAIL_BEYOND) / n


def passes_for(workload, seconds):
    return max(1, round(seconds / PASS_SECONDS[workload]))


class Outcome:
    """Samples and verdicts of one run."""

    def __init__(self):
        self.times = []                     # seconds per operation, in run order
        self.by_key = defaultdict(list)     # job key -> seconds
        self.problems = []                  # (job key, message)
        self.attempted = 0
        self.failed = 0
        self.wall_s = 0.0                   # driver-side time spent in operations

    def record(self, key, seconds, problems):
        self.attempted += 1
        self.times.append(seconds)
        self.by_key[key].append(seconds)
        if problems:
            self.failed += 1
            self.problems += [(key, p) for p in problems]

    def skip(self, key):
        """A planned operation that the run deadline kept from starting."""
        self.attempted += 1
        self.failed += 1
        self.problems.append((key, "not started before the run deadline"))


def end_to_end(out, setup_s, peak_mb):
    if not out.times:
        raise BenchError("no operation finished before the run deadline")
    value, pct = tail(out.times)
    return {
        "setup_s": (setup_s, "s"),
        "op_p50_s": (statistics.median(out.times), "s"),
        "op_tail_s": (value, "s"),
        "ops_per_s": (len(out.times) / out.wall_s, "1/s"),
        "failed_frac": (out.failed / out.attempted, "ratio"),
        "peak_rss_mb": (peak_mb, "MB"),
    }, pct


def closed_loop(items, t_start, lanes, sample_setup=None):
    """Run each (key, item) through every lane in turn, one at a time.

    A lane is (Outcome, call); `call(i, item, left)` runs item `i` with
    `left` seconds to go and returns (seconds, output, problems).  The
    second lane, when there is one, is the traced twin of the first: its
    output must equal the first lane's.  Items the run deadline keeps
    from starting count as attempted and failed in every lane.  With
    `sample_setup`, SETUP_REPEATS set-up samples are spread through the
    run, so that they meet the same machine as the operations; their
    median is returned.
    """
    setup_at = {round(k * len(items) / SETUP_REPEATS) for k in range(SETUP_REPEATS)}
    setups = []
    for i, (key, item) in enumerate(items):
        first = None
        for lane, (out, call) in enumerate(lanes):
            left = RUN_DEADLINE_S - (time.perf_counter() - t_start)
            if left <= 0:
                out.skip(key)
                continue
            if lane == 0 and sample_setup is not None and i in setup_at:
                setups.append(sample_setup())
            t0 = time.perf_counter()
            seconds, output, problems = call(i, item, left)
            out.wall_s += time.perf_counter() - t0
            if lane == 0:
                first = output
            elif output != first:
                problems = ["traced output differs from untraced"] + problems
            out.record(key, seconds, problems)
    if sample_setup is None:
        return None
    if not setups:
        raise BenchError("no set-up sample before the run deadline")
    return statistics.median(setups)


# -- the CLI workloads ----------------------------------------------------------

def setup_sample(env):
    """One cold interpreter start plus `import ncspec.cli`, spawn to exit."""
    t, code, _ = env.run(["-c", "import ncspec.cli"], timeout=60)
    if code != 0:
        raise BenchError("import ncspec.cli failed")
    return t


def check_cli(job, code, stdout, expected):
    want = expected["cli"].get(job.key)
    if want is None:
        return [f"no recorded answer for {job.key!r}"]
    if code is None:
        return ["timed out"]
    try:
        report = json.loads(stdout)
    except ValueError:
        return [f"exit {code}, output is not a JSON report"]
    problems = []
    if code != want["exit"]:
        problems.append(f"exit code {code}, recorded {want['exit']}")
    if report.get("status") != want["status"] or report.get("payload") != want["payload"]:
        problems.append("report differs from the recorded status and payload")
    return problems + pool.independent_problems(job, report)


def cli_lane(env, expected, argv):
    """A lane that runs `argv(i, job)` as a fresh child and checks its report."""
    out = Outcome()

    def call(i, job, left):
        t, code, stdout = env.run(argv(i, job), left)
        return t, stdout, check_cli(job, code, stdout, expected)

    return out, call


def run_cli(env, workload, seed, passes, expected, t_start, traced=False):
    """Every job as a fresh CLI process; when traced, each job is followed
    by its twin under `traced_cli.py`.  Returns the lanes' outcomes, the
    set-up median (untraced runs) and the trace dumps."""
    rng = pool.new_rng(seed, workload)
    jobs = [(job.key, job) for _ in range(passes)
            for job in pool.cli_pass(pool.CLI_JOBS[workload], rng)]
    lanes = [cli_lane(env, expected, lambda i, job: ["-m", "ncspec.cli", *job.argv(env.docs)])]
    if not traced:
        setup_s = closed_loop(jobs, t_start, lanes, lambda: setup_sample(env))
        return [lanes[0][0]], setup_s, []
    trace_dir = env.work / "trace"
    shutil.rmtree(trace_dir, ignore_errors=True)
    trace_dir.mkdir()
    lanes.append(cli_lane(env, expected, lambda i, job: [
        str(HERE / "traced_cli.py"), str(trace_dir / f"{i}.json"), repr(time.monotonic()),
        f"{i} {job.key}", *job.argv(env.docs)]))
    closed_loop(jobs, t_start, lanes)
    dumps = [json.loads(f.read_text(encoding="utf-8"))
             for f in sorted(trace_dir.glob("*.json"), key=lambda f: int(f.stem))]
    return [out for out, _ in lanes], None, dumps


# -- the warm session -------------------------------------------------------------

class Session:
    """A session child: started, warmed up, then fed queries one at a time."""

    def __init__(self, env, traced):
        t_spawn = time.monotonic()
        argv = [str(HERE / "session.py")] + (["--trace"] if traced else [])
        self.proc = env.spawn(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                              text=True, bufsize=1)
        try:
            ready = self._read()
        except BaseException:
            self.kill()
            raise
        self.setup_s = ready["ready"] - t_spawn
        self.startup_s = ready["imported"] - t_spawn

    def _read(self):
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait()
            raise BenchError("the session process ended unexpectedly")
        return json.loads(line)

    def ask(self, q):
        self.proc.stdin.write(json.dumps(q) + "\n")
        return self._read()

    def close(self):
        """End the session; returns the trace dump when traced."""
        self.proc.stdin.write("\n")
        self.proc.stdin.close()
        rest = self.proc.stdout.read()
        self.proc.stdout.close()
        self.proc.wait()
        return json.loads(rest) if rest.strip() else None

    def kill(self):
        """Stop a session that is still running (after an error)."""
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


def session_setup_sample(env):
    """Set-up of one fresh session: spawn to ready, warm-up included."""
    s = Session(env, traced=False)
    try:
        s.close()
    finally:
        s.kill()
    return s.setup_s


def recorded_answer(q, expected):
    """The recorded answer to `q`, or None; localize answers are kept per subset."""
    if q[0] == "localize":
        parts = [expected.get(pool.query_key(["localize", q[1], sub])) for sub in q[2]]
        return None if None in parts else parts
    return expected.get(pool.query_key(q))


def check_session(q, result, expected):
    want = recorded_answer(q, expected["session"])
    if want is None:
        return [f"no recorded answer for {pool.query_key(q)!r}"]
    problems = pool.session_problems(q, result)
    if result != want:
        problems.append("answer differs from the recorded one")
    return problems


def session_lane(s, expected):
    """A lane that asks session `s` and checks its answer."""
    def call(i, q, left):
        ans = s.ask(q)
        return ans["elapsed"], ans["result"], check_session(q, ans["result"], expected)

    return Outcome(), call


def session_stream(seed, passes):
    """The run's queries as (breakdown key, query) pairs."""
    rng = pool.new_rng(seed, "session-warm")
    queries = [q for _ in range(passes) for q in pool.session_pass(rng)]
    return [(q[0] + f" Z/{q[1]}" + (f"->Z/{q[2]}" if q[0] == "quotient" else ""), q)
            for q in queries]


def run_session(env, seed, passes, expected, t_start, traced=False):
    """The query stream through one warm session; when traced, each query
    is then asked of a traced twin session.  Returns as `run_cli` does."""
    sessions = [Session(env, traced=False)]
    try:
        if traced:
            sessions.append(Session(env, traced=True))
        lanes = [session_lane(s, expected) for s in sessions]
        sample_setup = None if traced else (lambda: session_setup_sample(env))
        setup_s = closed_loop(session_stream(seed, passes), t_start, lanes, sample_setup)
        closed = [s.close() for s in sessions]
    finally:
        for s in sessions:
            s.kill()
    if traced:
        closed[-1]["startup_s"] = sessions[-1].startup_s
    return [out for out, _ in lanes], setup_s, [d for d in closed if d]


# -- reporting -------------------------------------------------------------------

def print_breakdown(out):
    print("per-job medians (diagnostics, not end-to-end metrics):")
    rows = sorted(out.by_key.items(), key=lambda kv: -statistics.median(kv[1]))
    for key, ts in rows:
        mark = "  [baseline]" if key in pool.BASELINE_KEYS else ""
        print(f"  {statistics.median(ts):9.4f} s  x{len(ts):<3d} {key}{mark}")


def print_problems(out):
    for key, msg in out.problems[:20]:
        print(f"WRONG {key}: {msg}")


def result_line(attempted, failed, metrics):
    return json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def bench(workload, seed, seconds, traced):
    t_start = time.perf_counter()
    root = Path.cwd()
    if not EXPECTED.is_file():
        raise BenchError(f"missing oracle {EXPECTED}")
    env = prepare(root)
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    passes = passes_for(workload, seconds)
    if traced:
        passes = max(1, math.ceil(passes / 2))
    print(f"workload {workload}  seed {seed}  passes {passes}  trace {int(traced)}")
    if workload == "session-warm":
        outs, setup_s, dumps = run_session(env, seed, passes, expected, t_start, traced)
    else:
        outs, setup_s, dumps = run_cli(env, workload, seed, passes, expected, t_start, traced)
    if not traced:
        out = outs[0]
        metrics, pct = end_to_end(out, setup_s, peak_children_rss_mb())
        for name, (value, unit) in metrics.items():
            note = f"   (p{pct:.1f} of {len(out.times)} samples)" if name == "op_tail_s" else ""
            print(f"  {name:<12} {value:12.6g} {unit}{note}")
        print_breakdown(out)
        print_problems(out)
        del metrics["failed_frac"]      # carried by `attempted` and `failed`
        print(result_line(out.attempted, out.failed, metrics))
        return
    plain, spans = outs
    if not plain.times or not spans.times:
        raise BenchError("no operation finished before the run deadline")
    overhead = 1.0 - (len(spans.times) / spans.wall_s) / (len(plain.times) / plain.wall_s)
    startup = sum(d.pop("startup_s") for d in dumps)
    per_layer = layers.aggregate(dumps, startup, overhead)
    print(f"  traced ops {len(spans.times)}, untraced ops {len(plain.times)}, "
          f"trace.overhead_frac {overhead:.4f}")
    for name, value in per_layer.items():
        print(f"  {name:<42} {value:.6g} {layers.METRICS[name][0]}")
    selfs = {k: v for k, v in per_layer.items() if k.endswith("self_s")}
    total = sum(selfs.values()) or 1.0
    top = sorted(selfs, key=selfs.get, reverse=True)[:3]
    print("  largest self-time shares: "
          + ", ".join(f"{k} {selfs[k] / total:.1%}" for k in top))
    print(f"  split: linalg.Echelon.add.calls={per_layer['linalg.Echelon.add.calls']} "
          "rings.hom_validate.exhaustive_pairs="
          f"{per_layer['rings.hom_validate.exhaustive_pairs']}")
    print_problems(plain)
    print_problems(spans)
    metrics = {k: (v, layers.METRICS[k][0]) for k, v in per_layer.items()}
    (env.work / f"layers-{workload}.json").write_text(json.dumps(per_layer, indent=1))
    print(result_line(plain.attempted + spans.attempted, plain.failed + spans.failed, metrics))


# -- record and steadiness modes ----------------------------------------------------

def record_session_ring(s, n, answers):
    for q in pool.session_queries(n):
        result = s.ask(q)["result"]
        problems = pool.session_problems(q, result)
        if problems:
            raise BenchError(f"{q}: {problems}")
        answers[pool.query_key(q)] = result
    subsets = pool.localize_universe(n)
    for sub, result in zip(subsets, s.ask(["localize", n, subsets])["result"]):
        answers[pool.query_key(["localize", n, sub])] = result


def record():
    """Rewrite expected.json from the current library, after the independent checks."""
    env = prepare(Path.cwd())
    answers = {"cli": {}, "session": {}}
    for jobs in pool.CLI_JOBS.values():
        for job in jobs:
            outs = set()
            for hashseed in ("0", "1"):
                env.env["PYTHONHASHSEED"] = hashseed
                _, code, out = env.run(["-m", "ncspec.cli", *job.argv(env.docs)], timeout=300)
                outs.add(out)
            del env.env["PYTHONHASHSEED"]
            if len(outs) != 1:
                raise BenchError(f"{job.key}: output depends on hash randomization")
            report = json.loads(out)
            problems = pool.independent_problems(job, report)
            if problems:
                raise BenchError(f"{job.key}: {problems}")
            answers["cli"][job.key] = {"exit": code, "status": report["status"],
                                       "payload": report["payload"]}
            print(f"recorded {job.key}: {report['status']}")
    s = Session(env, traced=False)
    try:
        for n in pool.SESSION_RINGS:
            record_session_ring(s, n, answers["session"])
        s.close()
    finally:
        s.kill()
    EXPECTED.write_text(json.dumps(answers, indent=1, sort_keys=True) + "\n")
    print(f"wrote {EXPECTED}: {len(answers['cli'])} CLI jobs, "
          f"{len(answers['session'])} session queries")


def quartile_spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2 if q2 else float("inf")


def steady(workload, runs, seconds, first_seed):
    """Run the benchmark once per seed; report each metric's spread against its bound."""
    spec = json.loads((Path.cwd() / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = defaultdict(list)
    for seed in range(first_seed, first_seed + runs):
        argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
                str(seed), "--seconds", str(seconds), "--trace", "0"]
        done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=True)
        last = json.loads(done.stdout.strip().splitlines()[-1])
        if not last["correct"]:
            print(f"seed {seed}: {last['failed']} of {last['attempted']} wrong")
        line = []
        for name, m in last["metrics"].items():
            values[name].append(m["value"])
            line.append(f"{name}={m['value']:.4g}")
        print(f"seed {seed}: " + " ".join(line), flush=True)
    print(f"{workload}: median, quartile spread / median, bound")
    for name, vals in values.items():
        median, spread = quartile_spread(vals)
        bound = bounds.get(name)
        verdict = "" if bound is None else (
            "ok" if spread < bound / 3 else ("within bound" if spread <= bound else "TOO WIDE"))
        print(f"  {name:<12} {median:12.6g}  {spread:7.4f}  {bound}  {verdict}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(PASS_SECONDS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true")
    ap.add_argument("--steady", action="store_true")
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args(argv)
    try:
        if args.record:
            record()
        elif args.workload is None:
            ap.error("--workload is required")
        elif args.steady:
            steady(args.workload, args.runs, args.seconds, args.seed)
        else:
            bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
