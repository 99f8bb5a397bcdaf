"""The benchmark's own tests.

    python3 -m pytest -q perfbench/checks.py

Run from the repository root. The file name keeps these tests out of the
repository's default `pytest` collection; the slow ones start children.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import pool  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _child(argv, cwd=ROOT, pythonpath=(ROOT / "src",)):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(str(p) for p in pythonpath)}
    return subprocess.run([sys.executable, *argv], cwd=cwd, env=env,
                          capture_output=True, timeout=300)


# -- statistics and aggregation ---------------------------------------------

def test_tail_is_the_sample_with_ten_above_it():
    value, pct = run.tail(list(range(48)))
    assert value == 37 and sum(1 for x in range(48) if x > value) == 10
    assert pct == pytest.approx(100 * 38 / 48)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_pass_count_follows_seconds():
    assert run.passes_for("cli-finite", 30) == 2
    assert run.passes_for("cli-skewproj", 30) == 2
    assert run.passes_for("session-warm", 30) == 5
    assert all(run.passes_for(w, 1) == 1 for w in run.PASS_SECONDS)


def test_closed_loop_flags_a_traced_twin_whose_output_differs():
    plain, twin = run.Outcome(), run.Outcome()
    lanes = [(plain, lambda i, item, left: (0.1, item, [])),
             (twin, lambda i, item, left: (0.2, item if i else "other", []))]
    setup = run.closed_loop([("a", 1), ("b", 2)], time.perf_counter(), lanes,
                            sample_setup=lambda: 0.5)
    assert setup == 0.5
    assert (plain.attempted, plain.failed, twin.attempted, twin.failed) == (2, 0, 2, 1)
    assert twin.problems == [("a", "traced output differs from untraced")]


def test_operations_cut_by_the_deadline_count_as_failed():
    started = []
    lane = (run.Outcome(), lambda i, item, left: started.append(i) or (0.1, item, []))
    past = time.perf_counter() - run.RUN_DEADLINE_S
    with pytest.raises(run.BenchError):
        run.closed_loop([("a", 1), ("b", 2)], past, [lane], sample_setup=lambda: 0.5)
    out = lane[0]
    assert started == [] and (out.attempted, out.failed) == (2, 2)
    assert json.loads(run.result_line(out.attempted, out.failed, {}))["correct"] is False


def test_self_time_subtracts_direct_children():
    spans = [["a", 0.0, 10.0, -1, 0], ["b", 1.0, 4.0, 0, 0],
             ["c", 5.0, 6.0, 0, 0], ["d", 2.0, 3.0, 1, 0]]
    assert layers.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_aggregate_pools_spans_and_reports_every_metric():
    dump = {"spans": [["linalg.Echelon.add", 0.0, 3.0, -1, 0],
                      ["linalg.Echelon.reduce", 1.0, 2.0, 0, 0],
                      ["serialize.parse_ring", 4.0, 4.5, -1, 0],
                      ["localization.localize", 5.0, 5.25, -1, 0],
                      ["localization.localize", 6.0, 6.25, -1, 0]],
            "counts": {"localization.localize.distinct": 1, "rings.arith.calls": 7}}
    out = layers.aggregate([dump, dump], startup_s=0.5, overhead_frac=0.1)
    assert list(out) == list(layers.METRICS)
    assert out["linalg.echelon.self_s"] == pytest.approx(6.0)
    assert out["linalg.Echelon.add.calls"] == 2
    assert out["serialize.parse.self_s"] == pytest.approx(1.0)
    assert out["localization.localize.hit_ratio"] == pytest.approx(0.5)
    assert out["rings.arith.calls"] == 14
    assert out["process.startup_s"] == 0.5


# -- the benchmark's declaration --------------------------------------------------

def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(run.PASS_SECONDS)
    assert [m["name"] for m in spec["per_layer"]] == list(layers.METRICS)
    for m in spec["per_layer"]:
        assert (m["unit"], m["better"]) == layers.METRICS[m["name"]]
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) <= 0.25 and bounds["setup_s"] == max(bounds.values())
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])


# -- the oracle --------------------------------------------------------------------

def test_every_job_and_query_has_a_recorded_answer():
    expected = json.loads(run.EXPECTED.read_text())
    keys = {job.key for jobs in pool.CLI_JOBS.values() for job in jobs}
    assert set(expected["cli"]) == keys
    for jobs in pool.CLI_JOBS.values():
        for job in jobs:
            assert pool.independent_problems(job, expected["cli"][job.key]) == []
    for q in pool.session_pass(pool.new_rng(1, "session-warm")):
        if q[0] != "localize":
            assert pool.session_problems(q, expected["session"][pool.query_key(q)]) == []
    for n in pool.SESSION_RINGS:
        for sub in pool.localize_universe(n):
            assert pool.query_key(["localize", n, sub]) in expected["session"]


def test_oracle_catches_wrong_answers():
    ncspec_z60 = next(j for j in pool.FINITE_JOBS if j.key == "ncspec Z60")
    assert pool.independent_problems(ncspec_z60, {"status": "pass", "payload": {"points": 4}})
    gamma = next(j for j in pool.SKEW_JOBS if j.key == "proj-gamma SK3 --window 0 5")
    dims = {str(d): 1 for d in range(6)}
    assert pool.independent_problems(gamma, {"status": "pass", "payload": {"dims": dims}})
    assert pool.session_problems(["quotient", 30, 6],
                                 {"verified": True, "prim": False, "recovered": True})


def test_omega():
    assert [pool.omega(n) for n in (2, 6, 12, 30, 60, 97, 210)] == [1, 2, 2, 3, 3, 1, 4]


def test_seed_orders_the_stream_but_keeps_its_shape():
    a = pool.session_pass(pool.new_rng(1, "session-warm"))
    assert a == pool.session_pass(pool.new_rng(1, "session-warm"))
    b = pool.session_pass(pool.new_rng(2, "session-warm"))
    assert a != b
    assert Counter(q[0] for q in a) == Counter(q[0] for q in b)
    jobs = pool.CLI_JOBS["cli-finite"]
    assert sorted(j.key for j in pool.cli_pass(jobs, pool.new_rng(5, "x"))) == \
        sorted(j.key for j in jobs)


# -- tracing ----------------------------------------------------------------------

def test_traced_cli_output_is_byte_identical(tmp_path):
    docs = tmp_path / "docs"
    pool.write_docs(docs)
    job = pool.Job("ncspec", "Z6")
    plain = _child(["-m", "ncspec.cli", *job.argv(docs)])
    dump = tmp_path / "dump.json"
    traced = _child([str(HERE / "traced_cli.py"), str(dump), "0.0", "job",
                     *job.argv(docs)])
    assert traced.returncode == plain.returncode == 0
    assert traced.stdout == plain.stdout
    d = json.loads(dump.read_text())
    names = {s[0] for s in d["spans"]}
    assert {"cli.main", "sheafspec.ncspec", "sheafspec.check_presheaf_laws",
            "rings.hom_validate", "serialize.parse_ring"} <= names
    assert d["counts"]["rings.arith.calls"] > 0
    assert d["counts"]["rings.hom_validate.exhaustive_pairs"] > 0


def test_wrappers_rebind_every_alias():
    probe = ("import layers, ncspec.commbridge as cb, ncspec.rings as rg, "
             "ncspec.sheafspec as sh, ncspec.glueqcoh as gq\n"
             "layers.install(layers.Recorder())\n"
             "assert cb.hom_validate is rg.hom_validate\n"
             "assert hasattr(rg.hom_validate, '__wrapped__')\n"
             "assert cb.ncspec is sh.ncspec is gq.ncspec\n"
             "assert hasattr(sh.ncspec, '__wrapped__')\n")
    done = _child(["-c", probe], pythonpath=(ROOT / "src", HERE))
    assert done.returncode == 0, done.stderr.decode()


# -- whole runs --------------------------------------------------------------------

def test_without_sources_the_benchmark_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work"))
    done = _child(["perfbench/run.py", "--workload", "cli-finite", "--seed", "1",
                   "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert done.returncode != 0
    assert b'"correct"' not in done.stdout


def test_session_run_prints_a_correct_result_line():
    done = _child(["perfbench/run.py", "--workload", "session-warm", "--seed", "7",
                   "--seconds", "1", "--trace", "0"])
    assert done.returncode == 0, done.stderr.decode()
    last = json.loads(done.stdout.decode().strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] == 19
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(last["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in last["metrics"].values())
