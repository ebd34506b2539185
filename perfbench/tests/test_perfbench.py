"""Tests of the repository benchmark itself (``perfbench/``).

Tiny-scale runs of every workload must emit every metric that
``BENCHMARK.json`` names, with its unit; a wrong reply must count as a
failed operation; and without the program's sources the benchmark
must fail without printing a result.
"""

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import common  # noqa: E402
import explore  # noqa: E402
import serve  # noqa: E402
import triage  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)


def _env():
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    return env


def _units(section):
    return {metric["name"]: metric["unit"] for metric in SPEC[section]}


#: The measured workloads, plus ``serve``, which runs but is not in
#: BENCHMARK.json yet (see README.md).
WORKLOADS = sorted({w["name"] for w in SPEC["workloads"]} | {"serve"})


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_traced_run_emits_every_metric(workload):
    """One ``--trace 1`` run reports the per-layer table as its result
    and the untraced pass's end-to-end table in its report line."""
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
         workload, "--seed", "3", "--seconds", "1", "--trace", "1",
         "--scale", "tiny"], cwd=ROOT, env=_env(), capture_output=True,
        text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} \
        == _units("per_layer")
    prefix = "# {}: ".format(workload)
    report = json.loads(next(line[len(prefix):] for line in lines
                             if line.startswith(prefix)))
    e2e = report["end_to_end"]
    assert {name: m["unit"] for name, m in e2e.items()} \
        == _units("end_to_end")
    assert all(m["value"] > 0 for m in e2e.values())
    leftovers = os.listdir(os.path.join(ROOT, ".perfbench-work"))
    assert not [name for name in leftovers
                if name.startswith(workload + "-3-")]


def test_fails_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and perfbench/ the
    benchmark exits non-zero and prints no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "explore",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=_env(), capture_output=True, text=True,
        timeout=170)
    assert done.returncode != 0
    assert "correct" not in done.stdout


@pytest.fixture(scope="module")
def tiny_trace(tmp_path_factory):
    from repro.trace_format import read_trace, write_synthetic_trace
    path = str(tmp_path_factory.mktemp("perfbench") / "tiny.ost")
    write_synthetic_trace(path, events=3000, nodes=4, cores_per_node=4,
                          seed=5)
    return path, read_trace(path, cache=True)


class _WrongOracle:
    """Answers every reference request with a different frame."""

    def __init__(self, trace):
        self.trace = trace

    def references(self, requests):
        from repro.session import AnalysisSession
        replies = []
        for request in requests:
            session = AnalysisSession(self.trace, width=common.WIDTH,
                                      height=common.HEIGHT)
            session.goto(request["start"], request["end"])
            replies.append({"stats": session.statistics(),
                            "png": dict.fromkeys(request["modes"],
                                                 "not-the-frame")})
        return replies


def test_explore_counts_a_wrong_frame_as_failed(tiny_trace):
    path, trace = tiny_trace
    from repro.session import AnalysisSession
    session = AnalysisSession(trace, width=common.WIDTH,
                              height=common.HEIGHT)
    session.navigate("zoom", factor=4.0)
    record = explore._step(session, "state", "reset", {}, None, True)
    outcome = explore._verify([record], path, _WrongOracle(trace))
    assert outcome["ok"] is False
    assert outcome["counts"].table["render"]["failed"] == 1
    assert outcome["counts"].table["stats"]["ok"] == 1
    assert outcome["samples"].series["frame"] == [common.FAILED_MS]


def _serve_records(path, trace, stats_reply):
    view = (int(trace.begin), int(trace.end))
    opened = {"session": "s1", "cores": trace.num_cores,
              "duration": trace.duration,
              "view": {"start": view[0], "end": view[1]}}
    base = {"path": path, "view": view, "due": 0.0, "sent": 0.0,
            "done": 0.01}
    return [dict(base, endpoint="open", params={"path": path},
                 reply=opened),
            dict(base, endpoint="stats", params={"session": "s1"},
                 reply=stats_reply)]


def test_serve_counts_a_wrong_stats_reply_as_failed(tiny_trace):
    path, trace = tiny_trace
    refs = serve.References({path: trace})
    good = json.loads(refs.stats(path, (int(trace.begin),
                                        int(trace.end))))
    pool = {"hits": 1, "misses": 1, "evictions": 0}
    outcome = serve._verify(
        [_serve_records(path, trace, dict(good, session="s1"))],
        {path: trace}, pool)
    assert outcome["ok"] is True and outcome["counts"].failed == 0
    wrong = dict(good, session="s1", tasks=good["tasks"] + 1)
    outcome = serve._verify([_serve_records(path, trace, wrong)],
                            {path: trace}, pool)
    assert outcome["ok"] is False
    assert outcome["counts"].table["stats"]["failed"] == 1
    assert outcome["counts"].table["open"]["ok"] == 1
    assert outcome["samples"].series["stats"] == [common.FAILED_MS]


def test_serve_counts_wrong_pool_counters_as_failed(tiny_trace):
    path, trace = tiny_trace
    refs = serve.References({path: trace})
    good = json.loads(refs.stats(path, (int(trace.begin),
                                        int(trace.end))))
    outcome = serve._verify(
        [_serve_records(path, trace, dict(good, session="s1"))],
        {path: trace}, {"hits": 0, "misses": 2, "evictions": 0})
    assert outcome["ok"] is False
    assert outcome["counts"].table["pool_counters"]["failed"] == 1


def test_triage_counts_a_wrong_diff_reply_as_failed(tiny_trace):
    path, __ = tiny_trace
    record = {"path": path, "endpoint": "diff", "sent": 0.0, "done": 0.01,
              "params": {"baseline": path, "candidate": path},
              "reply": {"empty": False, "deviations": 1, "entries": []}}
    pool = {"hits": 1, "misses": 1, "evictions": 0}
    outcome = triage._verify([record], path, pool)
    assert outcome["ok"] is False
    assert outcome["counts"].table["diff"]["failed"] == 1


def test_expected_pool_replays_an_lru():
    records = [{"endpoint": "open", "path": "t{}".format(i)}
               for i in range(common.POOL_CAPACITY + 2)]
    records.append({"endpoint": "stats", "path": "t0"})
    assert triage._expected_pool(records, "base") == {
        "hits": 0, "misses": common.POOL_CAPACITY + 3, "evictions": 3}


def test_navigation_stays_inside_the_trace():
    from repro.render.timeline import TimelineView
    rng = random.Random(0)
    script = common.NavigationScript(rng, 0, 10**9, 1 / 6)
    view = TimelineView(0, 10**9, common.WIDTH, common.HEIGHT)
    resets = [0] * 6
    for step in range(600):
        action, params = script.next(view.start, view.end)
        if action == "reset":
            view = TimelineView(0, 10**9, view.width, view.height)
            resets[step % 6] += 1
        elif action == "zoom":
            view = view.zoom(params["factor"], params.get("center"))
        elif action == "scroll":
            view = view.scroll(params["fraction"])
        else:
            view = TimelineView(params["start"], params["end"])
        assert 0 <= view.start < view.end <= 10**9
        assert view.end - view.start == 10**9 \
            or view.end - view.start < 10**7
    assert sum(resets) == 100
    assert max(resets) - min(resets) <= 1
