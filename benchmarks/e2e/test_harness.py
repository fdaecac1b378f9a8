"""Checks on the benchmark harness itself (not part of tier-1).

    python -m pytest benchmarks/e2e -q

They cover what a wrong harness would silently get wrong: tracing that
leaks into untraced runs, wrappers that no longer sit where the program
binds its callables, self-time arithmetic, and correctness checks that
miss a corrupted row.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import compare  # noqa: E402
import run as bench_run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_benchmark_json_names_the_harness_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.LAYER_METRICS
    assert set(spans.EXERCISED) == set(spans.PREDICTED_ZERO) == set(workloads.WORKLOADS)
    for names in (*spans.EXERCISED.values(), *spans.PREDICTED_ZERO.values()):
        assert set(names) <= set(spans.LAYER_METRICS)


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_untraced_run_leaves_every_wrapped_callable_original(tmp_path):
    originals = [spans.resolve_target(target) for _, target, _ in spans.TARGETS]
    camps = workloads.setup("paper-flow", 0, "tiny")
    workloads.run("paper-flow", camps, tmp_path)
    assert spans.traced_objects() == []
    for owner, attr, raw in originals:
        assert _current(owner, attr) is raw


def test_install_reaches_every_binding_site_and_uninstall_restores(tmp_path):
    resolve_module = sys.modules["repro.scenarios.resolve"]
    import repro.scenarios.runner
    import repro.service.units

    tracer = spans.Tracer(tmp_path)
    tracer.install()
    try:
        for module in (resolve_module, repro.scenarios.runner,
                       repro.service.units, workloads):
            assert getattr(module.resolve, "__bench_traced__", False), module
        assert len(spans.traced_objects()) >= len(spans.TARGETS)
    finally:
        tracer.uninstall()
    assert spans.traced_objects() == []


def _iterate(workload: str, workdir: Path, fixture: Path | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "iteration.py"), "--workload", workload,
           "--seed", "0", "--workdir", str(workdir), "--size", "tiny", "--trace"]
    if fixture is not None:
        cmd += ["--fixture", str(fixture)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=300, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def tiny_traced(tmp_path_factory):
    """One traced tiny-size iteration per workload."""
    base = tmp_path_factory.mktemp("traced")
    results = {"paper-flow": _iterate("paper-flow", base / "paper-flow")}
    fixture = base / "paper-flow" / "run"
    for workload in workloads.WORKLOADS:
        if workload not in results:
            results[workload] = _iterate(workload, base / workload, fixture)
    return results


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_exercised_layer_metric_fires(tiny_traced, workload):
    result = tiny_traced[workload]
    assert not result["problems"]
    assert set(result["digests"]) == set(result["expected"])
    layers = result["layers"]
    assert set(layers) == set(spans.LAYER_METRICS) - {"trace.overhead"}
    silent = [m for m in spans.EXERCISED[workload] if not layers[m] > 0]
    assert silent == []


def _span(sid, parent, start, end, pid=1, name="x", counts=None):
    return {"id": sid, "parent": parent, "start": start, "end": end,
            "pid": pid, "name": name, "counts": counts}


def test_self_time_subtracts_the_union_of_child_intervals():
    spans_ = [
        _span("p", None, 0.0, 10.0),
        # Two overlapping children in other processes cover [1, 5].
        _span("a", "p", 1.0, 3.0, pid=2),
        _span("b", "p", 2.0, 5.0, pid=3),
        _span("c", "p", 8.0, 9.0),
        # A child running past its parent counts only inside it.
        _span("late", "p", 9.5, 12.0, pid=2),
        _span("g", "a", 1.5, 2.5, pid=2),
    ]
    own = spans.self_times(spans_)
    assert own["p"] == pytest.approx(10.0 - 4.0 - 1.0 - 0.5)
    assert own["a"] == pytest.approx(1.0)
    assert own["b"] == pytest.approx(3.0)
    assert own["g"] == pytest.approx(1.0)


def test_layer_metrics_from_synthetic_spans():
    spans_ = [
        _span("1:1", None, 0.0, 10.0, name="sim.parallel.sweep"),
        _span("2:1", "1:1", 0.0, 10.0, pid=2, name="sim.engine.run",
              counts={"cycles": 100, "flits": 50}),
        _span("3:1", "1:1", 0.0, 5.0, pid=3, name="sim.engine.run",
              counts={"cycles": 60, "flits": 10}),
        _span("1:2", None, 20.0, 21.0, name="service.store.get", counts={"hit": 1}),
        _span("1:3", None, 21.0, 22.0, name="service.store.get", counts={"hit": 0}),
    ]
    m = spans.layer_metrics(spans_, workers=2)
    assert m["sim.engine.runs"] == 2
    assert m["sim.engine.cycles"] == 160
    assert m["sim.engine.cycles_per_s"] == pytest.approx(160 / 15)
    assert m["sim.engine.flits_per_s"] == pytest.approx(60 / 15)
    assert m["sim.parallel.worker_util"] == pytest.approx(15 / 20)
    assert m["sim.parallel.sweep_s"] == pytest.approx(0.0)
    assert m["service.store.hit_ratio"] == pytest.approx(0.5)


def test_a_corrupted_row_raises_failed_frac(tmp_path):
    camps = workloads.setup("paper-flow", 0, "tiny")
    out = workloads.run("paper-flow", camps, tmp_path)
    good = {"digests": workloads.scenario_digests(out.row_files),
            "expected": workloads.expected_keys(camps), "problems": [],
            "platform": workloads.platform_tag()}
    pin = {"platform": good["platform"], "digests": good["digests"]}
    n = len(good["expected"])
    assert bench_run.check([good, good], pin) == (2 * n, 0, [])

    # Pins recorded elsewhere do not bind; sample agreement still does.
    foreign = {"platform": "elsewhere", "digests": {}}
    attempted, failed, notes = bench_run.check([good, good], foreign)
    assert (attempted, failed) == (2 * n, 0)
    assert "checked sample agreement only" in notes[0]

    rows = out.row_files[0]
    lines = rows.read_text().splitlines()
    row = json.loads(lines[1])
    row["load"] += 1e-9
    lines[1] = json.dumps(row, sort_keys=True, separators=(",", ":"))
    rows.write_text("\n".join(lines) + "\n")
    bad = dict(good, digests=workloads.scenario_digests(out.row_files))
    attempted, failed, _ = bench_run.check([good, bad], pin)
    assert (attempted, failed) == (2 * n, 1)
    attempted, failed, _ = bench_run.check([bad, bad], pin)
    assert (attempted, failed) == (2 * n, 2)

    attempted, failed, notes = bench_run.check([good, {"error": "exit 1"}], None)
    assert (attempted, failed) == (2 * n, n)
    assert notes == ["exit 1"]


def _results_set(directory: Path, failed: int) -> Path:
    """Five synthetic untraced paper-flow runs, ``failed`` of 10 each."""
    runs = [{
        "workload": "paper-flow", "seed": seed, "trace": False,
        "attempted": 10, "failed": failed, "digests": {"c/h": "d"},
        "e2e": {"setup_s": 0.5, "wall_s": 2.0 + seed / 100, "cpu_s": 2.2,
                "peak_rss_mb": 180.0},
    } for seed in range(5)]
    directory.mkdir()
    (directory / "results.json").write_text(json.dumps({"runs": runs}))
    return directory


def test_compare_flags_more_failures_as_a_regression(tmp_path, capsys):
    a = _results_set(tmp_path / "a", failed=0)
    b = _results_set(tmp_path / "b", failed=1)
    assert compare.main([str(a), str(a)]) == 0
    assert compare.main([str(b), str(a)]) == 0
    capsys.readouterr()
    assert compare.main([str(a), str(b)]) == 1
    rows = capsys.readouterr().out.splitlines()
    (failed,) = [r for r in rows if "failed_frac" in r]
    assert "5/50 runs" in failed and failed.endswith("regressed")
    assert all(r.endswith("unchanged") for r in rows if "_s " in r or "_mb " in r)


def test_run_refuses_a_tree_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "paper-flow"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
