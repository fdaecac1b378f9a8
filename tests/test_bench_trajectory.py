"""``BENCH_e2e.json``: the committed end-to-end benchmark trajectory.

Each entry records one change's parent/change medians of the
benchmark's end-to-end metrics (README, "Tests and benchmarks"); the
names must be the ones ``BENCHMARK.json`` declares, so an entry can be
read back against the benchmark that produced it.
"""

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_entries_name_benchmark_workloads_and_metrics():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in benchmark["workloads"]}
    metrics = {m["name"] for m in benchmark["end_to_end"]}
    entries = json.loads((ROOT / "BENCH_e2e.json").read_text())
    assert entries
    prs = [entry["pr"] for entry in entries]
    assert all(isinstance(pr, int) for pr in prs) and prs == sorted(prs)
    for entry in entries:
        assert set(entry) == {
            "pr", "parent", "change", "claim", "verdict", "source", "workloads",
        }, entry["pr"]
        commits = [entry["parent"], entry["change"]]
        if entry is entries[-1] and entry["change"] is None:
            # A change's own entry, written before its commit exists;
            # the next change fills the commit in.
            assert entry["source"] == "CHANGES.md", entry["pr"]
            commits.pop()
        for commit in commits:
            assert re.fullmatch(r"[0-9a-f]{7,40}", commit), (entry["pr"], commit)
        if entry["claim"] is not None:
            assert entry["claim"]["workload"] in workloads
            assert entry["claim"]["metric"] in metrics
        assert entry["workloads"] and set(entry["workloads"]) <= workloads
        for medians in entry["workloads"].values():
            assert medians and set(medians) <= metrics
            for pair in medians.values():
                assert len(pair) == 2
                assert all(isinstance(v, (int, float)) and v > 0 for v in pair)
