"""Compare two sets of benchmark runs, metric by metric.

    python benchmarks/e2e/compare.py A/ B/

``A`` (the parent) and ``B`` (the change) are directories holding
``results.json`` files written by ``run.py`` (searched recursively).
For each workload and end-to-end metric it prints both sides' sample
count, median and quartiles, the pairs ``B`` won, and a verdict:

- ``improved``: ``B`` wins at least nine tenths of the pairs (ties count
  for neither) and the medians differ by more than ``A``'s quartile
  distance;
- ``unresolved``: either side's quartile distance exceeds the metric's
  bound (as a share of its median) and not every ``B`` run beats every
  ``A`` run, or a side has fewer than two runs;
- ``regressed``: ``B``'s median is worse than ``A``'s by more than the
  bound from ``BENCHMARK.json``;
- ``unchanged``: otherwise.

Runs pair up by seed where both sides ran the same seeds, else in
order.  Each workload also gets a ``failed_frac`` row: failed over
attempted scenario runs, summed over each side's runs.  Any increase
on ``B`` is a regression, so no gain counts while more runs fail than
at the parent.  Any scenario digest that differs between the two sides
for the same workload and seed is flagged.  Exits 1 on a regression or
a digest difference.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load_runs(directory) -> list[dict]:
    """Every untraced workload run under ``directory``, oldest first."""
    runs = []
    for path in sorted(Path(directory).rglob("results.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        for run in doc["runs"]:
            if not run["trace"]:
                runs.append(dict(run, commit=doc.get("commit")))
    return runs


def _run_values(runs: list[dict], metric: str) -> list[tuple[int, float]]:
    """(seed, reported value) of one metric, one per run."""
    return [(r["seed"], r["e2e"][metric]) for r in runs if metric in r["e2e"]]


def _pairs(a: list[tuple[int, float]], b: list[tuple[int, float]]):
    seeds_a = [s for s, _ in a]
    seeds_b = [s for s, _ in b]
    if sorted(seeds_a) == sorted(seeds_b) and len(set(seeds_a)) == len(seeds_a):
        by_seed = dict(b)
        return [(va, by_seed[s]) for s, va in a]
    return list(zip((v for _, v in a), (v for _, v in b)))


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(a: list[float], b: list[float], pairs, bound: float,
            lower_is_better: bool = True) -> tuple[str, int]:
    """(verdict, pairs won by ``b``) under the rules in the docstring."""
    def better(x, y):  # x better than y
        return x < y if lower_is_better else x > y

    wins = sum(better(vb, va) for va, vb in pairs)
    if len(a) < 2 or len(b) < 2:
        return "unresolved", wins
    qa1, ma, qa3 = _quartiles(a)
    qb1, mb, qb3 = _quartiles(b)
    if (better(mb, ma) and wins >= 0.9 * len(pairs)
            and abs(mb - ma) > qa3 - qa1):
        return "improved", wins
    spread = max((qa3 - qa1) / ma, (qb3 - qb1) / mb)
    all_better = all(better(vb, va) for va in a for vb in b)
    if spread > bound and not all_better:
        return "unresolved", wins
    worse = (mb - ma) / ma if lower_is_better else (ma - mb) / ma
    return ("regressed" if worse > bound else "unchanged"), wins


def failures(runs: list[dict]) -> tuple[int, int, float]:
    """(failed, attempted, failed share) of scenario runs over ``runs``."""
    failed = sum(r["failed"] for r in runs)
    attempted = sum(r["attempted"] for r in runs)
    return failed, attempted, failed / attempted if attempted else 1.0


def digest_differences(runs_a: list[dict], runs_b: list[dict]) -> list[str]:
    """Scenarios whose digests differ across sides for one workload+seed."""
    first = {}
    for r in runs_a:
        first.setdefault((r["workload"], r["seed"]), r["digests"])
    flags = []
    for r in runs_b:
        ref = first.get((r["workload"], r["seed"]))
        if ref is None:
            continue
        for key in sorted(set(ref) | set(r["digests"])):
            if ref.get(key) != r["digests"].get(key):
                flags.append(f"{r['workload']} seed={r['seed']}: {key}")
    return sorted(set(flags))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    runs_a, runs_b = load_runs(argv[0]), load_runs(argv[1])
    regressed = False
    header = (f"{'workload':<14} {'metric':<12} {'nA':>3} {'median A':>10} "
              f"{'q1-q3 A':>19} {'nB':>3} {'median B':>10} {'q1-q3 B':>19} "
              f"{'wins B':>7}  verdict")
    print(header)
    for w in spec["workloads"]:
        wa = [r for r in runs_a if r["workload"] == w["name"]]
        wb = [r for r in runs_b if r["workload"] == w["name"]]
        if not wa or not wb:
            continue
        for m in spec["end_to_end"]:
            a = _run_values(wa, m["name"])
            b = _run_values(wb, m["name"])
            if not a or not b:
                continue
            va, vb = [v for _, v in a], [v for _, v in b]
            pairs = _pairs(a, b)
            result, wins = verdict(va, vb, pairs, m["bound"],
                                   m["better"] == "lower")
            regressed |= result == "regressed"

            def cell(values):
                if len(values) < 2:
                    return f"{values[0]:10.4f} {'-':>19}"
                q1, med, q3 = _quartiles(values)
                return f"{med:10.4f} {f'{q1:.4f}-{q3:.4f}':>19}"

            print(f"{w['name']:<14} {m['name']:<12} {len(va):>3} {cell(va)} "
                  f"{len(vb):>3} {cell(vb)} {f'{wins}/{len(pairs)}':>7}  {result}")
        fa, fb = failures(wa), failures(wb)
        result = ("regressed" if fb[2] > fa[2]
                  else "improved" if fb[2] < fa[2] else "unchanged")
        regressed |= result == "regressed"

        def share(failed, attempted, frac):
            return f"{frac:10.4f} {f'{failed}/{attempted} runs':>19}"

        print(f"{w['name']:<14} {'failed_frac':<12} {len(wa):>3} {share(*fa)} "
              f"{len(wb):>3} {share(*fb)} {'-':>7}  {result}")
    flags = digest_differences(runs_a, runs_b)
    for flag in flags:
        print(f"DIGEST DIFFERS: {flag}")
    if not flags:
        print("digests: identical on every workload and seed both sides ran")
    return 1 if regressed or flags else 0


if __name__ == "__main__":
    sys.exit(main())
