"""End-to-end campaign benchmark: four workloads from spec to rows.

    python benchmarks/e2e/run.py [--workload NAME|all] [--seed N]
        [--seconds S] [--trace 0|1] [--pin]

Each sample is a fresh ``iteration.py`` process that imports the
program, builds the workload's campaigns from the seed, resolves what
it simulates in-process (set-up), runs the campaigns (run phase) and
digests every scenario's rows.  Samples repeat until ``--seconds`` is
spent (at least five); timings report the fastest sample and memory
the median one.
``--trace 1`` alternates untraced and traced samples and reports the
per-layer metrics instead; ``--pin`` stores the scenario digests of
this seed in ``expected.json``, which later runs of that seed must
reproduce.

Workload and metric names, units and bounds come from the repository's
``BENCHMARK.json``.  Results go to ``benchmarks/e2e/out/<stamp>/
results.json``; the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
PINS = HERE / "expected.json"
OUT = HERE / "out"
#: Fewest samples per run, whatever ``--seconds`` says.
MIN_SAMPLES = 5
#: Every invocation must end within this many seconds.
DEADLINE_S = 170.0
#: End-to-end metrics that are times (see :func:`reported`).
TIMINGS = ("setup_s", "wall_s", "cpu_s")


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _commit() -> str:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _kill_group(pgid: int) -> None:
    """SIGKILL whatever is left of a sample's process group."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def sample(workload: str, seed: int, workdir: Path, timeout: float,
           fixture: Path | None = None, trace: bool = False) -> dict:
    """Run one ``iteration.py`` process; its result, or an ``error``."""
    cmd = [sys.executable, str(HERE / "iteration.py"), "--workload", workload,
           "--seed", str(seed), "--workdir", str(workdir)]
    if fixture is not None:
        cmd += ["--fixture", str(fixture)]
    if trace:
        cmd.append("--trace")
    # Its own session, so pool children and serve-workers die with it.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        _kill_group(proc.pid)
        proc.communicate()
        return {"error": f"timed out after {timeout:.0f}s", "trace": trace}
    finally:
        _kill_group(proc.pid)
    if proc.returncode != 0:
        return {"error": f"exit {proc.returncode}: {err.strip()[-2000:]}",
                "trace": trace}
    result = json.loads(out.strip().splitlines()[-1])
    result["trace"] = trace
    return result


def check(results: list[dict], pin: dict | None) -> tuple[int, int, list[str]]:
    """(attempted, failed, notes) over a workload's samples.

    A scenario fails a sample when its digest is missing, differs from
    the first good sample's (every sample runs identical inputs), or
    differs from ``pin`` -- this seed's pinned digests, binding when the
    samples ran on the platform that recorded them.  A sample that
    crashed or reported a problem fails all of its scenarios.
    """
    good = [r for r in results if "error" not in r]
    reference = good[0]["digests"] if good else {}
    pins = pin["digests"] if pin is not None else None
    scenarios = len(good[0]["expected"]) if good else len(pins or {}) or 1
    attempted = failed = 0
    notes = []
    if pins is not None and good and good[0]["platform"] != pin["platform"]:
        notes.append(f"pins were recorded on {pin['platform']!r}, not "
                     f"{good[0]['platform']!r}: checked sample agreement only")
        pins = None
    for r in results:
        attempted += scenarios
        if "error" in r:
            failed += scenarios
            notes.append(r["error"])
            continue
        if r["problems"]:
            failed += scenarios
            notes += r["problems"]
            continue
        bad = {k for k in r["expected"] if r["digests"].get(k) != reference.get(k)}
        if pins is not None:
            bad |= {k for k in r["expected"] if r["digests"].get(k) != pins.get(k)}
            bad |= set(pins) - set(r["expected"])
        extra = set(r["digests"]) - set(r["expected"])
        if extra:
            notes.append(f"rows of unknown scenarios: {sorted(extra)}")
        failed += min(len(bad) + len(extra), scenarios)
    return attempted, failed, notes


def reported(key: str, values: list[float]) -> float:
    """A run's value of one end-to-end metric over its samples.

    Timings report the fastest sample: on a shared host interference
    only ever adds time, so the fastest fresh-process sample is the one
    that repeats across runs (the rule ``timeit`` follows).  Memory is
    not inflated that way and reports the median.
    """
    return min(values) if key in TIMINGS else statistics.median(values)


def measure(workload: str, seed: int, seconds: float, trace: bool,
            stamp_dir: Path, deadline: float, pin: dict | None) -> dict:
    """Sample one workload until its time is spent; summarise."""
    fixture = None
    prep = None
    if workload == "paper-replay":
        # The store and rows that paper-replay reads back: one untimed
        # paper-flow sample of the same seed.
        prep = sample("paper-flow", seed, stamp_dir / "fixture",
                      deadline - time.monotonic())
        fixture = stamp_dir / "fixture" / "run"
    results = []
    start = time.monotonic()
    while True:
        traced = trace and len(results) % 2 == 1
        workdir = stamp_dir / f"{workload}-{len(results)}"
        results.append(sample(workload, seed, workdir,
                              deadline - time.monotonic(), fixture, traced))
        shutil.rmtree(workdir, ignore_errors=True)
        per_sample = (time.monotonic() - start) / len(results)
        if time.monotonic() + per_sample > deadline:
            break
        wanted = 2 * MIN_SAMPLES if trace else MIN_SAMPLES
        if len(results) >= wanted and (
            time.monotonic() - start + per_sample > seconds
        ):
            break
    if prep is not None:
        shutil.rmtree(stamp_dir / "fixture", ignore_errors=True)
        if "error" in prep:
            results = [dict(r, problems=r.get("problems", []) +
                            [f"paper-flow fixture: {prep['error']}"])
                       if "error" not in r else r for r in results]
    attempted, failed, notes = check(results, pin)
    good = [r for r in results if "error" not in r]
    summary = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "samples": len(results),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted if attempted else 1.0,
        "notes": notes,
        "digests": good[0]["digests"] if good else {},
        "python": good[0]["python"] if good else None,
        "numpy": good[0]["numpy"] if good else None,
        "platform": good[0]["platform"] if good else None,
        "health": [r["health"] for r in good],
        "worker_exit_codes": [r["worker_exit_codes"] for r in good],
        "raw": {
            key: [r[key] for r in good if not r["trace"]]
            for key in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")
        },
    }
    untraced = [r for r in good if not r["trace"]]
    traced = [r for r in good if r["trace"]]
    summary["e2e"] = {
        key: reported(key, values) for key, values in summary["raw"].items()
        if values
    }
    if trace and traced and untraced:
        layers = {
            key: statistics.median(r["layers"][key] for r in traced)
            for key in traced[0]["layers"]
        }
        layers["trace.overhead"] = (
            reported("wall_s", [r["wall_s"] for r in traced])
            / reported("wall_s", [r["wall_s"] for r in untraced])
        )
        summary["layers"] = layers
    return summary


def _print_summary(s: dict, spec: dict) -> None:
    print(f"{s['workload']} seed={s['seed']}: {s['samples']} samples, "
          f"failed {s['failed']}/{s['attempted']} scenario runs "
          f"(failed_frac {s['failed_frac']:g})")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for key, value in s["e2e"].items():
        raw = s["raw"][key]
        print(f"  {key:<14} {value:12.4f} {units[key]:<3} [min {min(raw):.4f}, "
              f"median {statistics.median(raw):.4f}, max {max(raw):.4f}, "
              f"n={len(raw)}]")
    codes = s["worker_exit_codes"]
    if any(code for sample_codes in codes for code in sample_codes):
        print(f"  serve-worker exit codes: {codes}")
    dead = [h for h in s["health"] if any(h[k] for k in
            ("worker_dead", "lease_retries", "local_fallbacks"))]
    if dead:
        print(f"  service health: {dead}")
    if "layers" in s:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        import spans

        for key, value in s["layers"].items():
            print(f"  {key:<38} {value:14.6g} {units[key]}")
        zero = [k for k in spans.EXERCISED[s["workload"]] if not s["layers"][k]]
        moved = [k for k in spans.PREDICTED_ZERO[s["workload"]] if s["layers"][k]]
        print(f"  exercised but zero: {zero or 'none'}; "
              f"predicted ~0 but moved: {moved or 'none'}")
    for note in s["notes"][:5]:
        print(f"  ! {note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="time to spend per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="store this seed's scenario digests as the pins")
    args = parser.parse_args(argv)
    # Unwind on SIGTERM too, so the running sample's group is killed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    chosen = names if args.workload == "all" else [args.workload]
    if not set(chosen) <= set(names):
        print(f"unknown workload {args.workload!r}; choose from {names} or all",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S * len(chosen)
    stamp_dir = OUT / (time.strftime("%Y%m%d-%H%M%S")
                       + f"-{args.workload}-s{args.seed}-{os.getpid()}")
    stamp_dir.mkdir(parents=True)
    pins_doc = json.loads(PINS.read_text()) if PINS.exists() else {"workloads": {}}

    summaries = []
    for i, workload in enumerate(chosen):
        share = (deadline - time.monotonic()) / (len(chosen) - i)
        pin = None if args.pin else (
            pins_doc["workloads"].get(workload, {}).get(str(args.seed))
        )
        s = measure(workload, args.seed, seconds, bool(args.trace),
                    stamp_dir, time.monotonic() + share, pin)
        _print_summary(s, spec)
        summaries.append(s)
        if args.pin and s["failed"] == 0:
            pins_doc["workloads"].setdefault(workload, {})[str(args.seed)] = {
                "platform": s["platform"], "digests": s["digests"],
            }

    if args.pin:
        PINS.write_text(json.dumps(pins_doc, indent=1, sort_keys=True) + "\n")
        print(f"pinned seed {args.seed} for "
              f"{[s['workload'] for s in summaries if s['failed'] == 0]} in {PINS}")
    (stamp_dir / "results.json").write_text(json.dumps({
        "commit": _commit(),
        "seed": args.seed,
        "seconds": seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": summaries[0]["python"],
        "numpy": summaries[0]["numpy"],
        "runs": summaries,
    }, indent=1) + "\n")

    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for s in summaries:
        values = s.get("layers", {}) if args.trace else s["e2e"]
        for m in spec[kind]:
            if m["name"] in values:
                key = m["name"] if len(chosen) == 1 else f"{s['workload']}.{m['name']}"
                metrics[key] = {"value": values[m["name"]], "unit": m["unit"]}
    attempted = sum(s["attempted"] for s in summaries)
    failed = sum(s["failed"] for s in summaries)
    expected = len(spec[kind]) * len(chosen)
    correct = failed == 0 and len(metrics) == expected
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
