"""One benchmark iteration in a fresh process: set up, run, check.

    python benchmarks/e2e/iteration.py --workload NAME --seed N --workdir DIR
        [--fixture DIR] [--trace]

Times set-up (imports, campaign generation, in-process resolution) and
the run phase separately, digests every scenario's rows, and prints one
JSON object as its last stdout line.  ``run.py`` starts one of these per
sample so that no sample inherits another's caches.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parents[1] / "src"), str(HERE)]


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--fixture", type=Path)
    parser.add_argument("--size", default="full", choices=("full", "tiny"))
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    import numpy

    import repro.analysis.report  # noqa: F401  (imports are set-up work)
    import repro.service.coordinator  # noqa: F401
    import workloads

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer(args.workdir / "trace")
        tracer.install()
    camps = workloads.setup(args.workload, args.seed, args.size)
    setup_s = time.perf_counter() - T0

    worker_cmd = workloads.serve_worker_cmd
    if tracer is not None:
        def worker_cmd(address):
            return [sys.executable, str(HERE / "worker.py"), address,
                    "--trace-dir", str(tracer.out_dir)]

    self0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    out = workloads.run(args.workload, camps, args.workdir / "run",
                        fixture=args.fixture, worker_cmd=worker_cmd)
    wall_s = time.perf_counter() - t0
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)

    health = workloads.service_health(out.events)
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": _cpu(self1) - _cpu(self0) + _cpu(kids1) - _cpu(kids0),
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": max(self1.ru_maxrss, kids1.ru_maxrss) / 1024,
        "digests": workloads.scenario_digests(out.row_files),
        "expected": workloads.expected_keys(camps),
        "problems": out.problems,
        "health": health,
        "worker_exit_codes": out.worker_exit_codes,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": workloads.platform_tag(),
        "layers": None,
    }
    if tracer is not None:
        tracer.flush()
        tracer.uninstall()
        result["layers"] = spans.layer_metrics(
            spans.read_spans(tracer.out_dir), health, out.quarantined,
            workers=workloads.WORKERS,
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
