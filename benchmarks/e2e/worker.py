"""A traced serve-worker for ``run.py --trace`` on ``service-mixed``.

    python benchmarks/e2e/worker.py HOST:PORT --trace-dir DIR

Installs the span wrappers, then serves the coordinator exactly like
``python -m repro.experiments serve-worker HOST:PORT --workers 1
--retry-for 30``, with the same exit codes, and writes its spans to
``DIR`` when it stops.
"""

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parents[1] / "src"), str(HERE)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("address")
    parser.add_argument("--trace-dir", type=Path, required=True)
    args = parser.parse_args(argv)

    import repro.service.worker
    import spans

    tracer = spans.Tracer(args.trace_dir)
    tracer.install()
    try:
        repro.service.worker.serve_worker(args.address, workers=1, retry_for=30.0)
    except OSError as exc:
        print(f"serve-worker: {exc}", file=sys.stderr)
        return 1
    finally:
        tracer.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
