"""Run one workload of the advnav benchmark in this process.

    python3 perfbench/run.py --workload pretrain_clean --seed 1 --seconds 30 --trace 0

Run it from the repository root: the program is imported from ``src/``.
BLAS is pinned to one thread before numpy loads.  Progress and a readable
summary go to stderr; the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones of ``BENCHMARK.json``; with
``--trace 1`` every call into ``advnav`` is traced and the metrics are the
per-layer ones, and the spans are saved under ``perfbench/out/``.

Exit status: 0 when every check passed, 1 when a check failed, 2 when the
program cannot be imported or the arguments are wrong.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    try:
        import advnav
    except ImportError as exc:
        print(f"cannot import advnav from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(advnav.__file__).resolve().parent.parent != SRC:
        print(f"advnav was imported from {advnav.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    import bench
    import spans
    from checks import CheckFailed

    if args.workload not in bench.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(bench.WORKLOADS)}",
              file=sys.stderr)
        return 2
    tracer = spans.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    try:
        result = bench.run(args.workload, args.seed, args.seconds, tracer)
        correct = True
    except CheckFailed as exc:
        print(f"CHECK FAILED: {exc}", file=sys.stderr)
        result, correct = {"attempted": 1, "failed": 0, "metrics": {}}, False
    finally:
        if tracer:
            tracer.uninstall()
    if tracer and correct:
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        tracer.write(out / f"spans-{args.workload}-seed{args.seed}.npz",
                     {"workload": args.workload, "seed": args.seed, **result["spans"]})

    metrics = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    print(f"{args.workload} seed={args.seed} trace={args.trace}: attempted "
          f"{result['attempted']}, failed {result['failed']}", file=sys.stderr)
    for k, m in metrics.items():
        print(f"  {k:44s} {m['value']:14.6f} {m['unit']}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
