"""Benchmark of mhcvse: one workload per invocation, one JSON line of results.

    python3 bench/run.py --workload train|gallery|cli --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``
there. With ``--trace 0`` the last stdout line carries every end-to-end
metric of BENCHMARK.json, each measured on every workload; with
``--trace 1`` it carries every per-layer metric of BENCHMARK.json (0 where
the workload does not reach that layer) and the spans are written to
``.bench_out/``. Metric names and units come from BENCHMARK.json, so the
two cannot drift apart.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"


def _import_package():
    """mhcvse from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import mhcvse
    except ImportError as err:
        raise SystemExit(f"bench: cannot import mhcvse from {ROOT / 'src'}: {err}")
    if Path(mhcvse.__file__).resolve().parent.parent != ROOT / "src":
        raise SystemExit(f"bench: mhcvse was imported from {mhcvse.__file__}, "
                         f"not from {ROOT / 'src'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    os.environ.pop("MHCVSE_SEED", None)   # the program gets only our inputs
    _import_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload '{args.workload}' "
                     f"(one of {sorted(workloads.WORKLOADS)})")
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    run = workloads.Run(args.seed, args.seconds, work, ROOT, bool(args.trace))
    try:
        workloads.WORKLOADS[args.workload](run)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if run.tracer is not None:
        run.tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json")

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if args.trace:
        values = {name: run.metrics.get(name, 0.0) for name in units}
    else:
        missing = sorted(set(units) - set(run.metrics))
        if missing:
            raise SystemExit(f"bench: workload {args.workload} measured no {missing}")
        values = {name: run.metrics[name] for name in units}
    unknown = sorted(set(run.metrics)
                     - {m["name"] for m in spec["end_to_end"] + spec["per_layer"]})
    if unknown:
        raise SystemExit(f"bench: metrics missing from BENCHMARK.json: {unknown}")

    for name, value in values.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    print(f"{args.workload} attempted {run.attempted}, failed {run.failed}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": float(v), "unit": units[name]}
                    for name, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
