#!/usr/bin/env python3
"""Benchmark of toruslie: seeded closed-loop workloads, checked outputs,
end-to-end metrics, and a traced run for per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload catalog --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload catalog --seed 1 --seconds 25 --trace 1
    python3 bench/run.py --self-check

One process and one client: the next op starts when the last one returned.
The program is imported from ``src/`` of the checkout.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it describe
the environment and list every metric with its unit and sample count.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, measured
with tracing off.  ``--trace 1`` alternates untraced and traced
repetitions of a fixed op list and reports the per-layer metrics: work
counts, busy and self time per layer, and the tracing overhead.

``--workload moduli-sweep`` runs the moduli-space sweep of rot2, c2c2
and cn/dn on seeded lattices, today's known failures included, so its
runs report ``correct: false``.  BENCHMARK.json does not list it: on a
shared machine its timed metrics spread too widely over seeds for a
regression bound.

``failed`` counts ops that are not certified or whose output the
benchmark finds wrong (see workloads.py).  ``--self-check`` runs every
workload for one second in both modes and checks that every metric of
BENCHMARK.json prints with its unit; it exits 1 if any does not.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# one BLAS thread, fixed before numpy is first imported (by measure, in main)
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
# the CLI reads its default tolerance from here; results must not depend on it
os.environ.pop("TORUSLIE_TOL", None)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=("catalog", "moduli-sweep", "cli", "wp-eval"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true",
                    help="run every workload briefly in both modes and check the metric names")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not args.self_check and args.workload is None:
        ap.error("--workload is required")
    return args


# ---------------------------------------------------------------------------
# environment


def environment() -> dict:
    import numpy as np

    blas = "unknown"
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep['name']} {dep['version']}"
    except (KeyError, TypeError, ValueError):
        pass
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


# ---------------------------------------------------------------------------
# output


def declared_units(trace: int) -> dict | None:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    spec = json.loads(path.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def report(args, metrics, attempted, failed, notes, info) -> int:
    print(json.dumps({"env": environment(), "workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "seconds": args.seconds, **info}))
    for name, (value, unit, detail) in metrics.items():
        print(f"  {name:42s} {value:>16.6g} {unit:9s} {detail}")
    for note, count in sorted(notes.items()):
        if note:
            print(f"  {note} (x{count})")
    declared = declared_units(args.trace)
    mismatch = declared is not None and declared != {k: v[1] for k, v in metrics.items()}
    if mismatch:
        print("error: metric names or units differ from BENCHMARK.json", file=sys.stderr)
    result = {
        "correct": failed == 0 and not mismatch,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u, _) in metrics.items()},
    }
    print(json.dumps(result, allow_nan=False))
    return 1 if mismatch else 0


def self_check() -> int:
    """Every workload briefly in both modes; every declared metric must print."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bad = 0
    for wl in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", wl["name"],
                 "--seed", "1", "--seconds", "1", "--trace", str(trace)],
                capture_output=True, text=True, timeout=600,
            )
            lines = proc.stdout.strip().splitlines()
            try:
                res = json.loads(lines[-1])
                units = {k: v["unit"] for k, v in res["metrics"].items()}
                ok = (proc.returncode == 0 and res["correct"]
                      and set(res) == {"correct", "attempted", "failed", "metrics"}
                      and units == {m["name"]: m["unit"] for m in spec[key]})
            except (IndexError, KeyError, ValueError):
                ok = False
            bad += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {wl['name']} trace={trace} rc={proc.returncode}")
            for line in lines[1:-1]:
                print(f"     {line}")
            if not ok:
                print(proc.stderr[-2000:])
    print(f"self-check: {'passed' if not bad else f'{bad} failed'}")
    return 1 if bad else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "toruslie" / "__init__.py").is_file():
        print(f"error: program source not found under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.self_check:
        return self_check()
    import measure

    if args.setup_only:
        measure.setup(args.workload, args.seed)
        print(json.dumps({"ready": perf_counter()}))
        return 0
    runner = measure.run_traced if args.trace else measure.run_e2e
    metrics, attempted, failed, notes, info = runner(args.workload, args.seed, args.seconds)
    return report(args, metrics, attempted, failed, notes, info)


if __name__ == "__main__":
    sys.exit(main())
