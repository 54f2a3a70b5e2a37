"""Run the repository benchmark: one workload, or every workload in turn.

    python3 perfbench/run.py --workload reactnet-warm --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --seed 1        # all workloads, one child each

Run from the root of a checkout.  The report goes to standard output;
its last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics`` -- the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  Any output that differs from the float oracle makes the
exit status 1; a checkout without the program's source exits with 2
before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from multiprocessing import resource_tracker
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench_work"
TRACE_DIR = ROOT / ".perfbench_out"
BLAS_THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: the workload-level claims a traced run checks and prints
CLAIMS = {
    "reactnet-warm": [
        ("no kernel-cache misses after warm-up",
         lambda m, own: m["kernel_cache.misses"] == 0),
    ],
    "serve-poisson": [
        ("daemon overhead exceeds execute time",
         lambda m, own: m["daemon.overhead_ms"] > m["daemon.execute_ms"]),
    ],
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="a workload name from BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time (default: BENCHMARK.json's)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="toy runs every workload on the small model")
    return parser.parse_args(argv)


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = load_spec()
    names = [workload["name"] for workload in spec["workloads"]]
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.workload not in names + ["all"]:
        print(f"unknown workload {args.workload!r}; one of {names}",
              file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program source under {ROOT / 'src'}; nothing to measure",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, names)
    # the program's own parallelism (daemon workers, fleet processes,
    # contraction threads) is what is measured; a BLAS pool per process
    # on top of it would oversubscribe the cores
    for variable in BLAS_THREAD_VARIABLES:
        os.environ[variable] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    return run_one(args, spec)


def run_one(args, spec) -> int:
    import host
    import workloads

    scale = workloads.FULL if args.size == "full" else workloads.TOY
    WORKDIR.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORKDIR))
    try:
        ctx = workloads.Context(
            seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
            scale=scale, workdir=scratch,
        )
        result = workloads.WORKLOADS[args.workload](ctx)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        # spawning the fleet's workers launched multiprocessing's
        # resource tracker; stop and reap it so nothing outlives the run
        getattr(resource_tracker._resource_tracker, "_stop", lambda: None)()

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    measured = dict(result.metrics)
    if not args.trace:
        measured["ok_frac"] = 1.0 - result.failed / max(result.attempted, 1)
    unknown = sorted(set(measured) - set(units))
    if unknown:
        raise KeyError(f"measured but not declared in BENCHMARK.json: {unknown}")
    missing = [name for name in units if name not in measured]
    if missing and not args.trace:
        raise KeyError(f"end-to-end metrics not measured: {missing}")

    print(json.dumps({
        "workload": args.workload, "size": args.size, "trace": args.trace,
        "seconds": args.seconds,
        "provenance": host.provenance(ROOT, args.seed),
    }))
    print(json.dumps({"notes": result.notes}, default=str))
    if args.trace:
        # layers this workload never calls read as zero
        print("not exercised here (reported as 0): " + (", ".join(missing) or "-"))
        for name in missing:
            measured[name] = 0
        report_trace(args, result, measured)
    for name, unit in units.items():
        print(f"  {name:32s} {measured[name]:>16.6g} {unit}")
    print(json.dumps({
        "correct": result.mismatches == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": measured[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 1 if result.mismatches else 0


def report_trace(args, result, measured) -> None:
    """Self time per span name, the workload's claims, and the span dump."""
    tracer = result.tracer
    own = {
        name: seconds for name, seconds in tracer.self_times().items()
        if not name.startswith("setup.")
    }
    total = sum(own.values()) or 1.0
    # set-up phases are left out, but the artifact calls made in them
    # (decode, store.read, pack, signs) are not
    print("self time over the traced set-up's artifact calls and the traced window:")
    for name, seconds in sorted(own.items(), key=lambda item: -item[1]):
        print(f"  {name:32s} {seconds:10.4f} s {100 * seconds / total:6.1f}%")
    for claim, holds in CLAIMS.get(args.workload, ()):
        verdict = "holds" if holds(measured, own) else "DOES NOT HOLD"
        print(f"claim: {claim}: {verdict}")
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(path)
    print(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")


def run_all(args, names) -> int:
    """Each workload in its own child process, then one combined line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in names:
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--size", args.size,
        ]
        print(f"== {name}", flush=True)
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        print(child.stdout, end="", flush=True)
        status = max(status, child.returncode)
        lines = child.stdout.strip().splitlines()
        try:
            last = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            combined["correct"] = False
            continue
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for metric, value in last["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return status


if __name__ == "__main__":
    sys.exit(main())
