"""crbayes benchmark: one workload per process, closed loop, one operation at a time.

    python3 perfbench/run.py --workload mh-analyze --seed 0 --seconds 35 --trace 0

The run builds the workload's datasets from the seed, then repeats the
workload's batch of operations until another batch would overrun
``--seconds`` (at least one batch; with ``--trace 1`` at least one traced
and one untraced batch, alternating). Every operation's output is checked.
The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``. The exit code is 0
when every check passed, 1 when one failed and 2 when the crbayes sources
are missing.

A record of the run (environment, per-operation results, line counts) and,
for traced runs, the spans go to ``.perfbench_out/`` in the repository
root. Reports are written to a fresh temporary directory there and removed.
"""

import time

_START = time.perf_counter()

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
FINGERPRINTS = HERE / "fingerprints.json"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "CRBAYES_THREADS")
SETUP_PROBES = 7


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("mh-analyze", "m0-large-support", "da-sweep"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only import crbayes and build the datasets (timed by the parent run)")
    return parser.parse_args(argv)


def import_crbayes():
    """Import crbayes from this checkout's sources, never from an installed copy."""
    if not (SRC / "crbayes" / "__init__.py").is_file():
        print(f"error: crbayes sources not found under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    # the workload is single-threaded; pin the BLAS pools before numpy loads
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import crbayes

    if Path(crbayes.__file__).resolve().parent != SRC / "crbayes":
        print(f"error: imported crbayes from {crbayes.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return crbayes


def setup_probes(args) -> list[dict]:
    """Set-up CPU and wall seconds of fresh interpreters, with their host speed.

    Each probe launches the benchmark with ``--setup-probe``. It reports its
    own CPU time at the end of set-up, which counts from process start, and
    stamps the wall clock then, so its exit is not timed: what follows set-up
    is the first operation. Then it times the reference workload, which gives
    the speed of the host while it ran.
    """
    probes = []
    for _ in range(SETUP_PROBES):
        launched = time.time()
        probe = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            check=True, timeout=120, capture_output=True, text=True,
        )
        _, cpu, ready, ref = probe.stdout.split()
        probes.append({"s": float(cpu), "wall_s": float(ready) - launched, "ref_s": float(ref)})
    return probes


def clear_caches(crbayes) -> None:
    """Empty every lru_cache in crbayes, so each batch starts as a fresh CLI process does."""
    for module in vars(crbayes).values():
        if type(module) is type(crbayes):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()


def environment(args, allowed: int, cpu: int) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_allowed": allowed,
        "pinned_cpu": cpu,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def pin_to_one_cpu() -> int:
    """Keep the run, its set-up probes included, on one CPU; returns that CPU.

    On the shared host each vCPU runs at its own speed, depending on the load
    on its physical core, and one vCPU can be two thirds slower than the
    other for minutes. A process that the scheduler moves between them
    changes speed in the middle of an operation, and the reference runs
    around that operation cannot tell.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def main(argv=None) -> int:
    args = parse_args(argv)
    allowed = len(os.sched_getaffinity(0))
    cpu = pin_to_one_cpu()
    crbayes = import_crbayes()
    import workloads
    from metrics import mean_batch, per_layer, rescaled, run_batch
    from reference import HostSpeed, reference, speed_probe
    from tracing import Tracer

    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        tracer = Tracer(enabled=bool(args.trace))
        datasets = workloads.build_datasets(args.workload, args.seed, tmp, tracer)
        if args.setup_probe:
            setup_cpu, ready = time.process_time(), time.time()
            print(f"ready {setup_cpu!r} {ready!r} {speed_probe()!r}")
            return 0
        setup_inprocess_s = time.perf_counter() - _START
        ops = workloads.build_ops(args.workload, datasets, args.seed)
        probes = [] if args.trace else setup_probes(args)

        stored = json.loads(FINGERPRINTS.read_text())
        tolerances = stored["tolerance"]
        fingerprints = stored["workloads"][args.workload] if args.seed == stored["seed"] else None

        ctx = workloads.Context(tracer=tracer, out_dir=tmp)
        reference()  # its first call pays first-use costs that the timed calls must not
        speed = HostSpeed()
        batches = []
        start = time.perf_counter()
        while True:
            tracer.enabled = bool(args.trace) and len(batches) % 2 == 0
            clear_caches(crbayes)
            batches.append(run_batch(ops, ctx, fingerprints, tolerances, speed))
            elapsed = time.perf_counter() - start
            if len(batches) >= 1 + args.trace and elapsed * (len(batches) + 1) / len(batches) > args.seconds:
                break
        measure_s = time.perf_counter() - start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    records = [r for b in batches for r in b["ops"]]
    failed = sum(1 for r in records if r["problems"])
    problems = [f"{r['key']}: {p}" for r in records for p in r["problems"]]
    untraced = [b for b in batches if not b["traced"]]
    traced = [b for b in batches if b["traced"]]
    src_lines = {p.name: len(p.read_text().splitlines()) for p in sorted((SRC / "crbayes").glob("*.py"))}
    for record in records:
        record["norm_s"] = rescaled(record["s"], speed.around(record["place"]))
    named = mean_batch(untraced, "norm_s")

    if args.trace:
        metrics = per_layer(tracer.spans, len(traced))
        metrics["trace.overhead_s"] = mean_batch(traced, "norm_s")["batch_s"] - named["batch_s"]
        metrics["src.lines"] = float(sum(src_lines.values()))
    else:
        metrics = {
            "setup_s": statistics.median(rescaled(p["s"], p["ref_s"]) for p in probes),
            "batch_s": named["batch_s"],
            "peak_rss_mb": peak_rss_mb,
        }
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    unit_of = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}

    record = {
        "env": environment(args, allowed, cpu),
        "batches": [{"traced": b["traced"], "batch_s": b["batch_s"]} for b in batches],
        "measure_s": measure_s,
        "setup_inprocess_s": setup_inprocess_s,
        "setup_probes": probes,
        "named_s": named,
        "named_cpu_s": mean_batch(untraced),
        "ref_s": speed.samples,
        "failed": failed,
        "attempted": len(records),
        "bytes_written_per_batch": sum(r["bytes"] for r in batches[0]["ops"]),
        "src_lines": src_lines,
        "metrics": metrics,
        "operations": [
            {**r, **{f: [b["ops"][i][f] for b in batches] for f in ("s", "wall_s", "norm_s", "place")}}
            for i, r in enumerate(batches[0]["ops"])
        ],
        "problems": problems,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(tracer.spans) + "\n")

    print(f"workload {args.workload}, seed {args.seed}: {len(batches)} batches "
          f"({len(traced)} traced) in {measure_s:.1f} s; record in {OUT.name}/{stem}.json")
    for name, value in named.items():
        print(f"  {name:<44} {value:.6g} s (CPU at the reference speed, mean over batches)")
    print(f"  {'failed_frac':<44} {failed / len(records):.6g} ({failed} of {len(records)} operations)")
    print(f"  {'bytes_written':<44} {record['bytes_written_per_batch']} bytes per batch")
    for name, value in metrics.items():
        print(f"  {name:<44} {value:.6g} {unit_of[name]}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    print("env " + json.dumps(record["env"]))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of[name]} for name, value in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
