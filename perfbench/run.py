#!/usr/bin/env python3
"""crowdtrack benchmark: one workload per run, single process, single thread.

    python3 perfbench/run.py --workload track-corridor --seed 0 --seconds 30 --trace 0

Runs whole rounds of the workload until --seconds of wall time have passed
(and at least the workload's quality rounds), checks every output, and
times set-up and operations in process CPU seconds: the program runs on one
thread, so on an idle machine this equals wall time, and on a shared one
other processes' load does not inflate it.  It prints one JSON
object as the last line of standard output: the end-to-end metrics with
--trace 0, the per-layer metrics from a traced run with --trace 1.  A run
record (environment, per-operation times, digests) and, when traced, the
spans go under .perfbench/ at the repository root.
"""

import os
import sys

# One BLAS/OpenMP thread, set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from time import perf_counter, process_time  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
IMPORT_REPEATS = 5
WORKLOADS = ("track-corridor", "predict-crossing", "readme-cli")
#: Quality figures of the traced run; 0 on a workload without such trials.
QUALITY = ("bench.pf_track_success", "bench.hpf_track_success",
           "bench.rvo_error_L30_m", "bench.hpf_error_L30_m")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def timed_imports():
    """Import the package afresh several times; return the import times."""
    times = []
    for _ in range(IMPORT_REPEATS):
        for name in [n for n in sys.modules if n == "crowdtrack" or n.startswith("crowdtrack.")]:
            del sys.modules[name]
        t0 = process_time()
        importlib.import_module("crowdtrack")
        importlib.import_module("crowdtrack.cli")
        times.append(process_time() - t0)
    return times


def environment():
    import numpy
    from crowdtrack import accel
    return {"numba_enabled": bool(accel.NUMBA_ENABLED), "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0))}


def run(args):
    from perfbench import tracing, workloads

    workload = workloads.make(args.workload, os.path.join(OUT, "tmp"))
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)

    op_times = {kind: [] for kind in workload.kinds}
    round_times, build_times, quality, digests, failures = [], [], [], [], []
    throughputs = []
    attempted = failed = 0
    start = perf_counter()
    r = 0
    while r < workload.quality_rounds or perf_counter() - start < args.seconds:
        seed = workloads.scenario_seed(args.seed, r)
        t0 = process_time()
        inputs = workload.build(seed)
        build_times.append(process_time() - t0)
        round_quality, round_digests, round_total, round_frames = {}, {}, 0.0, 0
        try:
            for i, kind in enumerate(workload.kinds):
                if tracer is not None:
                    tracer.begin_op(f"{r}:{i}:{kind}", kind)
                attempted += 1
                t0 = process_time()
                try:
                    output = workload.operation(kind, inputs)
                except Exception:  # an operation that fails is counted, not fatal
                    failed += 1
                    print(f"round {r} {kind} failed:\n{traceback.format_exc()}", file=sys.stderr)
                    continue
                finally:
                    elapsed = process_time() - t0
                    if tracer is not None:
                        tracer.end_op()
                op_times[kind].append(elapsed)
                round_total += elapsed
                problems, n_frames, q, dig = workload.check(kind, inputs, output)
                failures += [f"seed {seed} {kind}: {p}" for p in problems]
                round_frames += n_frames
                round_quality.update(q)
                round_digests[kind] = dig
        finally:
            workload.cleanup(inputs)
        round_times.append(round_total)
        throughputs.append(round_frames / round_total if round_total else 0.0)
        quality.append(round_quality)
        digests.append(round_digests)
        r += 1
    wall = perf_counter() - start

    # A round with a failed operation lacks that operation's figure.
    width = max(map(len, quality))
    complete = [q for q in quality[:workload.quality_rounds] if width and len(q) == width]
    quality_values, problems = workload.quality(complete) if complete else ({}, [])
    failures += problems
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "rounds": r, "wall_s": wall, "op_times_s": op_times,
              "build_times_s": build_times, "quality": quality_values,
              "digests": digests, "failures": failures}
    return workload, tracer, record, attempted, failed, throughputs, round_times


def end_to_end(workload, record, import_times, throughputs, round_times):
    ops = record["op_times_s"]
    setup = statistics.median(import_times) + statistics.median(record["build_times_s"])
    return {
        "setup_s": (setup, "s"),
        "round_s": (statistics.median(round_times), "s"),
        "hpf_op_s": (statistics.median(ops[workload.main_kind]), "s"),
        "bypass_op_s": (statistics.median(ops[workload.bypass_kind]), "s"),
        "frames_per_s": (statistics.median(throughputs), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "crowdtrack", "__init__.py")):
        print(f"error: no crowdtrack sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    import_times = timed_imports()
    import crowdtrack
    if not os.path.abspath(crowdtrack.__file__).startswith(SRC + os.sep):
        print(f"error: imported crowdtrack from {crowdtrack.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload, tracer, record, attempted, failed, throughputs, round_times = run(args)
    record["environment"] = environment()
    record["import_times_s"] = import_times

    from perfbench import tracing
    if tracer is None:
        values = end_to_end(workload, record, import_times, throughputs, round_times)
    else:
        record["failures"] += tracing.consistency_failures(tracer)
        values = tracing.layer_metrics(tracer, record["rounds"])
        for name in QUALITY:
            values[name] = (record["quality"].get(name, 0.0),
                            "m" if name.endswith("_m") else "count")
        record["per_kind"] = {f"{kind}:{key}": value
                              for (kind, key), value in sorted(tracer.kind_counts.items())}
        tracer.write(os.path.join(OUT, f"spans-{args.workload}-{args.seed}.jsonl"))

    record["metrics"] = {k: v for k, (v, _) in values.items()}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"run-{args.workload}-{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    env = record["environment"]
    print(f"{args.workload} seed {args.seed}: {record['rounds']} rounds, {attempted} ops, "
          f"{failed} failed, {len(record['failures'])} check failures; numba "
          f"{env['numba_enabled']}, python {env['python']}, numpy {env['numpy']}, "
          f"nproc {env['nproc']}", file=sys.stderr)
    for failure in record["failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    result = {"correct": not record["failures"], "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in values.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
