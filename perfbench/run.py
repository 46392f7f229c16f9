"""Run one benchmark workload and print its result.

    python3 perfbench/run.py --workload {detect,sweep,train,cli} --seed N --seconds S --trace {0,1}

Run from the root of a checkout (the library is imported from ``src/``).
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of the span tracer with ``--trace 1``.
Each run also writes ``perfbench/results/<workload>-...json`` (versions,
nproc, BLAS threads, metrics, counts) and, when traced, its spans to
``perfbench/out/spans-<workload>.jsonl``. See README.md.
"""

from __future__ import annotations

import os

# one BLAS thread unless the caller fixed another count (BENCHMARK.json does)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
SETUP_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "round_s": "s",
    "op_p50_ms.pfh-svm": "ms",
    "op_p50_ms.cnn": "ms",
    "points_per_s.pfh-svm": "points/s",
    "points_per_s.cnn": "points/s",
    "f1.pfh-svm": "F1",
    "f1.cnn": "F1",
}


def run_workload(name, seed, seconds, trace, sizes, model_dir, work_dir, spans_path=None) -> dict:
    """Set up (repeated), time whole rounds for ``seconds``, check, measure.

    Each time is divided by the host clock's factor around it (see
    workloads.HostClock). Returns the result object, plus the raw intervals
    (perf_counter seconds) and clock samples under ``detail``.
    """
    import checks
    import tracing
    import workloads

    tracer = tracing.Tracer()
    wl = workloads.WORKLOADS[name](seed, sizes, model_dir, work_dir)
    if trace:
        tracer.install()
        tracer.active = True
    setup_times, round_times = [], []
    correct, problem, metrics = True, None, {}
    try:
        for _ in range(SETUP_REPEATS):
            wl.clock.sample()
            start = time.perf_counter()
            with tracer.phase("bench.setup"):
                wl.setup()
            setup_times.append((start, time.perf_counter()))
        wl.clock.sample()
        wl.warmup()
        begin = time.perf_counter()
        while not round_times or time.perf_counter() - begin < seconds:
            start, clock_before = time.perf_counter(), wl.clock.spent
            with tracer.phase("bench.round"):
                wl.round(len(round_times))
            end = time.perf_counter()
            round_times.append((start, end, end - start - (wl.clock.spent - clock_before)))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        tracer.active = False
        wl.check()
        setup_s = [(end - start) / wl.clock.factor(start, end) for start, end in setup_times]
        round_s = [busy / wl.clock.factor(start, end) for start, end, busy in round_times]
        if trace:
            metrics = tracer.layer_metrics(round_s)
        else:
            metrics = {
                "setup_s": statistics.median(setup_s),
                "peak_rss_mb": peak_rss_mb,
                "round_s": statistics.median(round_s),
                **wl.metrics(),
            }
    except checks.CheckFailed as exc:
        correct, problem = False, str(exc)
    finally:
        tracer.active = False
        tracer.uninstall()
        wl.close()
    if trace and spans_path:
        tracer.write(spans_path)
    units = END_TO_END if not trace else {m: tracing.metric_unit(m) for m in metrics}
    return {
        "correct": correct,
        "attempted": wl.attempted,
        "failed": wl.failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
        "detail": {
            "setup_s": setup_times, "round_s": round_times, "op_s": wl.op_times,
            "host_clock_s": wl.clock.samples, "problem": problem,
        },
    }


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("detect", "sweep", "train", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "peduncle", "__init__.py")):
        print(f"error: no library sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    import models
    import workloads

    model_dir, build_s = models.ensure_models()
    stamp = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    result = run_workload(
        args.workload, args.seed, args.seconds, args.trace, workloads.FULL, model_dir,
        os.path.join(out_dir, f"cli-{os.getpid()}"),
        os.path.join(out_dir, f"spans-{args.workload}.jsonl"),
    )
    detail = result.pop("detail")
    if not result["correct"]:
        print(f"check failed: {detail['problem']}", file=sys.stderr)
    record = {
        "args": vars(args), "environment": environment(), "model_build_s": build_s,
        **result, "detail": detail,
    }
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    with open(os.path.join(HERE, "results", stamp + ".json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
