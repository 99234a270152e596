"""Benchmark of the twinloss pipelines, with a separate traced pass per module.

Run from the root of a twinloss checkout; the package is imported from its
``src/`` directory:

    python3 bench/run.py --workload recovery --seed 1 --seconds 20 --trace 0

Workloads are ``recovery``, ``nuisance_fit``, ``crossover`` and ``ingest``
(see workloads.py).  Each runs as a closed loop in this one process: one op
at a time, the next starting when the previous has ended, until ``--seconds``
have passed and the workload's cycle of ops is complete.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (import twinloss
through one warm-up op, the median of this process and two fresh ones),
``ops_per_s`` (ops over the time spent in them), ``op_p50_s`` (the median
op time; where a workload's cycle mixes kinds of op, the median over the
cycle's positions of each position's median, so that it does not rest on
the two ops either side of the gap between kinds), ``peak_rss_mb`` and
``ok_frac`` (ops that passed their output check).

The three timings are scaled to one machine speed.  A shared host runs the
same code up to 1.7 times slower for tens of seconds at a time, which no run
length short enough to fit the benchmark averages away.  So a fixed piece of
work from the benchmark's own files (``workloads.reference_s``, about 25 ms)
is timed before the first op, after every op (twice for each second the op
took) and after every set-up.  The run's slowdown is the mean reference time
either side of each op, weighted by the op's time, over
``REFERENCE_NOMINAL_S``; op times are divided by it, and each set-up time by
the reference after it over the same, so the figures read as seconds on a
machine where the reference takes 25 ms.  The unscaled figures and the
slowdown are printed on the line before the result.
Since the reference shares the machine with the program, work that a change
leaves running between ops would slow the reference and flatter the scaled
figures; the unscaled ones show that.  BLAS and OpenMP run one thread.

``--trace 1`` runs every op twice on the same input, untraced and traced in
alternating order, and reports per-layer metrics derived from the spans
(see spans.py); ``trace.overhead_frac`` compares the two.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds run metadata.  Spans and per-op work counts are written to
``bench/out/``.  Exits non-zero without a result when the checkout has no
``src/twinloss``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

# set before numpy loads: the load stays one thread on a small shared machine
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
# fresh processes that repeat the set-up next to this one
SETUP_CHILDREN = 2
# reference time of the machine speed the timings are scaled to
REFERENCE_NOMINAL_S = 0.025
# op seconds per reference timed after the op; references timed after a set-up
REFERENCE_EVERY_S = 0.5
SETUP_REFERENCES = 8
# a run stops mid-cycle past this, so it always exits well within 180 s
HARD_STOP_S = 140.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=("recovery", "nuisance_fit", "crossover", "ingest")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    # internal: time one set-up in a fresh process and print it
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def import_twinloss():
    if not os.path.isfile(os.path.join(SRC, "twinloss", "__init__.py")):
        raise SystemExit(f"bench: no twinloss package under {SRC}")
    sys.path.insert(0, SRC)
    import twinloss

    if not os.path.abspath(twinloss.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"bench: imported twinloss from {twinloss.__file__}, not {SRC}")
    return twinloss


def child_setup_s(args) -> tuple[float, float]:
    """Set-up time and reference time measured in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up child failed: {done.stderr.strip()[-500:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return result["setup_s"], result["reference_s"]


def attempt(workload, inp, context):
    """Run one op inside ``context``, then check it: (seconds, output or None, problem or None)."""
    start = time.perf_counter()
    try:
        with context:
            out = workload.run(inp)
    except Exception:
        return time.perf_counter() - start, None, traceback.format_exc(limit=4)
    seconds = time.perf_counter() - start
    try:
        return seconds, out, workload.check(inp, out)
    except Exception:
        return seconds, out, traceback.format_exc(limit=4)


def run_loop(workload, seconds, body, min_ops=1):
    """Call body(op) in a closed loop, in whole cycles, for about ``seconds``.

    The loop stops on the cycle boundary nearest to ``seconds``, reckoning
    the next cycle at the mean cycle time so far.
    """
    start = time.perf_counter()
    op = 0
    while True:
        body(op)
        op += 1
        elapsed = time.perf_counter() - start
        if elapsed > HARD_STOP_S:
            return
        if op % workload.cycle == 0 and op >= min_ops:
            if elapsed * (1 + workload.cycle / (2 * op)) > seconds:
                return


def git_sha() -> str:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, check=False,
        )
    except OSError:
        return "unknown"
    return done.stdout.strip() or "unknown"


def metadata(np, scipy, args) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = 0
    for folder, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), encoding="utf-8") as handle:
                    src_lines += sum(1 for _ in handle)
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "src_lines": src_lines,
    }


def blas_threads():
    """Thread count of the loaded OpenBLAS, asked through its own API."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            paths = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return int(getter())
    return None


def main(argv=None) -> int:
    args = parse_args(argv)
    setup_start = time.perf_counter()
    twinloss = import_twinloss()
    import numpy as np
    import scipy

    import spans
    import workloads

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        workload.warmup()
        setup_s = time.perf_counter() - setup_start
        setup_ref = statistics.median(workloads.reference_s() for _ in range(SETUP_REFERENCES))
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "reference_s": setup_ref}))
            return 0

        meta = metadata(np, scipy, args)
        probes = workload.probes()
        records = []  # (op, traced, seconds, problem)
        results = []  # (input, output) of untraced ops
        # mean reference time before the first op and after each op, untraced runs only
        references = []

        def take_references(seconds):
            count = max(1, round(seconds / REFERENCE_EVERY_S))
            references.append(statistics.fmean(workloads.reference_s() for _ in range(count)))

        tracer = spans.Tracer(twinloss) if args.trace else None

        def measure(op):
            inp = workload.inputs(op)
            if tracer is None and not references:
                take_references(0)
            order = (False, True) if op % 2 == 0 else (True, False)
            for traced in order if tracer else (False,):
                context = tracer.op(op) if traced else contextlib.nullcontext()
                seconds, out, problem = attempt(workload, inp, context)
                if traced and out is not None:
                    tracer.op_walls[op] = seconds
                elif not traced:
                    results.append((inp, out))
                records.append((op, traced, seconds, problem))
            if tracer is None:
                take_references(seconds)

        if tracer is None:
            setup_samples = [(setup_s, setup_ref)]
            setup_samples += [child_setup_s(args) for _ in range(SETUP_CHILDREN)]
        run_loop(workload, args.seconds, measure, workload.window if tracer else 1)
        problems = workload.finish(results)

        failed = [r for r in records if r[3] is not None]
        for op, traced, _, problem in failed[:3]:
            print(f"op {op} (traced={traced}) failed: {problem}", file=sys.stderr)
        for problem in problems:
            print(f"run check failed: {problem}", file=sys.stderr)

        untraced = [r[2] for r in records if not r[1]]
        detail = {"meta": meta, "ops": [list(r[:3]) + [r[3] is None] for r in records]}
        if tracer is None:
            around = [(before + after) / 2 for before, after in zip(references, references[1:])]
            slowdown = sum(t * r for t, r in zip(untraced, around)) / sum(untraced)
            slowdown /= REFERENCE_NOMINAL_S
            p50 = statistics.median(
                statistics.median(untraced[i::workload.cycle])
                for i in range(min(workload.cycle, len(untraced)))
            )
            setup_scaled = [s * REFERENCE_NOMINAL_S / r for s, r in setup_samples]
            metrics = {
                "setup_s": (statistics.median(setup_scaled), "s"),
                "ops_per_s": (len(untraced) / sum(untraced) * slowdown, "1/s"),
                "op_p50_s": (p50 / slowdown, "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
                "ok_frac": (1.0 - len(failed) / len(records), "ratio"),
            }
            unscaled = {
                "slowdown": slowdown,
                "setup_s": statistics.median(s for s, _ in setup_samples),
                "ops_per_s": len(untraced) / sum(untraced),
                "op_p50_s": p50,
            }
            detail["setup_samples"] = setup_samples
            detail["references"] = references
            detail["unscaled"] = unscaled
        else:
            window = list(range(workload.window))
            traced_ops = sorted(tracer.op_walls)
            paired = [r[2] for r in records if not r[1] and r[0] in tracer.op_walls]
            metrics, breakdown = spans.layer_metrics(tracer, window, sum(paired))
            metrics.update(probes)
            detail["breakdown"] = breakdown
            detail["op_counts"] = {op: spans.op_counts(tracer.spans, [op]) for op in traced_ops}
            detail["spans"] = tracer.spans
            top = breakdown["top_layer"]
            print(f"largest self-time layer on {args.workload}: {top} "
                  f"({breakdown['shares'][top]:.1%} of traced op time)")
            print(f"layer self times leave at most "
                  f"{metrics['trace.unattributed_frac'][0]:.2%} of any op's traced time "
                  f"unattributed; tracing overhead {metrics['trace.overhead_frac'][0]:+.2%}")

        name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        with open(os.path.join(OUT, name), "w", encoding="utf-8") as handle:
            json.dump(detail, handle)
        print(json.dumps({"meta": meta, "unscaled": detail.get("unscaled")}))
        print(json.dumps({
            "correct": not failed and not problems,
            "attempted": len(records),
            "failed": len(failed),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
