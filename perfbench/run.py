"""Benchmark entry point.

    python3 perfbench/run.py --workload canon_scan --seed 1 --seconds 10 --trace 0

Run from the root of a checkout: the package is imported from
``src/`` of the checkout that holds this file. One process, one
client, closed loop: each op starts after the previous one returned
and was verified. The loop runs a fixed number of whole cycles of the
workload's ops, set by ``--seconds`` (see ``workloads.cycles_for``), so
every run has the same mix and op count.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs a short
untraced loop, a traced loop of equal length, then the per-layer
passes, and prints the per-layer metrics. The last line of standard
output is the JSON result.
"""

from __future__ import annotations

import argparse
import os
import resource
import shutil
import statistics
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 3
# Each of the traced run's two loops runs this share of the cycles of a
# 10-second timed run, at least one cycle. Per-layer metrics have no
# bound, and the counts are exact over whole cycles.
TRACE_SHARE = 0.3
# Wall-clock limits, in seconds from process start, past which a loop
# stops at the end of its current cycle and says so on standard error.
# At the baseline machine's speed no run comes near them; they keep a
# run on a machine several times slower inside its time limit.
LOOP_DEADLINE_S = 120.0
TRACE_DEADLINES_S = (40.0, 80.0)    # untraced, traced loop of --trace 1
for _var in BLAS_THREAD_VARS:  # before numpy is imported, here and in children
    os.environ[_var] = "1"

_T0 = perf_counter()   # process start, as near as Python gets
sys.path.insert(0, str(ROOT))
from perfbench import layers, metrics, spans, speed, workloads  # noqa: E402  (imports numpy)

_NUMPY_IMPORT_S = perf_counter() - _T0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_loop(wl, cycles: int, deadline_s: float, call, report_failure, speed):
    """Closed loop over ``cycles`` whole cycles of the workload's ops.

    Returns raw op wall times, each op's speed factor and the failure
    count. ``speed.sample`` runs before every op and after the last, and
    an op that runs in this process is timed in segments
    (``speed.SegmentTimer``). Once ``deadline_s`` seconds from process
    start have passed, the loop stops at the end of the current cycle.
    """
    ops: list[list[tuple[float, float]]] = []    # (start, end) of each op's segments
    kernels: list[tuple[float, float]] = []
    timer = speed.SegmentTimer(kernels, enabled=not wl.runs_in_children)
    failed = 0
    k = 0
    try:
        for done in range(1, cycles + 1):
            for _ in range(wl.cycle):
                # sized by the op just done and by this op one cycle ago
                recent = ops[-1:] + ops[-wl.cycle:-wl.cycle + 1]
                speed.sample(kernels, max((seg[-1][1] - seg[0][0] for seg in recent), default=0.0))
                segments: list[tuple[float, float]] = []
                try:
                    out = timer.run(segments, call, k, wl.op)
                except Exception:  # an op that raises is a failed op, not a crash
                    out, problem = None, traceback.format_exc(limit=3)
                else:
                    problem = None
                ops.append(segments)
                problem = problem or workloads.verify(wl, k, out)
                if problem is not None:
                    failed += 1
                    report_failure(wl.name, k, problem)
                k += 1
            if done < cycles and perf_counter() - _T0 > deadline_s:
                sys.stderr.write(f"perfbench: {deadline_s:.0f} s limit reached, loop stopped "
                                 f"after {done} of {cycles} cycles\n")
                break
    finally:
        timer.close()
    speed.sample(kernels, ops[-1][-1][1] - ops[-1][0][0])
    raw, factors = scaled(ops, kernels)
    return raw, factors, failed


def scaled(ops: list[list[tuple[float, float]]], kernels: list[tuple[float, float]]):
    """Raw wall time and speed factor of each op, from the (start, end)
    of its segments: each segment is scaled by the kernels next to it."""
    seg_factors = iter(speed.factors([s for seg in ops for s in seg], kernels))
    raw, factors = [], []
    for seg in ops:
        wall = sum(end - t0 for t0, end in seg)
        at_reference = sum((end - t0) / next(seg_factors) for t0, end in seg)
        raw.append(wall)
        factors.append(wall / at_reference)
    return raw, factors


def pin_to_one_cpu() -> str:
    """Keep the benchmark and its CLI children on one CPU, so the speed
    kernel runs where the op it calibrates runs."""
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return "not pinned"
    return f"pinned to CPU {cpu}"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "rsmcanon" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no rsmcanon package under {ROOT / 'src'}\n")
        return 2
    t_import = perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import rsmcanon
    import_s = _NUMPY_IMPORT_S + perf_counter() - t_import

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}\n")
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src")] + (
        [env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    ctx = workloads.Context(root=ROOT, work=work, env=env, rc=rsmcanon)
    reported = []

    def report_failure(name, k, problem):
        if len(reported) < 5:  # the count is in the result; the first few say why
            sys.stderr.write(f"perfbench: {name} op {k} failed: {problem}\n")
        reported.append(k)

    try:
        cls = workloads.WORKLOADS[args.workload]
        pinning = pin_to_one_cpu()
        setup_ops: list[list[tuple[float, float]]] = []
        setup_kernels: list[tuple[float, float]] = []
        setup_timer = speed.SegmentTimer(setup_kernels, enabled=not cls.runs_in_children)

        def set_up():
            wl = cls(ctx, args.seed)
            try:
                return wl, workloads.verify(wl, 0, wl.op(0))
            except Exception:
                return wl, traceback.format_exc(limit=3)

        warm_failed = 0
        setup_reps = SETUP_REPS if args.trace == 0 else 1   # set-up is timed only untraced
        try:
            for _ in range(setup_reps):
                speed.sample(setup_kernels, 1.0)
                setup_ops.append([])
                wl, problem = setup_timer.run(setup_ops[-1], set_up)
                if problem is not None:
                    warm_failed += 1
                    report_failure(wl.name, 0, problem)
        finally:
            setup_timer.close()
        speed.sample(setup_kernels, 1.0)
        setup_raw, setup_factors = scaled(setup_ops, setup_kernels)
        setup_runs = [t / f for t, f in zip(setup_raw, setup_factors)]

        if args.trace == 0:
            cycles, deadline_s = workloads.cycles_for(wl, args.seconds), LOOP_DEADLINE_S
        else:
            cycles, deadline_s = max(1, round(TRACE_SHARE * wl.cycles_10s)), TRACE_DEADLINES_S[0]
        raw, factors, loop_failed = run_loop(wl, cycles, deadline_s, lambda k, op: op(k),
                                             report_failure, speed)
        latencies = [t / f for t, f in zip(raw, factors)]
        attempted = len(latencies) + setup_reps
        failed = loop_failed + warm_failed
        p50_ms = statistics.median(latencies) * 1e3
        tail_ms, tail_pct, n = metrics.tail([t * 1e3 for t in latencies])
        usage = resource.getrusage(resource.RUSAGE_CHILDREN if wl.runs_in_children
                                   else resource.RUSAGE_SELF)
        print(f"workload {wl.name}: seed {args.seed}, one client, closed loop, "
              f"{len(latencies)} ops in {len(latencies) // wl.cycle} cycles of {wl.cycle}; "
              f"BLAS threads 1 ({', '.join(BLAS_THREAD_VARS)}); {pinning}")
        print(f"  op_ms_p50 {p50_ms:.4f} ms, op_ms_tail {tail_ms:.4f} ms "
              f"(p{tail_pct:.2f} of {n} ops), fail_ratio {failed / attempted:.4g} "
              f"({failed}/{attempted})")
        print(f"  at reference speed; raw wall op_ms_p50 {statistics.median(raw) * 1e3:.4f} ms, "
              f"speed factor median {statistics.median(factors):.3f} "
              f"(set-up {statistics.median(setup_factors):.3f}); import {import_s:.3f} s raw, "
              f"set-ups " + ", ".join(f"{t:.3f}" for t in setup_runs) + " s")
        if wl.name == "surface_eval":
            print("  share of points inside the band: "
                  + ", ".join(f"{wl.inside_share(b):.3f}" for b in range(len(wl.points))))

        if args.trace == 0:
            values = metrics.end_to_end(latencies, wl.cycle, loop_failed,
                                        setup_runs, import_s / setup_factors[0],
                                        usage.ru_maxrss / 1024.0)
            for name, value in values.items():
                print(f"  {name} {value:.6g}")
            print(metrics.result_line("end_to_end", values, attempted, failed))
            return 0

        rec = spans.SpanRecorder()
        counts: Counter[str] = Counter()

        def traced_op(k, op):
            # a surface_eval op records ~30,000 spans: count them per op and
            # let them go, so a long traced loop stays small in memory
            out = rec.run_op(k, op, k)
            counts.update(s.name for s in rec.spans)
            rec.spans.clear()
            return out

        restore = spans.install(rec)
        try:
            traced_raw, traced_factors, traced_failed = run_loop(
                wl, len(latencies) // wl.cycle, TRACE_DEADLINES_S[1], traced_op,
                report_failure, speed)
        finally:
            restore()
        traced = [t / f for t, f in zip(traced_raw, traced_factors)]
        values = layers.loop_counts(counts, len(traced))
        values["trace.overhead_ratio"] = statistics.median(traced) * 1e3 / p50_ms
        probe, probe_ops, probe_failed = layers.traced_pass(ctx, args.seed, {wl.name: wl},
                                                             report_failure)
        values.update(probe)
        values.update(layers.jacobi_sweep(rsmcanon, args.seed))
        cli = wl if wl.name == "eu_cli" else workloads.EuCli(ctx, args.seed)
        values.update(layers.cli_split(ctx, cli))
        attempted += len(traced) + probe_ops
        failed += traced_failed + probe_failed
        for name, value in sorted(values.items()):
            print(f"  {name} {value:.6g}")
        print(metrics.result_line("per_layer", values, attempted, failed))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    raise SystemExit(main())
