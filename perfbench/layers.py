"""Per-layer metrics for the traced run.

Three sources, all measured inside the traced run:

* the workload's own traced loop gives the exact call counts per op
  and the tracing overhead;
* one traced pass over a cycle of every in-process workload gives
  self time per call for each wrapped function, so every layer is
  reported on every workload, from the same inputs;
* direct Jacobi calls on graded matrices and bare interpreter
  subprocesses give the eigen size sweep and the CLI import split.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np

from . import inputs, spans, workloads

JACOBI_SIZES = {4: 21, 16: 7, 32: 3, 64: 3}   # n -> repetitions
CLI_BASELINE_REPS = 6   # one pass over the eu_cli command cycle


def loop_counts(counts, ops: int) -> dict[str, float]:
    """Exact call counts per op of the workload's traced loop, from a
    span-name Counter."""
    return {
        "linalg.jacobi_eigen.calls": counts["linalg.jacobi_eigen"] / ops,
        "linalg.solve.calls": counts["linalg.solve"] / ops,
        "trace.spans_per_op": sum(counts.values()) / ops,
    }


def _per_call_ms(rec: spans.SpanRecorder, self_s: list[float], name: str) -> float:
    values = [t for s, t in zip(rec.spans, self_s) if s.name == name]
    return 1e3 * sum(values) / len(values) if values else 0.0


def _inclusive_us(rec: spans.SpanRecorder, name: str, points_per_call: int = 1) -> float:
    values = [s.end - s.start for s in rec.spans if s.name == name]
    return 1e6 * sum(values) / (len(values) * points_per_call) if values else 0.0


def traced_pass(ctx: workloads.Context, seed: int, setups: dict,
                report_failure) -> tuple[dict[str, float], int, int]:
    """One traced cycle of canon_scan, fit_screen and surface_eval, plus
    load_model calls on the bundled model; self time per call.

    Returns the metrics and the (attempted, failed) op counts; every
    op's output is verified after the wrappers are removed.
    """
    rc = ctx.rc
    canon = setups.get("canon_scan") or workloads.CanonScan(ctx, seed)
    fit = setups.get("fit_screen") or workloads.FitScreen(ctx, seed)
    surface = setups.get("surface_eval") or workloads.SurfaceEval(ctx, seed)
    rec = spans.SpanRecorder()
    fit_ops: dict[str, int] = {}
    json_bytes, csv_bytes, outputs = [], [], []
    restore = spans.install(rec)
    try:
        op_id = 0
        for wl in (canon, fit, surface):
            for j in range(wl.cycle):
                out = rec.run_op(op_id, wl.op, j)
                outputs.append((wl, j, out))
                if wl is canon:
                    json_bytes.append(len(out[1].encode()))
                elif wl is surface:
                    csv_bytes.extend(len(batch[3].encode()) for batch in out)
                else:
                    fit_ops[workloads.FIT_REQUESTS[j].label] = op_id
                op_id += 1
        for _ in range(5):
            rec.run_op(op_id, rc.load_model, rc.bundled_eu_model_path())
            op_id += 1
    finally:
        restore()
    failed = 0
    for wl, j, out in outputs:
        problem = workloads.verify(wl, j, out)
        if problem is not None:
            failed += 1
            report_failure(wl.name, j, problem)
    self_s = spans.self_times(rec.spans)

    def fit_span(label: str) -> int:
        """Index of the top-level ols_fit span of one fit request."""
        return next(k for k, s in enumerate(rec.spans)
                    if s.name == "fitting.ols_fit" and s.op == fit_ops[label]
                    and rec.spans[s.parent].name == "op")

    out = {name + ".self_ms": _per_call_ms(rec, self_s, name) for name in (
        "modelio.load_emissions", "modelio.save_model", "modelio.load_model",
        "modelio.emit_plot_csv", "linalg.jacobi_eigen", "canonical.canonicalize",
        "regions.region", "tradeoff.conversion_rates", "tradeoff.iso_slopes",
        "fitting.f_rank", "report.run_analysis", "report.to_json", "report.to_text")}
    out["modelio.emit_plot_csv.bytes"] = statistics.mean(csv_bytes)
    out["report.json_bytes"] = statistics.mean(json_bytes)
    out["model.predict_response.us_per_point"] = _inclusive_us(rec, "model.predict_response")
    out["regions.contains.us_per_point"] = _inclusive_us(rec, "regions.contains")
    out["canonical.to_canonical.us_per_point"] = _inclusive_us(rec, "canonical.to_canonical")
    out["regions.boundary_points.us_per_point"] = _inclusive_us(
        rec, "regions.boundary_points", workloads.SURFACE_SAMPLES)
    for label in ("p8", "p14", "p20"):
        k = fit_span(label)
        out[f"fitting.ols_fit.self_ms_{label}"] = 1e3 * self_s[k]
        out[f"fitting.eigen_calls_per_fit_{label}"] = sum(
            1 for s in rec.spans if s.parent == k and s.name == "linalg.jacobi_eigen")
    k = fit_span("rank_deficient")
    out["fitting.rank_deficient_ms"] = 1e3 * (rec.spans[k].end - rec.spans[k].start)
    out["fitting.coef_rel_err_max"] = fit.coef_rel_err_max
    return out, len(outputs), failed


def jacobi_sweep(rc, seed: int) -> dict[str, float]:
    """Direct jacobi_eigen calls on dense graded matrices, with the
    accuracy guards against eigvalsh."""
    rng = inputs.rng_for(seed, "jacobi_sweep")
    out: dict[str, float] = {}
    rel_err = orth_err = 0.0
    for n, reps in JACOBI_SIZES.items():
        b = inputs.graded_model(rng, n, paired=False).interaction
        times = []
        for _ in range(reps):
            start = perf_counter()
            eig = rc.jacobi_eigen(b)
            times.append(perf_counter() - start)
        out[f"linalg.jacobi_eigen.ms_n{n}"] = 1e3 * statistics.median(times)
        ref = workloads.eig_reference(b)
        rel_err = max(rel_err, float(np.max(np.abs(np.asarray(eig.lambdas) - ref) / np.abs(ref))))
        v = np.asarray(eig.vectors)
        orth_err = max(orth_err, float(np.abs(v.T @ v - np.eye(n)).max()))
    out["linalg.eig_rel_err_max"] = rel_err
    out["linalg.orth_err_max"] = orth_err
    return out


def cli_split(ctx: workloads.Context, cli: workloads.EuCli) -> dict[str, float]:
    """Bare interpreter, numpy import and ``rsmcanon.cli --version`` (the
    package and CLI imported, no command run) timed as subprocesses,
    against real CLI commands. The four kinds take turns in a rotating
    order, so drift and cache warmth from the previous process hit all
    of them alike."""
    bare = {"interp": ["-c", "pass"], "numpy": ["-c", "import numpy"],
            "package": ["-m", "rsmcanon.cli", "--version"]}
    walls: dict[str, list[float]] = {key: [] for key in (*bare, "command")}
    kinds = list(walls)
    for rep in range(CLI_BASELINE_REPS):
        for key in kinds[rep % 4:] + kinds[:rep % 4]:
            start = perf_counter()
            if key == "command":
                cli.op(rep)
            else:
                subprocess.run([sys.executable, *bare[key]], env=ctx.env, cwd=ctx.root,
                               check=True, timeout=120, capture_output=True)
            walls[key].append(perf_counter() - start)
    interp, numpy_, package, command = (1e3 * statistics.median(walls[k]) for k in walls)
    return {
        "cli.interp_ms": interp,
        "cli.import_numpy_ms": numpy_ - interp,
        "cli.import_rsmcanon_ms": package - numpy_,
        "cli.command_ms": command - package,
        "cli.import_share": package / command,
    }
