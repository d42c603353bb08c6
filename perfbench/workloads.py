"""The four workloads: set-up, one op, and verification of its output.

Each workload builds its inputs from the seed at set-up, computes its
own references with numpy (never with the code under test, except
where a check is that an op repeats the bytes the same call produced
at set-up), and exposes a fixed cycle of ops. ``op(k)``, for the k-th
op of a run, performs only the calls into rsmcanon that the op is
timed for; ``check(k, out)`` returns None for a correct result or a
one-line description of what is wrong.

Every call into the package is looked up on the package object ``rc``
at call time, so the traced run's wrappers see it.
"""

from __future__ import annotations

import hashlib
import io
import json
import re
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import inputs

BOUND = 1e-8
# A run is a fixed number of whole cycles, ``cycles_10s`` for each 10
# seconds asked for and at least ``min_cycles``. The op count, and with
# it the order statistics behind the median and the tail, then depend
# only on --seconds, not on how fast the machine is at the time. Each
# workload's count puts its tail well inside one class of ops of equal
# cost: the speed correction (speed.py) still misjudges a few ops, and
# an order statistic at the edge of a class, or high inside it, picks
# them up. Eleven cycles give every op class more than the 10 samples the
# tail rule needs beyond its percentile.
MIN_CYCLES = 11
SURFACE_POINTS = 2000
SURFACE_SAMPLES = 2000
REGION_SAMPLES = 360


@dataclass
class Context:
    root: Path          # checkout root; the package is imported from root/src
    work: Path          # directory inside the checkout for the files ops read and write
    env: dict           # environment for CLI children
    rc: object          # the imported rsmcanon package


def cycles_for(wl, seconds: float) -> int:
    """Whole cycles of ``wl`` that one run of ``seconds`` measures."""
    return max(wl.min_cycles, round(wl.cycles_10s * seconds / 10.0))


def verify(wl, k: int, out) -> str | None:
    """``wl.check``, with a check that raises on malformed output
    counted as a failed op rather than ending the run."""
    try:
        return wl.check(k, out)
    except Exception:
        return traceback.format_exc(limit=3)


def _quadratic_model(rc, m: inputs.SyntheticModel):
    return rc.QuadraticModel(names=m.names, intercept=m.intercept, linear=m.linear,
                             interaction=rc.SymMatrix(m.interaction),
                             exponent=inputs.EXPONENT, response_label="CO2 ppmv")


def _model_arrays(model) -> tuple[float, np.ndarray, np.ndarray]:
    return float(model.intercept), np.array(model.linear), np.array(model.interaction.array)


def eig_reference(b: np.ndarray) -> np.ndarray:
    """eigvalsh ordered like the package: descending |lambda|, then signed."""
    lam = np.linalg.eigvalsh(b)
    return np.array(sorted(lam, key=lambda v: (-abs(v), -v)))


def _eigen_problem(report: dict, b: np.ndarray, beta: np.ndarray, ref: np.ndarray) -> str | None:
    lam = np.asarray(report["eigen"]["eigenvalues"], dtype=float)
    scale = float(np.abs(ref).max())
    if lam.shape != ref.shape or np.abs(lam - ref).max() > 1e-9 * scale:
        return "eigenvalues differ from eigvalsh"
    center = np.asarray(report["canonical"]["center"], dtype=float)
    residual = np.linalg.norm(beta + 2.0 * b @ center)
    if residual > 1e-8 * (np.linalg.norm(beta) + 2.0 * scale * np.linalg.norm(center)):
        return f"stationarity residual {residual:.3g} too large"
    return None


class CanonScan:
    """run_analysis -> to_json -> to_text in four rounds, each of the EU
    model and six graded synthetic models (n = 4, 4, 8, 8, 16, 32).

    With the EU model in every round, as many ops per cycle are faster
    than the paired n = 8 models as are slower, so the median falls in
    the middle of that class rather than at its edge.
    """

    name = "canon_scan"
    # 24 ops at n = 32, about 5 s at reference speed: the tail is their
    # 14th-fastest, near the middle of the class.
    cycles_10s = 6
    min_cycles = 3   # the tail needs 11 ops at n = 32
    runs_in_children = False

    def __init__(self, ctx: Context, seed: int) -> None:
        rc = ctx.rc
        self.rc = rc
        synthetic = [_quadratic_model(rc, m) for m in inputs.canon_models(seed)]
        eu, size = rc.load_bundled_eu_model(), len(inputs.CANON_MODELS)
        self.models = [m for r in range(inputs.CANON_DRAWS)
                       for m in [eu] + synthetic[r * size:(r + 1) * size]]
        self.arrays = [_model_arrays(m) for m in self.models]
        self.eig_ref = [eig_reference(b) for _, _, b in self.arrays]
        first = [rc.run_analysis(m) for m in self.models]
        self.json_ref = [r.to_json() for r in first]
        self.text_ref = [r.to_text() for r in first]
        self.cycle = len(self.models)

    def op(self, k: int):
        report = self.rc.run_analysis(self.models[k % self.cycle])
        return report, report.to_json(), report.to_text()

    def check(self, k: int, out) -> str | None:
        j = k % self.cycle
        report, js, text = out
        if js != self.json_ref[j]:
            return "to_json bytes differ from set-up"
        if text != self.text_ref[j]:
            return "to_text differs from set-up"
        _, beta, b = self.arrays[j]
        return _eigen_problem(report.to_dict(), b, beta, self.eig_ref[j])


@dataclass(frozen=True)
class FitRequest:
    label: str
    terms: tuple
    names: tuple
    extra: str | None       # None, "extra" (fifth variable) or "duplicate" (copy of Li)


_P14 = FitRequest("p14", inputs.full_quadratic(4), inputs.EMISSIONS_NAMES, None)
# Seven requests per cycle, four of them the p = 14 list. The tail (the
# 11th-largest op time) then falls inside the p = 14 class for runs of
# 3 to 10 cycles, not at the fastest p = 20 op, where it swung by 21%
# between runs. So does the median, near the middle of the class: two
# requests per cycle are faster than p = 14 and one is slower. With
# three p = 14 requests, the median was their second-fastest, which
# the per-op speed correction moved by up to 20%.
FIT_REQUESTS = (
    FitRequest("p8", inputs.PAPER_TERMS, inputs.EMISSIONS_NAMES, None),
    _P14,
    _P14,
    FitRequest("p20", inputs.full_quadratic(5), inputs.EMISSIONS_NAMES + (inputs.EXTRA_NAME,), "extra"),
    _P14,
    _P14,
    FitRequest("rank_deficient", inputs.PAPER_TERMS + ((4,),),
               inputs.EMISSIONS_NAMES + ("LiDup",), "duplicate"),
)
DUPLICATED = {"Li", "LiDup"}


@dataclass(frozen=True)
class FitReference:
    coef: np.ndarray
    norms: np.ndarray
    y_norm: float
    f_values: dict


def _fit_reference(x: np.ndarray, co2: np.ndarray, terms, names) -> FitReference:
    """Coefficients and partial F by lstsq on the equilibrated design."""
    yt = co2 ** inputs.EXPONENT

    def solve(t):
        design = inputs.term_columns(x, t)
        norms = np.linalg.norm(design, axis=0)
        coef = np.linalg.lstsq(design / norms, yt, rcond=None)[0] / norms
        resid = yt - design @ coef
        return coef, norms, float(resid @ resid)

    coef, norms, sse = solve(terms)
    scale = sse / (x.shape[0] - len(terms) - 1)
    f_values = {}
    for k, idx in enumerate(terms):
        _, _, sse_k = solve(terms[:k] + terms[k + 1:])
        f_values[":".join(names[i] for i in idx)] = max(0.0, sse_k - sse) / scale
    return FitReference(coef, norms, float(np.linalg.norm(yt)), f_values)


def fit_problem(ref: FitReference, coef: np.ndarray, f_values: dict, ranking) -> str | None:
    """Compare a fit with its lstsq reference.

    Coefficient error is measured in prediction space (each error
    times its column norm, over |y|), which is scale-free across
    terms; F values must agree to 1e-6 of max(F, 1), and the ranking
    must never put a term ahead of one whose reference F is larger
    beyond that tolerance.
    """
    err = np.abs(coef - ref.coef) * ref.norms / ref.y_norm
    if err.max() > 1e-8:
        return f"coefficients off the lstsq reference by {err.max():.3g}"
    for label, f_ref in ref.f_values.items():
        if abs(f_values[label] - f_ref) > 1e-6 * max(f_ref, 1.0):
            return f"F({label}) = {f_values[label]:.6g}, lstsq gives {f_ref:.6g}"
    for hi, lo in zip(ranking, ranking[1:]):
        f_hi, f_lo = ref.f_values[hi], ref.f_values[lo]
        if f_hi < f_lo - 1e-6 * max(f_lo, 1.0):
            return f"ranking puts {hi} before {lo}"
    return None


class FitScreen:
    """load_emissions -> Dataset -> ols_fit -> f_rank -> save_model for
    p = 8, 14, 14, 20, 14, 14, then one request with a duplicated
    column that must raise RankDeficient naming both columns."""

    name = "fit_screen"
    cycles_10s = 4   # about 11 s at reference speed
    min_cycles = 3   # the tail needs 11 ops of the p = 14 and p = 20 classes
    runs_in_children = False
    cycle = len(FIT_REQUESTS)

    def __init__(self, ctx: Context, seed: int) -> None:
        self.rc = ctx.rc
        data = inputs.emissions(seed)
        self.csv_path = ctx.work / "emissions.csv"
        self.csv_path.write_text(data.csv_text)
        self.extra = data.extra
        self.refs = {}
        for req in FIT_REQUESTS:
            if req.extra != "duplicate" and req.label not in self.refs:
                x = data.totals if req.extra is None else np.column_stack([data.totals, data.extra])
                self.refs[req.label] = _fit_reference(x, data.co2, req.terms, req.names)
        self.out_paths = [ctx.work / f"fitted_{j}.model.json" for j in range(self.cycle)]
        self.coef_rel_err_max = 0.0

    def op(self, k: int):
        rc, j = self.rc, k % self.cycle
        req = FIT_REQUESTS[j]
        _, totals = rc.load_emissions(self.csv_path)
        x = totals.values
        if req.extra == "extra":
            x = np.column_stack([x, self.extra])
        elif req.extra == "duplicate":
            x = np.column_stack([x, x[:, 0]])
        data = rc.Dataset(X=x, y=np.array(totals.co2_ppmv, dtype=float), names=req.names)
        if req.extra == "duplicate":
            try:
                rc.ols_fit(data, req.terms, inputs.EXPONENT, response_label="CO2 ppmv")
            except rc.RankDeficient as exc:
                return exc
            return None
        result = rc.ols_fit(data, req.terms, inputs.EXPONENT, response_label="CO2 ppmv")
        ranked = rc.f_rank(data, result)
        rc.save_model(result.model, self.out_paths[j])
        return result, ranked

    def check(self, k: int, out) -> str | None:
        j = k % self.cycle
        req = FIT_REQUESTS[j]
        if req.extra == "duplicate":
            if not isinstance(out, self.rc.RankDeficient):
                return "duplicated column did not raise RankDeficient"
            labels = {":".join(req.names[i] for i in idx) for idx in req.terms}
            named = set(re.findall(r"[A-Za-z0-9_:]+", str(out))) & labels
            return None if named == DUPLICATED else f"RankDeficient names {sorted(named)}"
        result, ranked = out
        ref = self.refs[req.label]
        coef = np.array([result.model.intercept] + [s.coefficient for s in result.term_stats])
        self.coef_rel_err_max = max(self.coef_rel_err_max,
                                    float(np.max(np.abs(coef - ref.coef) / np.abs(ref.coef))))
        problem = fit_problem(ref, coef, {s.label: s.f_value for s in result.term_stats},
                              result.ranking)
        if problem:
            return problem
        if tuple(s.label for s in ranked) != tuple(result.ranking):
            return "f_rank order differs from ols_fit ranking"
        saved = json.loads(self.out_paths[j].read_text())
        saved_terms = {":".join(t["vars"]): t["coef"] for t in saved["terms"]}
        fitted = {s.label: s.coefficient for s in result.term_stats if s.coefficient != 0.0}
        if saved["intercept"] != result.model.intercept or saved_terms != fitted:
            return "saved model does not hold the fitted coefficients"
        return None


def _csv_on_boundary(text: str, canon) -> bool:
    """Every emitted point lies on |Y - Y0| = M (checked with numpy)."""
    rows = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)
    x = rows[:, 4:4 + canon.n]
    z = (x - np.asarray(canon.center)) @ np.asarray(canon.axes)
    fluct = (z * z) @ np.asarray(canon.lambdas)
    return bool(np.all(np.abs(np.abs(fluct) - BOUND) <= 1e-6 * BOUND))


class SurfaceEval:
    """Per-point predict_response, contains and to_canonical over 2,000
    points, plus emit_plot_csv with 2,000 samples, in four batches that
    alternate the EU model (around its published region center) with an
    n = 8 graded model, and elliptical with hyperbolic regions.

    The four batches make up one op, so every op costs the same: with
    the batches as separate ops, the median fell in the gap between two
    batch costs and swung by 15% between runs.
    """

    name = "surface_eval"
    cycles_10s = 34   # about 10 s at reference speed
    min_cycles = MIN_CYCLES
    runs_in_children = False
    cycle = 1

    def __init__(self, ctx: Context, seed: int) -> None:
        rc = ctx.rc
        self.rc = rc
        eu = rc.load_bundled_eu_model()
        doc = json.loads(Path(rc.bundled_eu_model_path()).read_text())
        eu_canon = rc.with_center(rc.canonicalize(eu), doc["reference_region_center"])
        syn = _quadratic_model(rc, inputs.surface_model(seed))
        syn_canon = rc.canonicalize(syn)
        rng = inputs.rng_for(seed, "surface_points")
        self.models, self.canons = [eu, syn, eu, syn], [eu_canon, syn_canon] * 2
        self.regions = [self._region(c, elliptical) for c, elliptical in
                        zip(self.canons, (True, False, False, True))]
        self.points = [self._points(rng, m, c) for m, c in zip(self.models, self.canons)]
        self.expected = [self._reference(b) for b in range(len(self.models))]
        self.csv_ref = [rc.emit_plot_csv(r, SURFACE_SAMPLES) for r in self.regions]
        self.csv_valid = [_csv_on_boundary(t, c) for t, c in zip(self.csv_ref, self.canons)]

    def _region(self, canon, elliptical: bool):
        lam = np.asarray(canon.lambdas)
        for i in range(1, canon.n + 1):
            for j in range(i + 1, canon.n + 1):
                if (lam[i - 1] * lam[j - 1] > 0.0) == elliptical:
                    build = self.rc.ellipse_region if elliptical else self.rc.hyperbola_region
                    return build(canon, i, j, BOUND)
        raise ValueError("model has no canonical pair of the requested kind")

    @staticmethod
    def _points(rng, model, canon) -> np.ndarray:
        """Seeded points around the region center. Points where the
        transformed response is not positive have no natural-units
        prediction under a negative exponent, so they are redrawn."""
        b0, beta, b = _model_arrays(model)
        kept = np.empty((0, canon.n))
        while len(kept) < SURFACE_POINTS:
            pts = inputs.point_batch(rng, np.asarray(canon.center), np.asarray(canon.lambdas),
                                     np.asarray(canon.axes), BOUND, SURFACE_POINTS)
            y = b0 + pts @ beta + np.einsum("ij,jk,ik->i", pts, b, pts)
            kept = np.vstack([kept, pts[y > 0.05 * abs(b0)]])
        return kept[:SURFACE_POINTS]

    def _reference(self, batch: int):
        model, canon, pts = self.models[batch], self.canons[batch], self.points[batch]
        b0, beta, b = _model_arrays(model)
        y = b0 + pts @ beta + np.einsum("ij,jk,ik->i", pts, b, pts)
        pred = y ** (1.0 / model.exponent)
        z = (pts - np.asarray(canon.center)) @ np.asarray(canon.axes)
        fluct = np.abs((z * z) @ np.asarray(canon.lambdas))
        inside = fluct <= BOUND
        clear = np.abs(fluct - BOUND) > 1e-9 * BOUND
        return pred, inside, clear, z

    def op(self, k: int):
        rc, out = self.rc, []
        for model, canon, pts, region in zip(self.models, self.canons, self.points, self.regions):
            preds = [rc.predict_response(model, p) for p in pts]
            inside = [rc.contains(canon, p, BOUND) for p in pts]
            zs = [rc.to_canonical(canon, p) for p in pts]
            out.append((preds, inside, zs, rc.emit_plot_csv(region, SURFACE_SAMPLES)))
        return out

    def check(self, k: int, out) -> str | None:
        for b, (preds, inside, zs, text) in enumerate(out):
            pred_ref, inside_ref, clear, z_ref = self.expected[b]
            if np.abs(np.asarray(preds) / pred_ref - 1.0).max() > 1e-10:
                return "predict_response differs from the numpy formula"
            if np.any((np.asarray(inside) != inside_ref) & clear):
                return "contains differs from the numpy formula"
            if np.abs(np.asarray(zs) - z_ref).max() > 1e-9 * np.abs(z_ref).max():
                return "to_canonical differs from the numpy formula"
            if text != self.csv_ref[b] or not self.csv_valid[b]:
                return "emit_plot_csv output is not the boundary"
        return None

    def inside_share(self, b: int) -> float:
        return float(self.expected[b][1].mean())


class EuCli:
    """Subprocess calls of ``python -m rsmcanon.cli`` in a fixed cycle
    on the bundled EU model, ending with a fit on a seeded CSV."""

    name = "eu_cli"
    cycles_10s = 15   # about 15 s at reference speed
    min_cycles = MIN_CYCLES
    runs_in_children = True

    def __init__(self, ctx: Context, seed: int) -> None:
        rc = ctx.rc
        self.env, self.cwd = ctx.env, ctx.root
        model_path = Path(rc.bundled_eu_model_path())
        doc = json.loads(model_path.read_text())
        center = np.asarray(doc["reference_region_center"], dtype=float)
        center_arg = ",".join(repr(float(v)) for v in center)
        data = inputs.emissions(seed)
        csv_path = ctx.work / "eu_emissions.csv"
        csv_path.write_text(data.csv_text)
        self.outputs = {0: ctx.work / "analyze.json", 2: ctx.work / "regions.csv",
                        5: ctx.work / "fit.model.json"}
        model = str(model_path)
        self.commands = [
            ["analyze", model, "--format", "json", "-o", str(self.outputs[0])],
            ["analyze", model, "--format", "text", "--center", center_arg],
            ["regions", model, "--pair", "1,3", "--samples", str(REGION_SAMPLES),
             "-o", str(self.outputs[2])],
            ["tradeoff", model],
            ["predict", model, "--at", center_arg],
            ["fit", str(csv_path), "--terms", inputs.PAPER_TERMS_TEXT,
             "--exponent", repr(inputs.EXPONENT), "-o", str(self.outputs[5])],
        ]
        self.cycle = len(self.commands)

        eu = rc.load_model(model_path)
        digest = hashlib.sha256(model_path.read_bytes()).hexdigest()
        report = rc.run_analysis(eu, source_digest=digest)
        self.json_ref = report.to_json()
        self.text_ref = rc.run_analysis(eu, center=center, source_digest=digest).to_text()
        self.regions_ref = rc.emit_plot_csv(
            rc.ellipse_region(rc.canonicalize(eu), 1, 3, BOUND), REGION_SAMPLES)
        b0, beta, b = _model_arrays(eu)
        lam = eig_reference(b)
        self.slopes = {tuple(e["pair"]): float(np.sqrt(abs(lam[e["pair"][1] - 1] / lam[e["pair"][0] - 1])))
                       for e in report.tradeoff["iso_slopes"]}
        self.rates = [(r["from"], r["to"], r["ratio"]) for r in report.tradeoff["conversion_rates"]]
        y = b0 + beta @ center + center @ b @ center
        self.predict_ref = float(y ** (1.0 / eu.exponent))
        self.fit_ref = _fit_reference(data.totals, data.co2, inputs.PAPER_TERMS,
                                      inputs.EMISSIONS_NAMES)

    def op(self, k: int):
        return subprocess.run([sys.executable, "-m", "rsmcanon.cli", *self.commands[k % self.cycle]],
                              env=self.env, cwd=self.cwd, capture_output=True, text=True,
                              timeout=120)

    def check(self, k: int, out) -> str | None:
        j = k % self.cycle
        if out.returncode != 0:
            return f"exit code {out.returncode}: {out.stderr.strip()[:200]}"
        if j == 0 and self.outputs[0].read_text() != self.json_ref:
            return "analyze JSON differs from the in-process report"
        if j == 1 and out.stdout != self.text_ref:
            return "analyze text differs from the in-process report"
        if j == 2 and self.outputs[2].read_text() != self.regions_ref:
            return "regions CSV differs from the in-process emission"
        if j == 3:
            return self._tradeoff_problem(out.stdout)
        if j == 4 and abs(float(out.stdout) / self.predict_ref - 1.0) > 1e-10:
            return f"predict {out.stdout.strip()} vs numpy {self.predict_ref!r}"
        if j == 5:
            return self._fit_problem()
        return None

    def _tradeoff_problem(self, stdout: str) -> str | None:
        slopes = re.findall(r"^z(\d+) = \+-(\S+) z(\d+)$", stdout, re.M)
        rates = re.findall(r"^(\S+) = (\S+) (\S+)\s+\[", stdout, re.M)
        if len(slopes) != len(self.slopes) or len(rates) != len(self.rates):
            return "tradeoff output has the wrong number of relations"
        for i, value, j in slopes:
            if abs(float(value) / self.slopes[(int(i), int(j))] - 1.0) > 1e-8:
                return f"iso-slope z{i}/z{j} {value} vs eigvalsh"
        for (src, ratio, dst), (src_ref, dst_ref, ratio_ref) in zip(rates, self.rates):
            if (src, dst) != (src_ref, dst_ref) or abs(float(ratio) / ratio_ref - 1.0) > 1e-5:
                return f"conversion rate {src} = {ratio} {dst} differs from the report"
        return None

    def _fit_problem(self) -> str | None:
        saved = json.loads(self.outputs[5].read_text())
        coefs = {":".join(t["vars"]): t["coef"] for t in saved["terms"]}
        names = inputs.EMISSIONS_NAMES
        labels = [":".join(names[i] for i in idx) for idx in inputs.PAPER_TERMS]
        coef = np.array([saved["intercept"]] + [coefs.get(lab, 0.0) for lab in labels])
        err = np.abs(coef - self.fit_ref.coef) * self.fit_ref.norms / self.fit_ref.y_norm
        return None if err.max() <= 1e-8 else f"fitted model off lstsq by {err.max():.3g}"


WORKLOADS = {cls.name: cls for cls in (EuCli, FitScreen, CanonScan, SurfaceEval)}
