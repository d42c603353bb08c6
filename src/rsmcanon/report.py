"""End-to-end canonical analysis and deterministic report rendering.

``run_analysis`` chains eigendecomposition, canonical reduction,
region construction, and trade-rate extraction into one report object.
Reports serialize deterministically: identical inputs give
byte-identical JSON (keys sorted, floats rendered by Python's
shortest-round-trip repr) and byte-identical text.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import __version__
from .canonical import ZERO_TOL_FACTOR, CanonicalModel, canonicalize, with_center
from .errors import RsmError
from .linalg import DEFAULT_COND_TOL
from .model import QuadraticModel
from .regions import CONTAINS_SLACK, max_intervals, region
from .tradeoff import conversion_rates, default_pairing, iso_slopes, marginal_rates


@dataclass(frozen=True, eq=False)
class AnalysisReport:
    """Analysis output as a plain serializable tree."""

    model: dict
    eigen: dict
    canonical: dict
    regions: list
    tradeoff: dict
    provenance: dict

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "eigen": self.eigen,
            "canonical": self.canonical,
            "regions": self.regions,
            "tradeoff": self.tradeoff,
            "provenance": self.provenance,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def to_text(self) -> str:
        return render_text(self)


def _plain(value):
    """Numpy scalars/arrays to plain Python so json stays deterministic."""
    if isinstance(value, np.ndarray):
        return [_plain(v) for v in value]
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return value


def _region_section(canon: CanonicalModel, i: int, j: int, bound: float) -> dict:
    reg = region(canon, i, j, bound)
    basis1, basis2 = reg.basis
    section = {
        "pair": list(reg.pair),
        "kind": reg.kind.value,
        "bound": reg.bound,
        "unbounded": reg.unbounded,
        "semiaxes": _plain(reg.semiaxes),
        "basis": [basis1, basis2],
        "affine": [
            {"variable": name, "center": _plain(row[0]),
             basis1: _plain(row[1]), basis2: _plain(row[2])}
            for name, row in zip(reg.names, reg.affine)
        ],
    }
    if reg.kind.is_elliptical:
        section["max_intervals"] = [
            {"variable": name, "center": _plain(c), "half_width": _plain(h)}
            for name, c, h in max_intervals(reg)
        ]
    else:
        section["marginal_rates"] = [
            {"from": r.from_variable, "to": r.to_variable, "ratio": _plain(r.ratio),
             "basis": r.branch, "bound": _plain(r.bound)}
            for r in marginal_rates(reg)
        ]
    return section


def run_analysis(model: QuadraticModel, pairs=None, bound: float = 1e-8,
                 pairing=None, center=None, source_digest: str | None = None) -> AnalysisReport:
    """Full canonical analysis of a model.

    ``pairs`` selects the canonical pairs to build regions for
    (default: consecutive same-sign pairs, which are the elliptical
    ones). ``pairing`` selects the pairs used for M = 0 conversion
    rates (default: the opposite-sign two-variable pairs). ``center``
    overrides the region center, which is how published worked
    examples quoted about an external center are reproduced.

    Errors from the underlying stages propagate tagged with the stage
    name.
    """
    canon = _staged("canonical", canonicalize, model)

    if pairs is None:
        pairs = _default_region_pairs(canon)
    if center is not None:
        region_canon = with_center(canon, center)
    else:
        region_canon = canon

    eigen_section = {
        "eigenvalues": _plain(canon.lambdas),
        "axes": [_plain(canon.axes[:, k]) for k in range(canon.n)],
        "axis_labels": {f"z{k}": canon.axis_label(k) for k in range(1, canon.n + 1)},
        "dominant_variables": {
            f"z{k}": list(canon.dominant_variables(k)) for k in range(1, canon.n + 1)
        },
    }
    canonical_section = {
        "center": _plain(canon.center),
        "y0": _plain(canon.y0),
        "kind": canon.kind.label,
        "degenerate_axes": list(canon.kind.degenerate_axes),
    }

    region_sections = [
        _staged("regions", _region_section, region_canon, i, j, bound)
        for i, j in pairs
    ]

    if pairing is None:
        pairing = default_pairing(canon)
    slopes = [
        {"pair": [i, j], "slope": _plain(_staged("tradeoff", iso_slopes, canon, i, j)[0])}
        for i, j in pairing
    ]
    rates = [
        {"from": r.from_variable, "to": r.to_variable, "ratio": _plain(r.ratio),
         "branch": r.branch, "bound": _plain(r.bound)}
        for r in _staged("tradeoff", conversion_rates, canon, pairing)
    ]

    report = AnalysisReport(
        model={
            "variables": list(model.names),
            "response_label": model.response_label,
            "exponent": _plain(model.exponent),
            "intercept": _plain(model.intercept),
            "linear": _plain(model.linear),
            "interaction": [_plain(row) for row in model.interaction.array],
        },
        eigen=eigen_section,
        canonical=canonical_section,
        regions=region_sections,
        tradeoff={"iso_slopes": slopes, "conversion_rates": rates},
        provenance={
            "tool": "rsmcanon",
            "version": __version__,
            "model_digest_sha256": source_digest,
            "bound": _plain(bound),
            "region_center_override": _plain(center) if center is not None else None,
            "tolerances": {
                "cond_tol": DEFAULT_COND_TOL,
                "zero_tol_factor": ZERO_TOL_FACTOR,
                "contains_slack": CONTAINS_SLACK,
            },
        },
    )
    return report


def _default_region_pairs(canon: CanonicalModel) -> list[tuple[int, int]]:
    """Pair same-sign eigenvalues in index order (the elliptical pairs)."""
    neg = [k for k in range(1, canon.n + 1) if canon.lambdas[k - 1] < 0.0]
    pos = [k for k in range(1, canon.n + 1) if canon.lambdas[k - 1] > 0.0]
    pairs = []
    for group in (neg, pos):
        for a, b in zip(group[::2], group[1::2]):
            pairs.append((a, b))
    return pairs


def _staged(stage: str, fn, *args):
    try:
        return fn(*args)
    except RsmError as exc:
        exc.stage = stage
        if exc.args and not str(exc.args[0]).startswith(f"[{stage}] "):
            exc.args = (f"[{stage}] {exc.args[0]}",) + exc.args[1:]
        raise


def render_text(report: AnalysisReport) -> str:
    """Fixed-format human-readable rendering of a report."""
    out: list[str] = []
    m = report.model
    out.append(f"Model: {m['response_label']} ** {m['exponent']:g} over variables "
               + ", ".join(m["variables"]))
    out.append(f"  intercept {m['intercept']:.9g}")
    out.append("")
    out.append("Canonical axes (descending |eigenvalue|):")
    for k, lam in enumerate(report.eigen["eigenvalues"], start=1):
        label = report.eigen["axis_labels"][f"z{k}"]
        out.append(f"  z{k}: eigenvalue {lam:.9g}   z{k} ~ {label}")
    c = report.canonical
    out.append("")
    out.append(f"Stationary point ({c['kind']}):")
    for name, value in zip(m["variables"], c["center"]):
        out.append(f"  {name:>8} = {value:.9g}")
    out.append(f"  Y0 = {c['y0']:.9g}")
    for section in report.regions:
        i, j = section["pair"]
        out.append("")
        out.append(f"Region (z{i}, z{j}) at |Y - Y0| <= {section['bound']:g}: "
                   f"{section['kind']}" + (" [unbounded band]" if section["unbounded"] else ""))
        b1, b2 = section["basis"]
        a1, a2 = section["semiaxes"]
        out.append(f"  z{i} = {a1:.6f} r {b1}(t),  z{j} = {a2:.6f} r {b2}(t)")
        for row in section["affine"]:
            out.append(f"  {row['variable']:>8} = {row['center']:.6f} "
                       f"{row[b1]:+.6f} {b1}(t) {row[b2]:+.6f} {b2}(t)")
        for row in section.get("max_intervals", []):
            out.append(f"  |{row['variable']} - {row['center']:.6f}| <= {row['half_width']:.6f}")
        for row in section.get("marginal_rates", []):
            out.append(f"  {row['basis']}-linked: {row['from']} = {row['ratio']:.6g} {row['to']}")
    t = report.tradeoff
    out.append("")
    out.append("Iso-response relations (M = 0):")
    for entry in t["iso_slopes"]:
        i, j = entry["pair"]
        out.append(f"  z{i} = +-{entry['slope']:.9g} z{j}")
    for entry in t["conversion_rates"]:
        out.append(f"  {entry['from']} = {entry['ratio']:.6g} {entry['to']}"
                   f"   [branch {entry['branch']}]")
    p = report.provenance
    out.append("")
    out.append(f"rsmcanon {p['version']}  digest "
               f"{p['model_digest_sha256'] or '-'}  bound {p['bound']:g}")
    return "\n".join(out) + "\n"
