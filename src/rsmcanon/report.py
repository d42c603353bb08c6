"""End-to-end canonical analysis and deterministic report rendering.

``run_analysis`` chains eigendecomposition, canonical reduction,
region construction, and trade-rate extraction into one report object.
Reports serialize deterministically: identical inputs give
byte-identical JSON (keys sorted, floats rendered by Python's
shortest-round-trip repr) and byte-identical text, which is all the CLI
prints about an analysis: the whole ``to_text`` or its ``tradeoff_lines``.
``to_json`` renders through ``modelio.json_text``, the writer model files
use too; its bytes are those of ``json.dumps(report.to_dict(), indent=2,
sort_keys=True)`` followed by a newline, for every report ``run_analysis``
builds.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from . import __version__
from .canonical import ZERO_TOL_FACTOR, CanonicalModel, canonicalize, with_center
from .errors import RsmError
from .linalg import DEFAULT_COND_TOL
from .model import QuadraticModel
from .modelio import json_text
from .regions import CONTAINS_SLACK, DEFAULT_BOUND, check_bound, max_intervals, region
from .tradeoff import RATE_FORMAT, conversion_rates, default_pairing, iso_slopes, marginal_rates


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
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def to_json(self) -> str:
        return json_text(self.to_dict()) + "\n"

    def to_text(self) -> str:
        """Fixed-format human-readable rendering of the report."""
        out: list[str] = []
        m = self.model
        out.append(f"Model: {m['response_label']} ** {m['exponent']:g} over variables "
                   + ", ".join(m["variables"]))
        out.append(f"  intercept {m['intercept']:.9g}")
        out.append("")
        out.append("Canonical axes (descending |eigenvalue|):")
        for k, lam in enumerate(self.eigen["eigenvalues"], start=1):
            label = self.eigen["axis_labels"][f"z{k}"]
            out.append(f"  z{k}: eigenvalue {lam:.9g}   z{k} ~ {label}")
        c = self.canonical
        out.append("")
        out.append(f"Stationary point ({c['kind']}):")
        for name, value in zip(m["variables"], c["center"]):
            out.append(f"  {name:>8} = {value:.9g}")
        out.append(f"  Y0 = {c['y0']:.9g}")
        for section in self.regions:
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
                out.append(f"  {row['basis']}-linked: "
                           + RATE_FORMAT.format(row["from"], row["ratio"], row["to"]))
        out.append("")
        out.append("Iso-response relations (M = 0):")
        out.extend(f"  {line}" for line in self.tradeoff_lines())
        p = self.provenance
        out.append("")
        out.append(f"rsmcanon {p['version']}  digest "
                   f"{p['model_digest_sha256'] or '-'}  bound {p['bound']:g}")
        return "\n".join(out) + "\n"

    def tradeoff_lines(self, with_bound: bool = False) -> list[str]:
        """One line per iso-slope ``z_i = +-s z_j``, then per M = 0 rate ``A = r B
        [branch +]``; ``with_bound`` adds the rate's bound: ``[branch +, M = 0]``."""
        t = self.tradeoff
        lines = [f"z{e['pair'][0]} = +-{e['slope']:.9g} z{e['pair'][1]}" for e in t["iso_slopes"]]
        for rate in t["conversion_rates"]:
            bound = f", M = {rate['bound']:g}" if with_bound else ""
            lines.append(RATE_FORMAT.format(rate["from"], rate["ratio"], rate["to"])
                         + f"   [branch {rate['branch']}{bound}]")
        return lines


def _region_section(canon: CanonicalModel, i: int, j: int, bound: float) -> dict:
    reg = region(canon, i, j, bound)
    basis1, basis2 = reg.basis
    section = {
        "pair": list(reg.pair),
        "kind": reg.kind,
        "bound": reg.bound,
        "unbounded": reg.unbounded,
        "semiaxes": list(reg.semiaxes),
        "basis": [basis1, basis2],
        "affine": [
            {"variable": name, "center": center, basis1: coef1, basis2: coef2}
            for name, (center, coef1, coef2) in zip(reg.names, reg.affine.tolist())
        ],
    }
    if not reg.unbounded:
        section["max_intervals"] = [
            {"variable": name, "center": c, "half_width": h}
            for name, c, h in max_intervals(reg)
        ]
    else:
        section["marginal_rates"] = [
            {"from": r.from_variable, "to": r.to_variable, "ratio": r.ratio,
             "basis": r.branch, "bound": r.bound}
            for r in marginal_rates(reg)
        ]
    return section


def run_analysis(model: QuadraticModel, pairs=None, bound: float = DEFAULT_BOUND,
                 pairing=None, center=None, source_digest: str | None = None) -> AnalysisReport:
    """Full canonical analysis of a model.

    ``pairs`` selects the canonical pairs to build regions for
    (default: consecutive same-sign pairs, which are the elliptical
    ones). ``pairing`` selects the pairs used for M = 0 conversion
    rates (default: the opposite-sign two-variable pairs). ``center``
    overrides the region center, which is how published worked
    examples quoted about an external center are reproduced.

    Errors from the underlying stages propagate tagged with the stage
    name; the bound is checked first, as part of the regions stage.
    """
    bound = _staged("regions", check_bound, bound)
    canon = _staged("canonical", canonicalize, model)

    if pairs is None:
        pairs = _default_region_pairs(canon)
    region_canon = canon if center is None else with_center(canon, center)

    eigen_section = {
        "eigenvalues": canon.lambdas.tolist(),
        "axes": canon.axes.T.tolist(),
        "axis_labels": {f"z{k}": canon.axis_label(k) for k in range(1, canon.n + 1)},
        "dominant_variables": {
            f"z{k}": list(canon.dominant_variables(k)) for k in range(1, canon.n + 1)
        },
    }
    canonical_section = {
        "center": canon.center.tolist(),
        "y0": float(canon.y0),
        "kind": canon.kind,
        "degenerate_axes": list(canon.degenerate_axes),
    }

    region_sections = [
        _staged("regions", _region_section, region_canon, i, j, bound)
        for i, j in pairs
    ]

    if pairing is None:
        pairing = default_pairing(canon)
    slopes = [  # the slope first: iso_slopes checks the pair, then it is kept as ints
        {"slope": _staged("tradeoff", iso_slopes, canon, i, j)[0], "pair": [int(i), int(j)]}
        for i, j in pairing
    ]
    rates = [
        {"from": r.from_variable, "to": r.to_variable, "ratio": r.ratio,
         "branch": r.branch, "bound": r.bound}
        for r in _staged("tradeoff", conversion_rates, canon, pairing)
    ]

    report = AnalysisReport(
        model={
            "variables": list(model.names),
            "response_label": model.response_label,
            "exponent": model.exponent,
            "intercept": model.intercept,
            "linear": model.linear.tolist(),
            "interaction": model.interaction.array.tolist(),
        },
        eigen=eigen_section,
        canonical=canonical_section,
        regions=region_sections,
        tradeoff={"iso_slopes": slopes, "conversion_rates": rates},
        provenance={
            "tool": "rsmcanon",
            "version": __version__,
            "model_digest_sha256": source_digest,
            "bound": bound,
            "region_center_override": region_canon.center.tolist() if center is not None else None,
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
        if exc.args and not str(exc.args[0]).startswith(f"[{stage}] "):
            exc.args = (f"[{stage}] {exc.args[0]}",) + exc.args[1:]
        raise
