"""Command line interface.

Subcommands: ``analyze`` (model -> report), ``regions`` (model ->
boundary-sample CSV), ``tradeoff`` (model -> exchange rates), ``fit``
(emissions CSV -> model JSON), ``predict`` (model + point -> natural
response). Exit status: 0 on success, 2 for input errors, 3 for
numerical failures.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import __version__
from .canonical import canonicalize, with_center
from .errors import InputError, RsmError
from .fitting import Dataset, ols_fit
from .model import predict_response
from .modelio import (
    EMISSIONS_NAMES,
    atomic_write,
    emit_plot_csv,
    file_digest,
    load_emissions,
    load_model,
    save_model,
)
from .regions import region
from .report import run_analysis


def _parse_pair(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise InputError(f"expected a pair like '1,3', got {text!r}")
    try:
        return (int(parts[0]), int(parts[1]))
    except ValueError:
        raise InputError(f"pair {text!r} must contain integers") from None


def _parse_pairs(text: str) -> list[tuple[int, int]]:
    return [_parse_pair(chunk) for chunk in text.split(";") if chunk]


def _parse_vector(text: str) -> np.ndarray:
    try:
        return np.array([float(v) for v in text.split(",")])
    except ValueError:
        raise InputError(f"expected comma-separated numbers, got {text!r}") from None


def _parse_terms(text: str, names) -> list[tuple[int, ...]]:
    index = {name: k for k, name in enumerate(names)}
    terms = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            idx = tuple(index[part] for part in chunk.split(":"))
        except KeyError as exc:
            raise InputError(f"unknown variable {exc.args[0]!r} in term {chunk!r}") from None
        terms.append(idx)
    if not terms:
        raise InputError("no terms given")
    return terms


def _write_or_print(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        atomic_write(path, text)


def _cmd_analyze(args) -> int:
    model = load_model(args.model)
    pairs = _parse_pairs(args.pairs) if args.pairs else None
    pairing = _parse_pairs(args.pairing) if args.pairing else None
    center = _parse_vector(args.center) if args.center else None
    report = run_analysis(model, pairs=pairs, bound=args.bound_M, pairing=pairing,
                          center=center, source_digest=file_digest(args.model))
    _write_or_print(report.to_json() if args.format == "json" else report.to_text(),
                    args.output)
    return 0


def _cmd_regions(args) -> int:
    model = load_model(args.model)
    canon = canonicalize(model)
    if args.center:
        canon = with_center(canon, _parse_vector(args.center))
    i, j = _parse_pair(args.pair)
    text = emit_plot_csv(region(canon, i, j, args.bound_M), args.samples, args.t_max)
    _write_or_print(text, args.output)
    return 0


def _cmd_tradeoff(args) -> int:
    model = load_model(args.model)
    pairing = _parse_pairs(args.pairing) if args.pairing else None
    tradeoff = run_analysis(model, pairs=[], pairing=pairing).tradeoff
    lines = []
    for entry in tradeoff["iso_slopes"]:
        i, j = entry["pair"]
        lines.append(f"z{i} = +-{entry['slope']:.9g} z{j}")
    for rate in tradeoff["conversion_rates"]:
        lines.append(f"{rate['from']} = {rate['ratio']:.6g} {rate['to']}"
                     f"   [branch {rate['branch']}, M = {rate['bound']:g}]")
    _write_or_print("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_fit(args) -> int:
    exclude = [int(y) for y in args.exclude_years.split(",") if y] if args.exclude_years else []
    table, totals = load_emissions(args.data, exclude_years=exclude)
    kept = [k for k, co2 in enumerate(totals.co2_ppmv) if co2 is not None]
    if not kept:
        raise InputError(f"{args.data}: no rows carry a co2_ppmv response")
    dataset = Dataset(
        X=totals.values[kept],
        y=np.array([totals.co2_ppmv[k] for k in kept]),
        names=EMISSIONS_NAMES,
    )
    terms = _parse_terms(args.terms, EMISSIONS_NAMES)
    result = ols_fit(dataset, terms, args.exponent, response_label="CO2 ppmv")
    save_model(result.model, args.output)
    dropped = len(totals.years) - len(kept)
    sys.stdout.write(f"fit over {len(kept)} years"
                     + (f" ({dropped} without co2_ppmv dropped)" if dropped else "")
                     + (f"; {len(table.rejected)} rows rejected" if table.rejected else "")
                     + f"; SSE = {result.sse:.6g}\n")
    sys.stdout.write("rank term        coefficient      F\n")
    by_label = {s.label: s for s in result.term_stats}
    for rank, label in enumerate(result.ranking, start=1):
        s = by_label[label]
        sys.stdout.write(f"{rank:>4} {s.label:<11} {s.coefficient:>+12.6g} {s.f_value:>10.4g}\n")
    sys.stdout.write(f"model written to {args.output}\n")
    return 0


def _cmd_predict(args) -> int:
    model = load_model(args.model)
    point = _parse_vector(args.at)
    value = predict_response(model, point)
    sys.stdout.write(f"{value!r}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rsmcanon",
        description="Canonical analysis of second-order response-surface models.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="run the full canonical analysis")
    analyze.add_argument("model", help="model JSON file")
    analyze.add_argument("--pairs", help="region pairs, e.g. '1,3;2,4' (default: same-sign pairs)")
    analyze.add_argument("--bound-M", type=float, default=1e-8, dest="bound_M",
                         help="response fluctuation bound M (default 1e-8)")
    analyze.add_argument("--pairing", help="trade pairs, e.g. '1,4;2,3' (default: auto)")
    analyze.add_argument("--center", help="override region center, e.g. '534271,286155,8294.32,82045.4'")
    analyze.add_argument("--format", choices=("json", "text"), default="text")
    analyze.add_argument("-o", "--output", help="write to file instead of stdout")
    analyze.set_defaults(func=_cmd_analyze)

    regions = sub.add_parser("regions", help="emit boundary samples for one region as CSV")
    regions.add_argument("model")
    regions.add_argument("--pair", required=True, help="canonical pair, e.g. '1,3'")
    regions.add_argument("--bound-M", type=float, default=1e-8, dest="bound_M")
    regions.add_argument("--samples", type=int, default=360)
    regions.add_argument("--t-max", type=float, default=3.0, dest="t_max",
                         help="hyperbola parameter range (default 3.0)")
    regions.add_argument("--center", help="override region center")
    regions.add_argument("-o", "--output", help="CSV path (default stdout)")
    regions.set_defaults(func=_cmd_regions)

    tradeoff = sub.add_parser("tradeoff", help="iso-response slopes and conversion rates")
    tradeoff.add_argument("model")
    tradeoff.add_argument("--pairing", help="pairs, e.g. '1,4;2,3' (default: auto)")
    tradeoff.add_argument("-o", "--output")
    tradeoff.set_defaults(func=_cmd_tradeoff)

    fit = sub.add_parser("fit", help="fit a model to an emissions CSV")
    fit.add_argument("data", help="emissions CSV (year,country,liquid,gas,gas_flares,bunker[,co2_ppmv])")
    fit.add_argument("--terms", required=True,
                     help="comma-separated terms, e.g. 'Li,Ga,Fl,Li:Li,Ga:Bu,Bu:Bu,Li:Fl'")
    fit.add_argument("--exponent", type=float, required=True,
                     help="response transform power, e.g. -2.376")
    fit.add_argument("--exclude-years", dest="exclude_years", default="",
                     help="comma-separated years to drop, e.g. '1964'")
    fit.add_argument("-o", "--output", required=True, help="model JSON to write")
    fit.set_defaults(func=_cmd_fit)

    predict = sub.add_parser("predict", help="natural-units response at a point")
    predict.add_argument("model")
    predict.add_argument("--at", required=True, help="point, e.g. '534271,286155,8294.32,82045.4'")
    predict.set_defaults(func=_cmd_predict)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except RsmError as exc:
        # a stage-tagged message already starts with "[stage] "
        sys.stderr.write(f"rsmcanon: {type(exc).__name__}: {exc}\n")
        return exc.exit_code
    except OSError as exc:
        sys.stderr.write(f"rsmcanon: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
