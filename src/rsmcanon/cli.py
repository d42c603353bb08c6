"""Command line interface.

Subcommands: ``analyze`` (model -> report), ``regions`` (model ->
boundary-sample CSV), ``tradeoff`` (model -> exchange rates), ``fit``
(emissions CSV -> model JSON), ``predict`` (model + point -> natural
response). Exit status: 0 on success, 2 for input errors, 3 for
numerical failures, numpy overflow and invalid operations included, or
when memory runs out.

argparse converts every argument, each number by ``modelio.strict_number``
and ``--terms`` by ``model.parse_terms``, so the CLI parses no term label;
commands call the library (``fit`` only ``fitting.fit_emissions``) and
return the text it renders, formatting no numbers (``predict`` returns a
repr). ``main`` writes that text once, as UTF-8 whatever the locale: to
``-o`` through ``modelio.atomic_write``, or to stdout. ``fit``'s ``-o`` is
the model file it saves, so its summary always goes to stdout.

Each command imports only what it runs. A module that only some
commands use (``report``, which brings ``tradeoff``, and ``fitting``) is
imported inside those commands; the top-level imports are what every
command loads anyway, ``regions`` among them for the parser's defaults.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import __version__
from .canonical import canonicalize, with_center
from .errors import InputError, NumericalError, RsmError
from .model import parse_terms, predict_response
from .modelio import (
    EMISSIONS_FIELDS,
    EMISSIONS_NAMES,
    atomic_write,
    emit_plot_csv,
    file_digest,
    load_model,
    save_model,
    strict_number,
)
from .regions import DEFAULT_BOUND, DEFAULT_T_MAX, region


def _parse_pair(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise InputError(f"expected a pair like '1,3', got {text!r}")
    try:
        return (strict_number(int, parts[0]), strict_number(int, parts[1]))
    except ValueError:
        raise InputError(f"pair {text!r} must contain integers") from None


def _parse_pairs(text: str) -> list[tuple[int, int]] | None:  # "" keeps the default
    return [_parse_pair(chunk) for chunk in text.split(";") if chunk] if text else None


def _parse_vector(text: str) -> np.ndarray | None:  # "" keeps the default
    try:
        return np.array([strict_number(float, v) for v in text.split(",")]) if text else None
    except ValueError:
        raise InputError(f"expected comma-separated numbers, got {text!r}") from None


def _parse_years(text: str) -> list[int]:
    try:
        return [strict_number(int, y) for y in text.split(",") if y]
    except ValueError as exc:  # its message quotes the entry
        raise InputError(f"--exclude-years: {exc}") from None


def _parse_output(text: str) -> str:  # "" would put atomic_write's temporary file in ".."
    if not text:
        raise InputError("-o needs a path, not ''")
    return text


def _parse_model_path(text: str) -> str:  # "-" is stdout for every other command
    if text == "-":
        raise InputError("fit writes a model file: -o needs a path, not '-'")
    return _parse_output(text)


def _cmd_analyze(args) -> str:
    from .report import run_analysis

    model = load_model(args.model)
    report = run_analysis(model, pairs=args.pairs, bound=args.bound_M, pairing=args.pairing,
                          center=args.center, source_digest=file_digest(args.model))
    return report.to_json() if args.format == "json" else report.to_text()


def _cmd_regions(args) -> str:
    canon = canonicalize(load_model(args.model))
    if args.center is not None:
        canon = with_center(canon, args.center)
    return emit_plot_csv(region(canon, *args.pair, args.bound_M), args.samples, args.t_max)


def _cmd_tradeoff(args) -> str:
    from .report import run_analysis

    model = load_model(args.model)
    lines = run_analysis(model, pairs=[], pairing=args.pairing).tradeoff_lines(with_bound=True)
    return "".join(f"{line}\n" for line in lines)


def _cmd_fit(args) -> str:
    from .fitting import fit_emissions

    result = fit_emissions(args.data, args.terms, args.exponent, args.exclude_years)
    save_model(result.model, args.model_path)
    return result.to_text() + f"model written to {args.model_path}\n"


def _cmd_predict(args) -> str:
    return f"{predict_response(load_model(args.model), args.at)!r}\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rsmcanon",
        description="Canonical analysis of second-order response-surface models.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="run the full canonical analysis")
    analyze.add_argument("model", help="model JSON file")
    analyze.add_argument("--pairs", type=_parse_pairs,
                         help="region pairs, e.g. '1,3;2,4' (default: same-sign pairs)")
    analyze.add_argument("--bound-M", type=float, default=DEFAULT_BOUND, dest="bound_M",
                         help="response fluctuation bound M (default %(default)g)")
    analyze.add_argument("--pairing", type=_parse_pairs,
                         help="trade pairs, e.g. '1,4;2,3' (default: auto)")
    analyze.add_argument("--center", type=_parse_vector,
                         help="override region center, e.g. '534271,286155,8294.32,82045.4';"
                         " a leading minus needs the = form, --center=-1,0,0,0")
    analyze.add_argument("--format", choices=("json", "text"), default="text")
    analyze.add_argument("-o", "--output", type=_parse_output, help="write to file instead of stdout")
    analyze.set_defaults(func=_cmd_analyze)

    regions = sub.add_parser("regions", help="emit boundary samples for one region as CSV")
    regions.add_argument("model")
    regions.add_argument("--pair", type=_parse_pair, required=True, help="canonical pair, e.g. '1,3'")
    regions.add_argument("--bound-M", type=float, default=DEFAULT_BOUND, dest="bound_M")
    regions.add_argument("--samples", type=int, default=360)
    regions.add_argument("--t-max", type=float, default=DEFAULT_T_MAX, dest="t_max",
                         help="hyperbola parameter range (default %(default)g)")
    regions.add_argument("--center", type=_parse_vector,
                         help="override region center; a leading minus needs the = form,"
                         " --center=-1,0,0,0")
    regions.add_argument("-o", "--output", type=_parse_output, help="CSV path (default stdout)")
    regions.set_defaults(func=_cmd_regions)

    tradeoff = sub.add_parser("tradeoff", help="iso-response slopes and conversion rates")
    tradeoff.add_argument("model")
    tradeoff.add_argument("--pairing", type=_parse_pairs, help="pairs, e.g. '1,4;2,3' (default: auto)")
    tradeoff.add_argument("-o", "--output", type=_parse_output)
    tradeoff.set_defaults(func=_cmd_tradeoff)

    fit = sub.add_parser("fit", help="fit a model to an emissions CSV")
    fit.add_argument("data", help=f"emissions CSV (year,country,{','.join(EMISSIONS_FIELDS)}[,co2_ppmv])")
    fit.add_argument("--terms", type=functools.partial(parse_terms, names=EMISSIONS_NAMES),
                     required=True,
                     help="comma-separated terms, e.g. 'Li,Ga,Fl,Li:Li,Ga:Bu,Bu:Bu,Li:Fl'")
    fit.add_argument("--exponent", type=float, required=True,
                     help="response transform power, e.g. -2.376")
    fit.add_argument("--exclude-years", type=_parse_years, dest="exclude_years", default="",
                     help="comma-separated years to drop, e.g. '1964'")
    fit.add_argument("-o", "--output", type=_parse_model_path, required=True, dest="model_path",
                     metavar="OUTPUT", help="model JSON path")
    fit.set_defaults(func=_cmd_fit)

    predict = sub.add_parser("predict", help="natural-units response at a point")
    predict.add_argument("model")
    predict.add_argument("--at", type=_parse_vector, required=True,
                         help="point, e.g. '534271,286155,8294.32,82045.4';"
                         " a leading minus needs the = form, --at=-1,0,0,0")
    predict.set_defaults(func=_cmd_predict)

    for command in sub.choices.values():  # argparse's own int and float, under the same rule
        for kind in (int, float):
            command.register("type", kind, functools.partial(strict_number, kind))
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        with np.errstate(over="raise", invalid="raise"):
            text = args.func(args)
        path = getattr(args, "output", None)  # fit's -o is its model file, not the text's
        if path not in (None, "-"):
            atomic_write(path, text)
        elif hasattr(sys.stdout, "buffer"):
            # the bytes -o would write, whatever the locale; surrogateescape gives
            # back an undecodable argv path, which fit echoes, as the bytes given
            sys.stdout.flush()
            sys.stdout.buffer.write(text.encode("utf-8", "surrogateescape"))
        else:  # a text-only stream, such as redirect_stdout's StringIO
            sys.stdout.write(text)
        return 0
    except FloatingPointError as exc:  # numpy arithmetic that no library check caught
        what = ("overflowed past the largest float" if str(exc).startswith("overflow")
                else "gave an undefined result")
        sys.stderr.write(f"rsmcanon: NumericalError: {args.command}: arithmetic {what}\n")
        return NumericalError.exit_code
    except MemoryError:  # an allocation numpy or Python refused; nothing was written
        sys.stderr.write(f"rsmcanon: MemoryError: {args.command}: out of memory\n")
        return NumericalError.exit_code
    except RsmError as exc:
        # a stage-tagged message already starts with "[stage] "
        sys.stderr.write(f"rsmcanon: {type(exc).__name__}: {exc}\n")
        return exc.exit_code
    except OSError as exc:
        sys.stderr.write(f"rsmcanon: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
