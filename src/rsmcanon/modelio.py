"""File formats: model JSON, emissions CSV, and region-sample CSV.

Model files carry coefficients in absolute units; any printed scale
factors are the file author's responsibility. ``load_model_document``
reads keys beginning with ``reference_`` as opaque metadata (published
F-values and the like) that never feeds computation; ``save_model``
writes none.

Emissions CSVs have the header
``year,country,liquid,gas,gas_flares,bunker[,co2_ppmv]`` with
quantities in thousand metric tons and a blank or positive co2_ppmv;
``load_emissions`` returns the rejected rows and the per-year totals
across countries, less a year exclusion list, in the file's units.

Every file write goes through ``atomic_write``, by the rule ``open``
follows for modes. A regular file is replaced whole through a
write-temp-then-rename path, so partial output never lands under the
target name, and it keeps its mode; a file that already holds the
output is left in place and only touched. A new file gets ``open``'s
mode, 0o666 less the umask. A FIFO or a device is written in place.
"""

from __future__ import annotations

import csv
import io
import json
import math
import operator
import os
import stat
import sys
from dataclasses import dataclass
from importlib import resources
from json.encoder import encode_basestring_ascii

import numpy as np

from .errors import ParseError, SchemaError
from .model import ModelTerm, QuadraticModel, build_model
from .regions import DEFAULT_T_MAX, RegionParametrization, boundary_points

_MODEL_KEYS = {"variables", "exponent", "intercept", "terms", "response_label"}

EMISSIONS_FIELDS = ("liquid", "gas", "gas_flares", "bunker")
EMISSIONS_NAMES = ("Li", "Ga", "Fl", "Bu")


def atomic_write(path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8, whatever the locale, by the rule
    ``open(path, "w")`` follows: a new file gets 0o666 less the umask, and
    an existing file keeps its permission bits.

    A regular file is replaced through a temporary file and a rename; one
    that holds ``text`` already is only touched (its times set to now).
    Renaming over an existing file makes ext4 (``auto_da_alloc``) flush
    the new data first, which takes tens of milliseconds and would write
    the same bytes again. A symlink is replaced, never followed, by a new
    file. A FIFO or a device is opened and written in place."""
    try:
        st = os.lstat(path)
    except OSError:  # missing or unreachable: creating the temporary file says which
        st = None
    mode = None  # a new file gets open's
    if st is not None and stat.S_ISREG(st.st_mode):
        mode = stat.S_IMODE(st.st_mode)
        try:
            with open(path, encoding="utf-8", newline="") as handle:
                same = handle.read() == text
            if same:
                os.utime(path)
                return
        except (OSError, ValueError):  # unreadable or not text: write it
            pass
    elif st is not None and not stat.S_ISLNK(st.st_mode):  # a FIFO, a device or a directory
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".tmp-{os.urandom(8).hex()}")
    try:
        with open(tmp, "x", encoding="utf-8") as handle:
            if mode is not None:
                os.fchmod(handle.fileno(), mode)
            handle.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        if isinstance(exc, OSError) and exc.filename == tmp:  # name the path given alone
            raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
        raise


def load_model_document(path) -> dict:
    """Read and schema-check a model JSON file, metadata included. The file
    is UTF-8, with or without a byte-order mark."""
    with open(path, encoding="utf-8-sig") as handle:
        try:
            doc = json.load(handle)
        except (ValueError, RecursionError) as exc:  # malformed, an integer past int()'s
            # digit limit, or arrays and objects nested past the recursion limit
            raise ParseError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
                             if isinstance(exc, json.JSONDecodeError) else f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: top level must be an object")
    unknown = [k for k in doc if k not in _MODEL_KEYS and not k.startswith("reference_")]
    if unknown:
        raise SchemaError(f"{path}: unknown keys {sorted(unknown)}")
    for key in ("variables", "exponent", "intercept", "terms"):
        if key not in doc:
            raise SchemaError(f"{path}: missing required key {key!r}")
    if (not isinstance(doc["variables"], list) or not doc["variables"]
            or not all(isinstance(v, str) for v in doc["variables"])):
        raise SchemaError(f"{path}: 'variables' must be a non-empty list of names")
    if len(set(doc["variables"])) != len(doc["variables"]):
        raise SchemaError(f"{path}: duplicate variable names")
    if not isinstance(doc.get("response_label", ""), str):
        raise SchemaError(f"{path}: 'response_label' must be a string")
    for key, text in (("variables", "".join(doc["variables"])),
                      ("response_label", doc.get("response_label", ""))):
        try:
            text.encode("utf-8")
        except UnicodeEncodeError as exc:  # json reads a lone surrogate from "\ud800"
            raise SchemaError(f"{path}: {key!r} must be text UTF-8 can encode; "
                              f"{text[exc.start]!r} is a lone surrogate") from None
    _json_float(doc["exponent"], f"{path}: 'exponent'", finite=False)  # build_model names NaN, inf
    _json_float(doc["intercept"], f"{path}: 'intercept'")
    if not isinstance(doc["terms"], list):
        raise SchemaError(f"{path}: 'terms' must be a list")
    return doc


def _json_float(value, where: str, finite: bool = True) -> float:
    """A JSON number as a float. SchemaError names ``where`` for a bool, a
    non-number, an integer past the float range and, if ``finite``, NaN or ±inf."""
    if type(value) not in (int, float) or type(value) is int and abs(value) > sys.float_info.max:
        raise SchemaError(f"{where} must be a number in the float range")
    if finite and not math.isfinite(value):
        raise SchemaError(f"{where} must be finite, got {value!r}")
    return float(value)


def load_model(path) -> QuadraticModel:
    """Load a model JSON file (DuplicateTerm and friends propagate)."""
    doc = load_model_document(path)
    names = tuple(doc["variables"])
    index = {name: k for k, name in enumerate(names)}
    terms = []
    for pos, entry in enumerate(doc["terms"]):
        if (not isinstance(entry, dict) or set(entry) != {"vars", "coef"}
                or not isinstance(entry["vars"], list)
                or not all(isinstance(v, str) for v in entry["vars"])):
            raise SchemaError(f"{path}: term {pos}: expected {{'vars': [names], 'coef': number}}")
        try:
            idx = [index[v] for v in entry["vars"]]
        except KeyError as exc:
            raise SchemaError(f"{path}: term {pos}: unknown variable {exc.args[0]!r}") from exc
        coef = _json_float(entry["coef"], f"{path}: term {pos} ({':'.join(entry['vars'])}): 'coef'")
        if len(idx) not in (1, 2):
            raise SchemaError(f"{path}: term {pos}: needs 1 or 2 variables, got {len(idx)}")
        terms.append(ModelTerm(idx, coef))
    return build_model(
        terms,
        intercept=doc["intercept"],
        exponent=doc["exponent"],
        names=names,
        response_label=doc.get("response_label", "response"),
    )


def save_model(model: QuadraticModel, path) -> None:
    """Write a model back out in the same schema load_model reads.

    The file holds ``json.dumps(doc, indent=2, sort_keys=True)`` and a
    newline, byte for byte, rendered by ``json_text``."""
    doc = {
        "variables": list(model.names),
        "response_label": model.response_label,
        "exponent": model.exponent,
        "intercept": model.intercept,
        "terms": [
            {"vars": [model.names[k] for k in term.indices], "coef": term.coefficient}
            for term in model.terms
        ],
    }
    atomic_write(path, json_text(doc) + "\n")


def json_text(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, byte for byte, without the
    pure-Python encoder json runs when given an indent, for a tree of dicts with
    str keys, lists and tuples over any leaf json renders. Each other leaf goes
    to ``json.dumps``, so an unencodable one raises json's own exception."""
    return _json_node(obj, "\n")


def _json_node(obj, pad: str) -> str:
    if type(obj) is float and math.isfinite(obj):
        return repr(obj)
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    inner = pad + "  "
    if isinstance(obj, dict):  # most values are finite floats: render them inline
        ends, items = "{}", [encode_basestring_ascii(k) + ": " + (
            repr(v) if type(v) is float and math.isfinite(v) else _json_node(v, inner))
            for k, v in sorted(obj.items())]
    elif isinstance(obj, (list, tuple)):  # a list of finite floats in one join
        floats = all(type(v) is float for v in obj) and all(map(math.isfinite, obj))
        ends, items = "[]", list(map(repr, obj)) if floats else [_json_node(v, inner) for v in obj]
    else:  # int, bool, None, NaN, ±inf, a float subclass, or what json rejects
        return json.dumps(obj)
    return ends[0] + inner + ("," + inner).join(items) + pad + ends[1] if items else ends


def bundled_eu_model_path():
    """Path of the packaged EU CO2 case-study model."""
    return resources.files("rsmcanon").joinpath("data/eu_co2.model.json")


def load_bundled_eu_model() -> QuadraticModel:
    with resources.as_file(bundled_eu_model_path()) as path:
        return load_model(path)


def file_digest(path) -> str:
    import hashlib  # only analyze needs it, and it is slow to import

    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


@dataclass(frozen=True, eq=False)
class YearlyTotals:
    """Per-year country sums in the (Li, Ga, Fl, Bu) order."""

    years: tuple[int, ...]
    values: np.ndarray
    co2_ppmv: tuple[float | None, ...]


def strict_number(parse, text: str):
    """``parse(text)`` for ``int`` or ``float``, without the digit-group
    underscores both accept: ValueError for "1_0" rather than 10."""
    if "_" in text:
        raise ValueError(f"invalid literal for {parse.__name__}(): {text!r}")
    return parse(text)


def load_emissions(path, exclude_years=()) -> tuple[tuple[tuple[int, str], ...], YearlyTotals]:
    """Ingest an emissions CSV; return ``(rejected, totals)``.

    ``totals`` holds each year's running sums of its kept rows, which
    start at 0.0 and add the rows in file order. ``rejected``
    holds a (line number, reason) pair for each row with a negative
    quantity, which is left out rather than aborting the load. Rows of
    excluded years are parsed, so a malformed cell still raises, and
    dropped before every other check. ParseError names a duplicate
    (year, country), a malformed or non-finite cell (a digit-group
    underscore, as in ``1_000``, is malformed), a co2_ppmv that is not
    positive (it may be blank), an overflowing year total, conflicting
    co2_ppmv within a year, bytes that do not decode as UTF-8 (a
    byte-order mark is allowed) or CSV the reader refuses.
    A line number is the file line a record starts on, which a quoted
    cell holding a line break can put past the record's index.
    """
    exclude = {operator.index(y) for y in exclude_years}  # TypeError for 1964.9 or "1964"
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            reader = csv.reader(handle)
            records = [(reader.line_num, cells) for cells in reader]  # (last line, cells)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if not records:
        raise ParseError(f"{path}: empty file")
    header = [h.strip() for h in records[0][1]]
    expected = ["year", "country", *EMISSIONS_FIELDS]
    has_co2 = header == expected + ["co2_ppmv"]
    if not has_co2 and header != expected:
        raise ParseError(f"{path}: header {header} does not match {expected}[,co2_ppmv]")
    rejected: list[tuple[int, str]] = []
    seen: set[tuple[int, str]] = set()
    sums: dict[int, list[float]] = {}  # year -> running (Li, Ga, Fl, Bu) totals
    co2_by_year: dict[int, float] = {}
    co2_conflict = None  # the first year whose kept rows disagree on co2_ppmv
    # a record starts on the file line after the one the record before it ends on
    for (previous_end, _), (_, record) in zip(records, records[1:]):
        line_no = previous_end + 1
        text = "".join(record)
        if not text.strip():  # every cell blank
            continue
        if len(record) != len(header):
            raise ParseError(f"{path}: line {line_no}: expected {len(header)} cells")
        try:
            year = strict_number(int, record[0])
        except ValueError:
            raise ParseError(f"{path}: line {line_no}, column 'year': {record[0]!r}") from None
        country = record[1].strip()
        try:
            if "_" in text and "_" in "".join(record[2:]):  # the join only if a cell has one
                raise ValueError
            values = li, ga, fl, bu = (float(record[2]), float(record[3]),
                                       float(record[4]), float(record[5]))
            co2 = float(record[6]) if has_co2 and record[6].strip() else None
        except ValueError:  # name the first cell that failed
            for field, cell in zip((*EMISSIONS_FIELDS, "co2_ppmv"), record[2:]):
                try:
                    strict_number(float, cell)
                except ValueError:
                    raise ParseError(f"{path}: line {line_no}, column {field!r}: {cell!r}") from None
        if year in exclude:
            continue
        if (year, country) in seen:
            raise ParseError(f"{path}: line {line_no}: duplicate (year, country) "
                             f"({year}, {country!r})")
        seen.add((year, country))
        if li < 0.0 or ga < 0.0 or fl < 0.0 or bu < 0.0:
            rejected.append((line_no, f"negative emission for {country!r} in {year}"))
            continue
        if not math.isfinite(sum(values, co2 or 0.0)):  # a cell, or the sum overflowed
            for field, cell in zip((*EMISSIONS_FIELDS, "co2_ppmv"), record[2:]):
                if cell.strip() and not math.isfinite(float(cell)):
                    raise ParseError(f"{path}: line {line_no}, column {field!r}: "
                                     f"{cell!r} is not finite")
        if co2 is not None and co2 <= 0.0:  # -0.0 too
            raise ParseError(f"{path}: line {line_no}, column 'co2_ppmv': "
                             f"{record[6]!r} is not positive")
        total = sums.setdefault(year, [0.0, 0.0, 0.0, 0.0])
        for k, value in enumerate(values):
            total[k] += value  # a float sum past the range is inf, named below
        if co2 is not None:
            if co2_conflict is None and co2_by_year.get(year, co2) != co2:
                co2_conflict = year
            co2_by_year[year] = co2

    years = sorted(sums)
    totals = np.array([sums[y] for y in years]).reshape(-1, len(EMISSIONS_FIELDS))
    if not np.isfinite(totals).all():
        k, c = np.argwhere(~np.isfinite(totals))[0]
        raise ParseError(f"{path}: year {years[k]}, column {EMISSIONS_FIELDS[c]!r}: sum overflows")
    if co2_conflict is not None:
        raise ParseError(f"{path}: conflicting co2_ppmv for year {co2_conflict}")
    totals.setflags(write=False)
    return tuple(rejected), YearlyTotals(
        years=tuple(years),
        values=totals,
        co2_ppmv=tuple(co2_by_year.get(y) for y in years),
    )


def emit_plot_csv(region: RegionParametrization, count: int, t_max: float = DEFAULT_T_MAX) -> str:
    """Render the ``boundary_points`` samples of a region as CSV text.

    Columns: ``param,r,z_<i>,z_<j>,<variable names...>``, the header
    quoted as the ``csv`` module quotes by default, one row per
    sample: ``count`` rows tracing a closed ellipse (the last row equals
    the first up to rounding), or ``count`` rows per hyperbola branch
    (r = +1, then r = -1). ``boundary_points`` raises InputError for a
    count that is not an integer of at least 2, a t_max that is not a
    positive, finite number, or samples that overflow.

    The r = -1 rows reuse the r = +1 ``repr`` strings of param and z,
    flipping the sign of z by string (0.0 gives -0.0). That is exact:
    r * cosh(t) and r * sinh(t) negate exactly, and a * (-c) = -(a * c).
    """
    t, _, z, x = boundary_points(region, count, t_max)
    i, j = region.pair
    header = io.StringIO()  # a name may hold a comma, a quote or a line break
    csv.writer(header).writerow(["param", "r", f"z_{i}", f"z_{j}", *region.names])
    lines = [header.getvalue().removesuffix("\r\n")]
    xs = [",".join(map(repr, row)) for row in x.tolist()]
    ts, z1, z2 = (list(map(repr, col)) for col in (t[:count].tolist(), *z[:count].T.tolist()))
    lines += [f"{p},1.0,{a},{b},{row}" for p, a, b, row in zip(ts, z1, z2, xs)]
    if region.unbounded:
        z1, z2 = ([s[1:] if s[0] == "-" else "-" + s for s in col] for col in (z1, z2))
        lines += [f"{p},-1.0,{a},{b},{row}" for p, a, b, row in zip(ts, z1, z2, xs[count:])]
    return "\n".join(lines) + "\n"
