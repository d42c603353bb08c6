"""File formats: model JSON, emissions CSV, and region-sample CSV.

Model files carry coefficients in absolute units; any printed scale
factors are the file author's responsibility. Keys beginning with
``reference_`` are passed through as opaque metadata (published
F-values and the like) and never feed computation.

Emissions CSVs have the header
``year,country,liquid,gas,gas_flares,bunker[,co2_ppmv]`` with
quantities in thousand metric tons; ingestion aggregates per-year
totals across countries and applies a year exclusion list. No unit
conversion is performed.

All file writes go through a write-temp-then-rename path so partial
output never lands under the target name.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import NegativeEmission, ParseError, SchemaError
from .model import ModelTerm, QuadraticModel, build_model
from .regions import DEFAULT_T_MAX, RegionParametrization, _sample

_MODEL_KEYS = {"variables", "exponent", "intercept", "terms", "response_label"}

EMISSIONS_FIELDS = ("liquid", "gas", "gas_flares", "bunker")
EMISSIONS_NAMES = ("Li", "Ga", "Fl", "Bu")


def atomic_write(path, text: str) -> None:
    """Write ``text`` to ``path`` through a temporary file and a rename,
    with the mode a plain ``open`` would give (0o666 less the umask)."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def load_model_document(path) -> dict:
    """Read and schema-check a model JSON file, metadata included."""
    with open(path) as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
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
    for key in ("exponent", "intercept"):
        if not isinstance(doc[key], (int, float)) or isinstance(doc[key], bool):
            raise SchemaError(f"{path}: {key!r} must be a number")
    if not isinstance(doc["terms"], list):
        raise SchemaError(f"{path}: 'terms' must be a list")
    return doc


def model_from_document(doc: dict) -> QuadraticModel:
    names = tuple(doc["variables"])
    index = {name: k for k, name in enumerate(names)}
    terms = []
    for pos, entry in enumerate(doc["terms"]):
        if (not isinstance(entry, dict) or set(entry) != {"vars", "coef"}
                or not isinstance(entry["vars"], list)):
            raise SchemaError(f"term {pos}: expected {{'vars': [...], 'coef': number}}")
        if not isinstance(entry["coef"], (int, float)) or isinstance(entry["coef"], bool):
            raise SchemaError(f"term {pos}: 'coef' must be a number")
        try:
            idx = [index[v] for v in entry["vars"]]
        except KeyError as exc:
            raise SchemaError(f"term {pos}: unknown variable {exc.args[0]!r}") from exc
        if len(idx) == 1:
            terms.append(ModelTerm.linear(idx[0], entry["coef"]))
        elif len(idx) == 2:
            terms.append(ModelTerm.quadratic(idx[0], idx[1], entry["coef"]))
        else:
            raise SchemaError(f"term {pos}: needs 1 or 2 variables, got {len(idx)}")
    return build_model(
        terms,
        intercept=doc["intercept"],
        exponent=doc["exponent"],
        names=names,
        response_label=doc.get("response_label", "response"),
    )


def load_model(path) -> QuadraticModel:
    """Load a model JSON file (DuplicateTerm and friends propagate)."""
    return model_from_document(load_model_document(path))


def save_model(model: QuadraticModel, path, metadata: dict | None = None) -> None:
    """Write a model back out in the same schema load_model reads."""
    doc: dict = {
        "variables": list(model.names),
        "response_label": model.response_label,
        "exponent": model.exponent,
        "intercept": model.intercept,
        "terms": [
            {"vars": [model.names[k] for k in term.indices], "coef": term.coefficient}
            for term in model.terms
        ],
    }
    for key, value in (metadata or {}).items():
        if not key.startswith("reference_"):
            raise SchemaError(f"metadata keys must start with 'reference_', got {key!r}")
        doc[key] = value
    atomic_write(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def bundled_eu_model_path():
    """Path of the packaged EU CO2 case-study model."""
    return resources.files("rsmcanon").joinpath("data/eu_co2.model.json")


def load_bundled_eu_model() -> QuadraticModel:
    with resources.as_file(bundled_eu_model_path()) as path:
        return load_model(path)


def file_digest(path) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


@dataclass(frozen=True)
class EmissionsRow:
    year: int
    country: str
    values: tuple[float, float, float, float]
    co2_ppmv: float | None


@dataclass(frozen=True, eq=False)
class EmissionsTable:
    """Accepted rows plus bookkeeping from ingestion."""

    rows: tuple[EmissionsRow, ...]
    excluded_years: tuple[int, ...]
    rejected: tuple[tuple[int, str], ...]  # (line number, reason)


@dataclass(frozen=True, eq=False)
class YearlyTotals:
    """Per-year country sums in the (Li, Ga, Fl, Bu) order."""

    years: tuple[int, ...]
    values: np.ndarray
    co2_ppmv: tuple[float | None, ...]


def load_emissions(path, exclude_years=()) -> tuple[EmissionsTable, YearlyTotals]:
    """Ingest an emissions CSV and aggregate per-year totals.

    Rows from excluded years are dropped; rows with negative
    quantities are rejected and flagged rather than aborting the load.
    Conflicting co2_ppmv values within a year, duplicate
    (year, country) rows, and malformed cells raise ParseError.
    """
    exclude = {int(y) for y in exclude_years}
    rows: list[EmissionsRow] = []
    rejected: list[tuple[int, str]] = []
    seen: set[tuple[int, str]] = set()
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        expected = ["year", "country", *EMISSIONS_FIELDS]
        has_co2 = header == expected + ["co2_ppmv"]
        if not has_co2 and header != expected:
            raise ParseError(f"{path}: header {header} does not match {expected}[,co2_ppmv]")
        for line_no, record in enumerate(reader, start=2):
            if not record or all(not cell.strip() for cell in record):
                continue
            if len(record) != len(header):
                raise ParseError(f"{path}: line {line_no}: expected {len(header)} cells")
            try:
                year = int(record[0])
            except ValueError:
                raise ParseError(f"{path}: line {line_no}, column 'year': {record[0]!r}") from None
            country = record[1].strip()
            values = []
            for field, cell in zip(EMISSIONS_FIELDS, record[2:6]):
                try:
                    values.append(float(cell))
                except ValueError:
                    raise ParseError(
                        f"{path}: line {line_no}, column {field!r}: {cell!r}"
                    ) from None
            co2 = None
            if has_co2 and record[6].strip():
                try:
                    co2 = float(record[6])
                except ValueError:
                    raise ParseError(
                        f"{path}: line {line_no}, column 'co2_ppmv': {record[6]!r}"
                    ) from None
            if year in exclude:
                continue
            if (year, country) in seen:
                raise ParseError(f"{path}: line {line_no}: duplicate (year, country) "
                                 f"({year}, {country!r})")
            seen.add((year, country))
            if any(v < 0.0 for v in values):
                rejected.append((line_no, NegativeEmission(
                    f"negative emission for {country!r} in {year}").args[0]))
                continue
            rows.append(EmissionsRow(year, country, tuple(values), co2))

    table = EmissionsTable(tuple(rows), tuple(sorted(exclude)), tuple(rejected))
    years = sorted({r.year for r in rows})
    totals = np.zeros((len(years), len(EMISSIONS_FIELDS)))
    co2_by_year: dict[int, float] = {}
    pos = {y: k for k, y in enumerate(years)}
    for r in rows:
        totals[pos[r.year]] += np.asarray(r.values)
        if r.co2_ppmv is not None:
            prev = co2_by_year.get(r.year)
            if prev is not None and prev != r.co2_ppmv:
                raise ParseError(f"{path}: conflicting co2_ppmv for year {r.year}")
            co2_by_year[r.year] = r.co2_ppmv
    totals.setflags(write=False)
    summary = YearlyTotals(
        years=tuple(years),
        values=totals,
        co2_ppmv=tuple(co2_by_year.get(y) for y in years),
    )
    return table, summary


def emit_plot_csv(region: RegionParametrization, count: int, t_max: float = DEFAULT_T_MAX,
                  path=None) -> str:
    """Render region boundary samples as CSV text, optionally to a file.

    Columns: ``param,r,z_<i>,z_<j>,<variable names...>``. Ellipses emit
    ``count`` rows tracing a closed curve (the last row equals the first
    up to rounding); hyperbolas emit ``count`` rows per branch (r = +1,
    then r = -1), 2*count in total. Raises InputError for count < 2 or a
    t_max that is not positive and finite.
    """
    t, r, z, x = _sample(region, count, t_max, closed=True)
    i, j = region.pair
    lines = [",".join(["param", "r", f"z_{i}", f"z_{j}", *region.names])]
    lines += [",".join(map(repr, row)) for row in np.column_stack([t, r, z, x]).tolist()]
    text = "\n".join(lines) + "\n"
    if path is not None:
        atomic_write(path, text)
    return text
