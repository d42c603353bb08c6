"""File formats, report generation, and the command line."""

import contextlib
import csv
import dataclasses
import errno
import inspect
import io
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import rsmcanon as rc
from rsmcanon.cli import main
from rsmcanon.modelio import EMISSIONS_NAMES, atomic_write

from eu_reference import EU_WORKED_CENTER

M_IPCC = 1e-8

EMISSIONS_HEADER = "year,country,liquid,gas,gas_flares,bunker,co2_ppmv"

GOLDEN = Path(__file__).parent / "golden"

# integer literals past the largest float, of either sign, up to about
# 4,000 digits (Python parses at most 4,300 by default)
FLOAT_MAX = int(sys.float_info.max)
huge_int = st.builds(lambda m, e, sign: sign * (FLOAT_MAX + 1 + m * 10 ** e),
                     st.integers(0, 10 ** 6), st.integers(0, 3990), st.sampled_from([1, -1]))


def assert_tree_close(got, want, path="$", floor=0.0):
    """Structure, strings and ints exactly; floats at rel 1e-12, with an
    absolute floor of 1e-12 times the largest float in the same list."""
    assert type(got) is type(want), path
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), path
        for key in want:
            assert_tree_close(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        scale = max((abs(w) for w in want if isinstance(w, float)), default=0.0)
        for k, (g, w) in enumerate(zip(got, want)):
            assert_tree_close(g, w, f"{path}[{k}]", scale)
    elif isinstance(want, float):
        assert abs(got - want) <= 1e-12 * (abs(want) + floor), f"{path}: {got!r} vs {want!r}"
    else:
        assert got == want, path


def model_doc(**fields):
    """A one-variable model document with ``fields`` replaced; None drops a key."""
    doc = {"variables": ["x"], "exponent": 1.0, "intercept": 0.0, "terms": []}
    doc.update(fields)
    return {key: value for key, value in doc.items() if value is not None}


class TestModelFiles:
    def test_bundled_eu_values(self, eu_model):
        assert eu_model.names == ("Li", "Ga", "Fl", "Bu")
        assert eu_model.exponent == -2.376
        assert eu_model.intercept == 1.23e-6
        assert eu_model.interaction.array[1, 3] == pytest.approx(37.3391e-18, rel=1e-12)
        assert eu_model.response_label == "CO2 ppmv"

    def test_reference_metadata_present(self):
        # carried as metadata only; nothing recomputes these
        with rc.bundled_eu_model_path().open() as handle:
            doc = json.load(handle)
        assert len(doc["reference_f_values"]) == 8
        assert "Li:Bu" in doc["reference_f_values"]
        assert len(doc["reference_stationary_point"]) == 4
        assert len(doc["reference_region_center"]) == 4

    def test_round_trip(self, eu_model, tmp_path):
        path = tmp_path / "model.json"
        rc.save_model(eu_model, path)
        again = rc.load_model(path)
        assert again.names == eu_model.names
        assert again.intercept == eu_model.intercept
        assert again.exponent == eu_model.exponent
        assert np.array_equal(again.linear, eu_model.linear)
        assert np.array_equal(again.interaction.array, eu_model.interaction.array)
        text = path.read_text()  # the bytes json.dumps gives for the document
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"

    def test_byte_order_mark_loads_as_the_plain_file(self, eu_model, tmp_path):
        # a UTF-8 byte-order mark, as some editors save JSON
        path = tmp_path / "model.json"
        path.write_bytes(b"\xef\xbb\xbf" + rc.bundled_eu_model_path().read_bytes())
        again = rc.load_model(path)
        assert (again.names, again.intercept, again.exponent, again.response_label) == (
            eu_model.names, eu_model.intercept, eu_model.exponent, eu_model.response_label)
        assert np.array_equal(again.linear, eu_model.linear)
        assert np.array_equal(again.interaction.array, eu_model.interaction.array)
        assert rc.load_model_document(path) == rc.load_model_document(rc.bundled_eu_model_path())

    def test_empty_terms_is_zero_model(self, tmp_path):
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({
            "variables": ["x", "y"], "exponent": 1.0, "intercept": 0.5, "terms": []}))
        m = rc.load_model(path)
        assert np.all(m.linear == 0.0) and np.all(m.interaction.array == 0.0)

    def test_repeated_term_rejected(self, tmp_path):
        path = tmp_path / "dup.json"
        path.write_text(json.dumps({
            "variables": ["Ga", "Bu"], "exponent": 1.0, "intercept": 0.0,
            "terms": [{"vars": ["Ga", "Bu"], "coef": 1.0},
                      {"vars": ["Bu", "Ga"], "coef": 2.0}]}))
        with pytest.raises(rc.DuplicateTerm):
            rc.load_model(path)

    def test_malformed_json_names_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"variables": ["x"],\n  "exponent": }')
        with pytest.raises(rc.ParseError) as err:
            rc.load_model(path)
        assert "line 2" in str(err.value)

    @pytest.mark.parametrize("exponent", ["NaN", "Infinity", "-Infinity", "5e-324"])
    def test_exponent_without_finite_reciprocal_rejected(self, tmp_path, exponent):
        path = tmp_path / "exp.json"
        path.write_text('{"variables": ["x"], "exponent": %s, "intercept": 1.0, '
                        '"terms": [{"vars": ["x", "x"], "coef": 1.0}]}' % exponent)
        with pytest.raises(rc.DomainError, match=f"exponent {float(exponent)!r}"):
            rc.load_model(path)

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("where, named", [
        ("intercept", "'intercept' must be finite"),
        ("coef", "term 2 (x:y): 'coef' must be finite"),
    ], ids=["intercept", "coef"])
    def test_non_finite_coefficient_names_key_or_term(self, tmp_path, capsys, value, where, named):
        path = tmp_path / "nonfinite.json"
        path.write_text('{"variables": ["x", "y"], "exponent": 1.0, "intercept": %s, "terms": ['
                        '{"vars": ["x", "x"], "coef": -1.0}, {"vars": ["y", "y"], "coef": -1.0}, '
                        '{"vars": ["x", "y"], "coef": %s}]}'
                        % ((value, "0.5") if where == "intercept" else ("1.0", value)))
        named += f", got {float(value)!r}"
        with pytest.raises(rc.SchemaError, match=re.escape(named)):
            rc.load_model(path)
        assert main(["analyze", str(path)]) == 2
        err = capsys.readouterr().err
        assert "SchemaError: " in err and named in err

    @given(key=st.sampled_from(["exponent", "intercept", "coef"]),
           value=st.one_of(huge_int, st.booleans(), st.none(), st.text(max_size=4),
                           st.lists(st.integers(-3, 3), max_size=2)))
    def test_non_number_names_key_or_term(self, tmp_path_factory, key, value):
        path = tmp_path_factory.mktemp("numbers") / "model.json"
        doc = {"variables": ["x", "y"], "exponent": 1.0, "intercept": 1.0,
               "terms": [{"vars": ["x", "x"], "coef": -1.0}, {"vars": ["y", "y"], "coef": -1.0},
                         {"vars": ["x", "y"], "coef": 0.5}]}
        if key == "coef":
            doc["terms"][2]["coef"] = value
        else:
            doc[key] = value
        path.write_text(json.dumps(doc))
        named = {"coef": "term 2 (x:y): 'coef'"}.get(key, repr(key)) + " must be a number"
        with pytest.raises(rc.SchemaError, match=re.escape(named)):
            rc.load_model(path)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main(["analyze", str(path)]) == 2
        assert err.getvalue() == f"rsmcanon: SchemaError: {path}: {named} in the float range\n"

    @pytest.mark.parametrize("text, match", [
        ('{"variables": ["x"], "exponent": 1.0, "intercept": %s, "terms": []}'
         % ("9" * (sys.get_int_max_str_digits() + 1)), "integer string conversion"),
        ('{"variables": ' + "[" * 100_000 + "]" * 100_000 + "}", "maximum recursion depth"),
    ], ids=["long-integer", "deep-nesting"])
    def test_json_past_a_parser_limit_is_a_parse_error(self, tmp_path, text, match):
        path = tmp_path / "model.json"
        path.write_text(text)
        with pytest.raises(rc.ParseError, match=match):
            rc.load_model(path)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main(["analyze", str(path)]) == 2
        assert err.getvalue().startswith(f"rsmcanon: ParseError: {path}: ")

    @pytest.mark.parametrize("doc, message", [
        ([], "top level must be an object"),
        (model_doc(terms=None), "missing required key 'terms'"),
        (model_doc(variables=[]), "'variables' must be a non-empty list of names"),
        (model_doc(variables=["x", "x"]), "duplicate variable names"),
        (model_doc(terms={}), "'terms' must be a list"),
        (model_doc(terms=[{"vars": [], "coef": 1.0}]), "term 0: needs 1 or 2 variables, got 0"),
        (model_doc(terms=[{"vars": ["x"] * 3, "coef": 1.0}]), "term 0: needs 1 or 2 variables, got 3"),
        (model_doc(response_label=5), "'response_label' must be a string"),
        ({**model_doc(), "response_label": None}, "'response_label' must be a string"),
        (model_doc(response_label=["a"]), "'response_label' must be a string"),
        (model_doc(variables=["\ud800"]),
         "'variables' must be text UTF-8 can encode; '\\ud800' is a lone surrogate"),
        (model_doc(response_label="\ud800"),
         "'response_label' must be text UTF-8 can encode; '\\ud800' is a lone surrogate"),
    ])
    def test_schema_error_names_file_and_rule(self, tmp_path, doc, message):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(rc.SchemaError, match=f"^{re.escape(f'{path}: {message}')}$"):
            rc.load_model(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "extra.json"
        path.write_text(json.dumps({
            "variables": ["x"], "exponent": 1.0, "intercept": 0.0,
            "terms": [], "surprise": 1}))
        with pytest.raises(rc.SchemaError):
            rc.load_model(path)

    def test_unknown_variable_in_term(self, tmp_path):
        path = tmp_path / "badvar.json"
        path.write_text(json.dumps({
            "variables": ["x"], "exponent": 1.0, "intercept": 0.0,
            "terms": [{"vars": ["q"], "coef": 1.0}]}))
        with pytest.raises(rc.SchemaError):
            rc.load_model(path)

    @given(bad=st.one_of(st.lists(st.text(max_size=2), max_size=2),
                         st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
                         st.integers(), st.floats(allow_nan=False), st.none(), st.booleans()),
           at=st.integers(0, 1), pos=st.integers(0, 2))
    def test_non_string_variable_names_term(self, tmp_path_factory, bad, at, pos):
        path = tmp_path_factory.mktemp("vars") / "model.json"
        terms = [{"vars": ["x", "x"], "coef": -1.0}, {"vars": ["y", "y"], "coef": -1.0},
                 {"vars": ["x", "y"], "coef": 0.5}]
        terms[pos]["vars"][at] = bad
        path.write_text(json.dumps({"variables": ["x", "y"], "exponent": 1.0,
                                    "intercept": 1.0, "terms": terms}))
        named = f"term {pos}: expected {{'vars': [names]"
        with pytest.raises(rc.SchemaError, match=re.escape(named)):
            rc.load_model(path)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main(["analyze", str(path)]) == 2
        assert err.getvalue().startswith(f"rsmcanon: SchemaError: {path}: {named}")
        assert err.getvalue().count("\n") == 1


# a Latin-1 country name, and a cell past the csv module's field size limit
UNREADABLE_CSV = [
    (f"{EMISSIONS_HEADER}\n2000,\u00d6sterreich,1,1,1,1,316.0\n".encode("latin-1"),
     "can't decode byte 0xd6"),
    (f'{EMISSIONS_HEADER}\n2000,"{"x" * 200_000}",1,1,1,1,316.0\n'.encode(),
     re.escape("field larger than field limit")),
]


def write_emissions(path, rows, header=EMISSIONS_HEADER):
    path.write_text(header + "\n" + "\n".join(rows) + "\n")


def noisy_emissions_rows(seed=11, years=range(1960, 1990)):
    """Two countries with EU-scale totals (graded over about six decades
    once squared) and a co2_ppmv with 0.5 ppmv of seeded noise."""
    rng = np.random.default_rng(seed)
    lo = np.array([2e5, 2e4, 5e3, 5e4])
    hi = np.array([6e5, 3e5, 1.2e4, 9e4])
    rows = []
    for year in years:
        total = lo + (hi - lo) * rng.random(4)
        u = (total - lo) / (hi - lo)
        co2 = float(320.0 + 40.0 * u[0] + 15.0 * u[1] * u[3] - 8.0 * u[2]
                    + 0.5 * rng.standard_normal())
        split = rng.uniform(0.3, 0.7)
        for name, frac in (("A", split), ("B", 1.0 - split)):
            cells = [str(year), name] + [repr(float(v)) for v in total * frac]
            cells.append(repr(co2) if name == "A" else "")
            rows.append(",".join(cells))
    return rows


class TestEmissions:
    def test_totals_sum_over_countries(self, tmp_path):
        path = tmp_path / "e.csv"
        write_emissions(path, [
            "2000,Austria,10,1,0.5,2,316.0",
            "2000,Belgium,20,2,0.5,3,316.0",
        ])
        _, totals = rc.load_emissions(path)
        assert totals.years == (2000,)
        np.testing.assert_allclose(totals.values[0], [30.0, 3.0, 1.0, 5.0])
        assert totals.co2_ppmv == (316.0,)

    def test_byte_order_mark_loads_as_the_plain_file(self, tmp_path):
        # a spreadsheet's "CSV UTF-8" export starts with a byte-order mark
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        write_emissions(plain, noisy_emissions_rows())
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        rejected, totals = rc.load_emissions(marked)
        want_rejected, want = rc.load_emissions(plain)
        assert rejected == want_rejected
        assert (totals.years, totals.co2_ppmv) == (want.years, want.co2_ppmv)
        assert totals.values.tobytes() == want.values.tobytes()

    def test_year_exclusion(self, tmp_path):
        path = tmp_path / "e.csv"
        write_emissions(path, [
            "1963,Austria,1,1,1,1,318.0",
            "1964,Austria,2,2,2,2,319.0",
            "1965,Austria,3,3,3,3,320.0",
        ])
        rejected, totals = rc.load_emissions(path, exclude_years=[1964])
        assert rejected == () and totals.years == (1963, 1965)
        np.testing.assert_array_equal(totals.values, [[1.0] * 4, [3.0] * 4])
        assert totals.co2_ppmv == (318.0, 320.0)

    def test_year_exclusion_takes_integers_only(self, tmp_path):
        # int() would truncate 1964.9 and read "1_964", excluding 1964
        path = tmp_path / "e.csv"
        write_emissions(path, ["1964,Austria,2,2,2,2,319.0", "1965,Austria,3,3,3,3,320.0"])
        for year in (1964.9, "1_964", "1964", None):
            with pytest.raises(TypeError):
                rc.load_emissions(path, exclude_years=[year])
        _, totals = rc.load_emissions(path, exclude_years=[np.int64(1964)])
        assert totals.years == (1965,)

    def test_malformed_cell_names_row_and_column(self, tmp_path):
        path = tmp_path / "e.csv"
        write_emissions(path, ["2000,Austria,10,oops,0.5,2,316.0"])
        with pytest.raises(rc.ParseError) as err:
            rc.load_emissions(path)
        assert "line 2" in str(err.value) and "gas" in str(err.value)

    def test_negative_row_rejected_and_flagged(self, tmp_path):
        path = tmp_path / "e.csv"
        write_emissions(path, [
            "2000,Austria,-5,1,1,1,316.0",
            "2000,Belgium,7,1,1,1,316.0",
        ])
        rejected, totals = rc.load_emissions(path)
        assert len(rejected) == 1
        assert rejected[0][0] == 2
        np.testing.assert_allclose(totals.values[0], [7.0, 1.0, 1.0, 1.0])

    def test_duplicate_year_country(self, tmp_path):
        path = tmp_path / "e.csv"
        write_emissions(path, [
            "2000,Austria,1,1,1,1,316.0",
            "2000,Austria,2,2,2,2,316.0",
        ])
        with pytest.raises(rc.ParseError):
            rc.load_emissions(path)

    def test_header_mismatch(self, tmp_path):
        path = tmp_path / "e.csv"
        write_emissions(path, ["2000,Austria,1,1"], header="year,country,liquid,gas")
        with pytest.raises(rc.ParseError):
            rc.load_emissions(path)

    def test_blank_rows_skipped(self, tmp_path):
        path = tmp_path / "e.csv"
        write_emissions(path, ["2000,Austria,1,2,3,4,316.0", "", ",,,,,,", " , ,\t, , , , ",
                               ",,", "2000,Belgium,5,6,7,8,"])
        rejected, totals = rc.load_emissions(path)
        assert rejected == () and totals.years == (2000,) and totals.co2_ppmv == (316.0,)
        np.testing.assert_array_equal(totals.values, [[6.0, 8.0, 10.0, 12.0]])

    @pytest.mark.parametrize("text, message", [
        ("", "empty file"),
        (EMISSIONS_HEADER + "\n20x0,Austria,1,1,1,1,316.0\n", "line 2, column 'year': '20x0'"),
        # the first failing check names the problem: a duplicate before its sign,
        # an overflowing year total before conflicting co2
        (EMISSIONS_HEADER + "\n2000,Austria,1,1,1,1,316.0\n2000,Austria,-1,1,1,1,316.0\n",
         "line 3: duplicate (year, country) (2000, 'Austria')"),
        (EMISSIONS_HEADER + "\n2000,Austria,1e308,1,1,1,316.0\n2000,Belgium,1e308,1,1,1,317.0\n",
         "year 2000, column 'liquid': sum overflows"),
    ])
    def test_unreadable_file_names_the_problem(self, tmp_path, text, message):
        path = tmp_path / "e.csv"
        path.write_text(text)
        with pytest.raises(rc.ParseError, match=f"^{re.escape(f'{path}: {message}')}$"):
            rc.load_emissions(path)

    @pytest.mark.parametrize("data, message", UNREADABLE_CSV, ids=["latin-1", "huge-field"])
    def test_bytes_the_reader_refuses_name_the_file(self, tmp_path, data, message):
        path = tmp_path / "e.csv"
        path.write_bytes(data)
        with pytest.raises(rc.ParseError, match=f"^{re.escape(f'{path}: ')}.*{message}"):
            rc.load_emissions(path)

    @pytest.mark.parametrize("row, message", [
        ("2_000,A,1,1,1,1,316", "line 2, column 'year': '2_000'"),
        ("2000,A,1_0,1,1,1,316", "line 2, column 'liquid': '1_0'"),
        ("2000,A,1,1,1,1,3_16", "line 2, column 'co2_ppmv': '3_16'"),
        # the first cell that fails is named, the underscore rule as any other
        ("2000,A,1,x,1,1e1_0,316", "line 2, column 'gas': 'x'"),
        ("2000,A,1,1_0,1,y,316", "line 2, column 'gas': '1_0'"),
    ])
    def test_digit_group_underscore_is_malformed(self, tmp_path, row, message):
        # int() and float() read "1_0" as 10
        path = tmp_path / "e.csv"
        write_emissions(path, [row])
        with pytest.raises(rc.ParseError, match=f"^{re.escape(f'{path}: {message}')}$"):
            rc.load_emissions(path)
        write_emissions(path, ["2000,North_Land,1,2,3,4,316"])  # a country may hold one
        assert rc.load_emissions(path)[1].values.tolist() == [[1.0, 2.0, 3.0, 4.0]]

    def test_line_numbers_are_file_lines(self, tmp_path):
        path = tmp_path / "e.csv"
        rows = ['2000,"North\nLand",1,1,1,1,316', "2000,B,-1,1,1,1,316",
                '2001,"C\r\n\nD",2,2,2,2,317', "2001,E,-2,2,2,2,317"]
        write_emissions(path, rows)
        rejected, totals = rc.load_emissions(path)
        assert [line for line, _ in rejected] == [4, 8]
        assert totals.years == (2000, 2001)
        write_emissions(path, rows + ["2002,F,x,1,1,1,318"])
        with pytest.raises(rc.ParseError, match=re.escape("line 9, column 'liquid': 'x'")):
            rc.load_emissions(path)

    def test_short_row_names_cell_count(self, tmp_path):
        path = tmp_path / "e.csv"
        write_emissions(path, ["2000,Austria,1,2,3,4,316.0", "2001,Austria,1,2"])
        with pytest.raises(rc.ParseError, match=r"line 3: expected 7 cells"):
            rc.load_emissions(path)

    def test_malformed_co2_names_column(self, tmp_path):
        path = tmp_path / "e.csv"
        write_emissions(path, ["2000,Austria,1,2,3,4,ppm"])
        with pytest.raises(rc.ParseError, match=r"line 2, column 'co2_ppmv': 'ppm'"):
            rc.load_emissions(path)

    def test_conflicting_co2_within_year(self, tmp_path):
        path = tmp_path / "e.csv"
        write_emissions(path, ["2000,Austria,1,2,3,4,316.0", "2000,Belgium,1,2,3,4,317.0"])
        with pytest.raises(rc.ParseError, match="conflicting co2_ppmv for year 2000"):
            rc.load_emissions(path)

    @pytest.mark.parametrize("cells", ["nan,-1,1,1", "-1,nan,1,1", "1,1,-inf,nan"])
    def test_negative_row_with_nan_is_rejected(self, tmp_path, cells):
        path = tmp_path / "e.csv"
        write_emissions(path, [f"2000,Austria,{cells},316.0", "2000,Belgium,7,1,1,1,316.0"])
        rejected, totals = rc.load_emissions(path)
        assert [line for line, _ in rejected] == [2]
        np.testing.assert_array_equal(totals.values, [[7.0, 1.0, 1.0, 1.0]])

    def test_header_only(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text(EMISSIONS_HEADER + "\n")
        rejected, totals = rc.load_emissions(path)
        assert rejected == () and totals.years == () and totals.co2_ppmv == ()
        assert totals.values.shape == (0, 4)

    def test_excluded_year_cells_still_parsed(self, tmp_path):
        path = tmp_path / "e.csv"
        write_emissions(path, ["1964,Austria,1,oops,1,1,319.0", "1965,Austria,3,3,3,3,320.0"])
        with pytest.raises(rc.ParseError, match="line 2, column 'gas'"):
            rc.load_emissions(path, exclude_years=[1964])
        # a number that is not finite, or a co2_ppmv that is not positive, is
        # checked only on rows that are kept
        write_emissions(path, ["1964,Austria,1,nan,1,1,inf", "1965,Austria,3,3,3,3,320.0"])
        rejected, totals = rc.load_emissions(path, exclude_years=[1964])
        assert rejected == () and totals.years == (1965,)
        np.testing.assert_array_equal(totals.values, [[3.0] * 4])
        write_emissions(path, ["1964,Austria,2,2,2,2,-1", "1965,Austria,3,3,3,3,320.0"])
        rejected, totals = rc.load_emissions(path, exclude_years=[1964])
        assert rejected == () and totals.years == (1965,) and totals.co2_ppmv == (320.0,)

    @pytest.mark.parametrize("cells, column", [
        ("inf,1,1,1,316.0", "liquid"), ("1,nan,1,1,316.0", "gas"),
        ("1,1,NaN,1,316.0", "gas_flares"), ("1,1,1,Infinity,316.0", "bunker"),
        ("1,1,1,1,nan", "co2_ppmv"), ("1,1,1,1,-inf", "co2_ppmv"),
    ])
    def test_non_finite_cell_names_line_and_column(self, tmp_path, cells, column):
        path = tmp_path / "e.csv"
        write_emissions(path, ["2000,Austria,1,1,1,1,316.0", f"2001,Austria,{cells}"])
        with pytest.raises(rc.ParseError, match=rf"line 3, column '{column}': .* not finite"):
            rc.load_emissions(path)

    @pytest.mark.parametrize("co2", ["-1", "0", "0.0", "-0.0"])
    def test_non_positive_co2_names_line_and_column(self, tmp_path, co2):
        path = tmp_path / "e.csv"
        write_emissions(path, ["2000,Austria,1,1,1,1,316.0", "2001,Austria,1,1,1,1,",
                               f"2002,Austria,1,1,1,1,{co2}"])
        with pytest.raises(rc.ParseError) as err:
            rc.load_emissions(path)
        assert str(err.value) == f"{path}: line 4, column 'co2_ppmv': {co2!r} is not positive"

    def test_negative_emission_comes_before_the_co2_check(self, tmp_path):
        path = tmp_path / "e.csv"
        write_emissions(path, ["2000,Austria,-5,1,1,1,-1", "2000,Belgium,7,1,1,1,"])
        rejected, totals = rc.load_emissions(path)
        assert rejected == ((2, "negative emission for 'Austria' in 2000"),)
        assert totals.years == (2000,) and totals.co2_ppmv == (None,)

    def test_finite_cells_with_an_overflowing_sum_are_kept(self, tmp_path):
        path = tmp_path / "e.csv"
        write_emissions(path, ["2000,Austria,1e308,1e308,1,1,316.0"])
        _, totals = rc.load_emissions(path)
        np.testing.assert_array_equal(totals.values, [[1e308, 1e308, 1.0, 1.0]])

    def test_overflowing_year_total_names_year_and_column(self, tmp_path, capsys):
        path = tmp_path / "e.csv"
        write_emissions(path, ["1999,Austria,1,1,1,1,316.0", "2000,Austria,1e308,1,1,1,317.0",
                               "2000,Belgium,1e308,1,1,1,317.0"])
        with pytest.raises(rc.ParseError, match="year 2000, column 'liquid': sum overflows"):
            rc.load_emissions(path)
        assert main(["fit", str(path), "--terms", "Li", "--exponent", "1.0",
                     "-o", str(tmp_path / "fit.json")]) == 2
        err = capsys.readouterr().err
        assert "ParseError: " in err and "year 2000, column 'liquid'" in err

    def test_aggregation_order_invariant(self, tmp_path):
        rows = [
            "2001,A,1,2,3,4,317.0",
            "2000,B,5,6,7,8,316.0",
            "2001,B,9,10,11,12,317.0",
            "2000,A,13,14,15,16,316.0",
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_emissions(a, rows)
        write_emissions(b, rows[::-1])
        _, ta = rc.load_emissions(a)
        _, tb = rc.load_emissions(b)
        assert ta.years == tb.years
        np.testing.assert_array_equal(ta.values, tb.values)


def test_all_lists_exactly_the_public_names():
    public = {name for name, value in vars(rc).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert all(hasattr(rc, name) for name in rc.__all__)
    assert len(set(rc.__all__)) == len(rc.__all__)
    assert set(rc.__all__) == public | {"__version__"}


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from rsmcanon import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(rc.__all__)
    assert "__version__" in rc.__all__


SUBMODULES = {f"rsmcanon.{name}" for name in ("canonical", "errors", "fitting", "linalg", "model",
                                               "modelio", "regions", "report", "tradeoff")}


def loaded_modules(code, *args):
    """The rsmcanon modules a fresh interpreter has loaded after running
    ``code``, which sees ``args`` as ``sys.argv[1:]``. Only package names
    are compared: the standard-library set depends on the environment."""
    code += "\nprint(*(m for m in sys.modules if m.split('.')[0] == 'rsmcanon'))"
    src = str(Path(__file__).resolve().parents[1] / "src")
    run = subprocess.run([sys.executable, "-c", "import sys\n" + code, *args],
                         env=dict(os.environ, PYTHONPATH=src), check=True,
                         capture_output=True, text=True)
    return set(run.stdout.splitlines()[-1].split())


def test_bare_import_loads_no_submodule_and_first_access_loads_all():
    assert loaded_modules("import rsmcanon") == {"rsmcanon"}
    code = ("import rsmcanon\n"
            "assert rsmcanon.canonicalize is sys.modules['rsmcanon.canonical'].canonicalize")
    assert loaded_modules(code) == {"rsmcanon", *SUBMODULES}


def test_star_import_in_a_fresh_interpreter_binds_exactly_all():
    code = ("namespace = {}\n"
            "exec('from rsmcanon import *', namespace)\n"
            "import rsmcanon\n"
            "assert set(namespace) - {'__builtins__'} == set(rsmcanon.__all__)")
    assert loaded_modules(code) == {"rsmcanon", *SUBMODULES}


def test_dir_and_an_unknown_name_load_nothing():
    # dir() lists the public names before any submodule is loaded, and an
    # unknown name is an AttributeError, so hasattr answers False
    code = ("import rsmcanon\n"
            "listed = set(dir(rsmcanon))\n"
            "assert set(rsmcanon.__all__) <= listed, set(rsmcanon.__all__) - listed\n"
            "assert not hasattr(rsmcanon, 'no_such_name')\n"
            "try:\n"
            "    rsmcanon.no_such_name\n"
            "except AttributeError as exc:\n"
            "    assert str(exc) == \"module 'rsmcanon' has no attribute 'no_such_name'\", exc\n"
            "else:\n"
            "    raise AssertionError('no error')")
    assert loaded_modules(code) == {"rsmcanon"}


class TestReport:
    def test_deterministic_bytes(self, eu_model):
        first = rc.run_analysis(eu_model, center=EU_WORKED_CENTER)
        second = rc.run_analysis(eu_model, center=EU_WORKED_CENTER)
        assert first.to_json() == second.to_json()
        assert first.to_text() == second.to_text()

    @pytest.mark.parametrize("center", [None, EU_WORKED_CENTER])
    def test_json_is_json_dumps_bytes(self, eu_model, center):
        report = rc.run_analysis(eu_model, center=center)
        assert report.to_json() == json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"

    def test_numeric_fields_round_trip(self, eu_model):
        report = rc.run_analysis(eu_model)
        assert json.loads(report.to_json()) == report.to_dict()

    def test_numpy_integer_pairs_render_as_python_ints(self, eu_model):
        pairs, pairing = [(1, 3), (3, 2)], [(2, 3)]
        want = rc.run_analysis(eu_model, pairs=pairs, pairing=pairing).to_json()
        got = rc.run_analysis(eu_model, pairs=[tuple(map(np.int64, p)) for p in pairs],
                              pairing=[(np.int64(2), np.int64(3))])
        assert got.to_json() == want

    def test_eu_sections(self, eu_model):
        report = rc.run_analysis(eu_model, pairs=[(1, 3)], pairing=[(1, 4), (2, 3)],
                                 center=EU_WORKED_CENTER)
        region = report.regions[0]
        assert region["pair"] == [1, 3]
        assert region["semiaxes"][0] == pytest.approx(8446.24, abs=0.02)
        rates = {(r["from"], r["to"]): r["ratio"] for r in report.tradeoff["conversion_rates"]}
        assert rates[("Ga", "Bu")] == pytest.approx(1.74388, rel=1e-3)
        assert rates[("Li", "Fl")] == pytest.approx(98.1284, rel=1e-3)
        assert report.canonical["kind"] == "saddle"
        assert report.eigen["dominant_variables"]["z1"] == ["Ga", "Bu"]

    def test_default_region_pairs_are_same_sign(self, eu_model):
        report = rc.run_analysis(eu_model)
        assert [r["pair"] for r in report.regions] == [[1, 3], [2, 4]]
        assert all(not r["unbounded"] for r in report.regions)

    def test_hyperbolic_section_carries_marginal_rates(self, eu_model):
        report = rc.run_analysis(eu_model, pairs=[(2, 3)])
        section = report.regions[0]
        assert section["unbounded"]
        assert any(r["basis"] == "sinh" for r in section["marginal_rates"])
        linked = [line for line in report.to_text().splitlines() if "-linked: " in line]
        assert len(linked) == len(section["marginal_rates"])

    def test_zero_quadratic_model_surfaces_singularity(self):
        flat = rc.build_model([rc.ModelTerm((0,), 1.0)], 0.0, 1.0, ("x", "y"))
        with pytest.raises(rc.SingularMatrix) as err:
            rc.run_analysis(flat)
        assert "[canonical]" in str(err.value)


class TestPlotCsv:
    def test_ellipse_closed_curve(self, eu_canon):
        region = rc.ellipse_region(eu_canon, 1, 3, M_IPCC)
        lines = rc.emit_plot_csv(region, 360).splitlines()
        assert lines[0].split(",")[:4] == ["param", "r", "z_1", "z_3"]
        assert len(lines) == 361  # header + 360 samples
        first = np.array([float(v) for v in lines[1].split(",")[2:]])
        last = np.array([float(v) for v in lines[-1].split(",")[2:]])
        assert np.abs(first - last).max() <= 1e-9 * max(1.0, np.abs(first).max())

    def test_hyperbola_two_branches(self, eu_canon):
        region = rc.hyperbola_region(eu_canon, 2, 3, M_IPCC)
        text = rc.emit_plot_csv(region, 100, t_max=2.5)
        lines = text.splitlines()
        assert len(lines) == 201  # header + 100 per branch
        rs = {line.split(",")[1] for line in lines[1:]}
        assert rs == {"1.0", "-1.0"}

    @pytest.mark.parametrize("name, build, pair, count, t_max", [
        ("eu_ellipse_1_3.csv", rc.ellipse_region, (1, 3), 360, 3.0),
        ("eu_hyperbola_2_3.csv", rc.hyperbola_region, (2, 3), 100, 2.5),
    ])
    def test_matches_golden(self, eu_canon, name, build, pair, count, t_max):
        # The golden files hold the output of the earlier row-by-row
        # emitter. z_j is 0.0 at t = 0, so each column has an absolute
        # floor of 1e-12 times its largest value.
        golden = (GOLDEN / name).read_text().splitlines()
        lines = rc.emit_plot_csv(build(eu_canon, *pair, M_IPCC), count, t_max).splitlines()
        assert lines[0] == golden[0]
        assert len(lines) == len(golden)
        got = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        want = np.array([[float(v) for v in line.split(",")] for line in golden[1:]])
        bad = np.abs(got - want) > 1e-12 * (np.abs(want) + np.abs(want).max(axis=0))
        assert not bad.any(), f"{bad.sum()} cells differ, first at {np.argwhere(bad)[0]}"

    @pytest.mark.parametrize("count, t_max", [
        (1, 3.0), (0, 3.0), (-3, 3.0),
        (10, float("nan")), (10, float("inf")), (10, 0.0), (10, -2.5),
    ])
    def test_bad_arguments_rejected(self, eu_canon, count, t_max):
        for region in (rc.ellipse_region(eu_canon, 1, 3, M_IPCC),
                       rc.hyperbola_region(eu_canon, 2, 3, M_IPCC)):
            with pytest.raises(rc.InputError):
                rc.emit_plot_csv(region, count, t_max)

    def test_every_row_inside_bound(self, eu_canon):
        for region in (rc.ellipse_region(eu_canon, 1, 3, M_IPCC),
                       rc.hyperbola_region(eu_canon, 2, 3, M_IPCC)):
            lines = rc.emit_plot_csv(region, 50).splitlines()[1:]
            for line in lines:
                x = np.array([float(v) for v in line.split(",")[4:]])
                assert rc.contains(eu_canon, x, M_IPCC)


@pytest.fixture()
def model_path(tmp_path, eu_model):
    path = tmp_path / "eu.json"
    rc.save_model(eu_model, path)
    return str(path)


class TestCli:
    def test_analyze_text(self, model_path, capsys):
        code = main(["analyze", model_path,
                     "--center", "534271,286155,8294.32,82045.4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "saddle" in out and "8446.23" in out

    def test_analyze_json_deterministic(self, model_path, capsys):
        assert main(["analyze", model_path, "--format", "json"]) == 0
        first = capsys.readouterr().out
        assert main(["analyze", model_path, "--format", "json"]) == 0
        assert capsys.readouterr().out == first
        doc = json.loads(first)
        assert doc["provenance"]["model_digest_sha256"]

    def test_regions_csv(self, model_path, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code = main(["regions", model_path, "--pair", "1,3", "--samples", "10",
                     "-o", str(out)])
        assert code == 0
        assert len(out.read_text().splitlines()) == 11

    def test_regions_takes_the_bound(self, model_path, eu_canon, capsys):
        assert main(["regions", model_path, "--pair", "1,3", "--bound-M", "4e-8",
                     "--samples", "7"]) == 0
        assert capsys.readouterr().out == rc.emit_plot_csv(rc.region(eu_canon, 1, 3, 4e-8), 7)

    def test_regions_takes_a_valid_t_max(self, model_path, eu_canon, capsys):
        assert main(["regions", model_path, "--pair", "2,3", "--t-max", "2.5",
                     "--samples", "7"]) == 0
        assert capsys.readouterr().out == rc.emit_plot_csv(rc.region(eu_canon, 2, 3, M_IPCC),
                                                           7, 2.5)

    def test_regions_csv_header_quotes_names(self, eu_model, tmp_path, capsys):
        # a model file accepts any string as a variable name
        names = ("Li,quid", 'G"a', "Fl\nares", "Bu")
        path = tmp_path / "odd.json"
        rc.save_model(dataclasses.replace(eu_model, names=names), path)
        assert main(["regions", str(path), "--pair", "1,3", "--samples", "3"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0] == ["param", "r", "z_1", "z_3", *names]
        assert len(rows) == 4 and all(len(row) == 4 + len(names) for row in rows)

    def test_analyze_takes_the_pairing(self, model_path, capsys):
        assert main(["analyze", model_path, "--pairing", "2,3", "--format", "json"]) == 0
        trade = json.loads(capsys.readouterr().out)["tradeoff"]
        assert [s["pair"] for s in trade["iso_slopes"]] == [[2, 3]]
        assert [(r["from"], r["to"]) for r in trade["conversion_rates"]] == [("Li", "Fl")]

    def test_tradeoff(self, model_path, capsys):
        assert main(["tradeoff", model_path]) == 0
        out = capsys.readouterr().out
        assert "Ga = 1.74388 Bu" in out

    # The golden files were written from the bundled model before the CLI
    # tradeoff command moved onto run_analysis.
    def test_analyze_json_matches_golden(self, capsys):
        assert main(["analyze", str(rc.bundled_eu_model_path()), "--format", "json"]) == 0
        want = json.loads((GOLDEN / "eu_analyze.json").read_text())
        assert_tree_close(json.loads(capsys.readouterr().out), want)

    def test_tradeoff_matches_golden(self, capsys):
        assert main(["tradeoff", str(rc.bundled_eu_model_path())]) == 0
        assert capsys.readouterr().out == (GOLDEN / "eu_tradeoff.txt").read_text()

    # written from the bundled model before the CLI stopped formatting numbers
    @pytest.mark.parametrize("golden, centered", [("eu_analyze.txt", False),
                                                  ("eu_analyze_center.txt", True)])
    def test_analyze_text_matches_golden(self, capsys, golden, centered):
        path = rc.bundled_eu_model_path()
        center = rc.load_model_document(path)["reference_region_center"]
        extra = ["--center", ",".join(map(repr, center))] if centered else []
        assert main(["analyze", str(path), *extra]) == 0
        assert capsys.readouterr().out == (GOLDEN / golden).read_text()

    def test_tradeoff_writes_the_report_lines(self, model_path, capsys):
        report = rc.run_analysis(rc.load_model(model_path), pairs=[])
        assert main(["tradeoff", model_path]) == 0
        assert capsys.readouterr().out == "".join(
            f"{line}\n" for line in report.tradeoff_lines(with_bound=True))

    def test_tradeoff_without_relations_writes_nothing(self, tmp_path, capsys):
        # a maximum: no pair of axes offsets the other
        path = two_variable_model_file(tmp_path / "max.json",
                                       [(["x", "x"], -1.0), (["y", "y"], -2.0)])
        assert main(["tradeoff", path]) == 0
        assert capsys.readouterr().out == ""
        assert main(["tradeoff", path, "-o", str(tmp_path / "t.txt")]) == 0
        assert (tmp_path / "t.txt").read_bytes() == b""

    def test_uncoupled_band_has_no_marginal_rates(self, tmp_path, capsys):
        # axis-aligned eigenvectors: each basis function moves one variable
        path = two_variable_model_file(tmp_path / "m.json", [
            (["x"], 1.0), (["x", "x"], -1.0), (["y", "y"], 2.0)])
        assert main(["analyze", path, "--pairs", "1,2", "--format", "json"]) == 0
        assert '"marginal_rates": []' in capsys.readouterr().out
        assert main(["tradeoff", path]) == 0
        assert "x = 1.41421 y" in capsys.readouterr().out

    def test_analyze_does_not_import_numpy_ma(self):
        # numpy.ma costs every CLI process a few ms of start-up
        code = ("import runpy, sys\n"
                "sys.argv = ['rsmcanon', 'analyze', sys.argv[1]]\n"
                "try:\n"
                "    runpy.run_module('rsmcanon.cli', run_name='__main__', alter_sys=True)\n"
                "except SystemExit as done:\n"
                "    assert done.code == 0, done.code\n"
                "print('numpy.ma' in sys.modules, file=sys.stderr)")
        src = str(Path(__file__).resolve().parents[1] / "src")
        run = subprocess.run([sys.executable, "-c", code, str(rc.bundled_eu_model_path())],
                             env=dict(os.environ, PYTHONPATH=src), check=True,
                             capture_output=True, text=True)
        assert "saddle" in run.stdout
        assert run.stderr == "False\n"

    @pytest.mark.parametrize("command", ["analyze", "regions", "tradeoff", "fit", "predict"])
    def test_each_command_imports_only_what_it_runs(self, tmp_path, command):
        model = str(rc.bundled_eu_model_path())
        data = tmp_path / "emissions.csv"
        write_emissions(data, noisy_emissions_rows())
        argv = {"analyze": [model, "-o", str(tmp_path / "a.txt")],
                "regions": [model, "--pair", "1,3", "--samples", "3", "-o", str(tmp_path / "r.csv")],
                "tradeoff": [model, "-o", str(tmp_path / "t.txt")],
                "fit": [str(data), "--terms", "Li,Ga", "--exponent", "1.0",
                        "-o", str(tmp_path / "fit.json")],
                "predict": [model, "--at", "0,0,0,0"]}[command]
        loaded = loaded_modules("from rsmcanon.cli import main\n"
                                "assert main(sys.argv[1:]) == 0", command, *argv)
        assert "rsmcanon.cli" in loaded
        assert ("rsmcanon.fitting" in loaded) == (command == "fit")
        if command in ("regions", "fit", "predict"):
            assert not loaded & {"rsmcanon.report", "rsmcanon.tradeoff"}

    @pytest.mark.parametrize("pairing", ["0,1", "5,1"])
    def test_tradeoff_axis_out_of_range_is_input_error(self, model_path, capsys, pairing):
        assert main(["tradeoff", model_path, "--pairing", pairing]) == 2
        err = capsys.readouterr().err
        assert err.startswith("rsmcanon: IndexOutOfRange: [tradeoff] canonical axis ")
        assert err.count("tradeoff") == 1  # the stage is named once

    def test_predict(self, model_path, capsys):
        assert main(["predict", model_path, "--at", "0,0,0,0"]) == 0
        assert capsys.readouterr().out.startswith("307.19")

    def test_predict_takes_a_negative_first_coordinate_after_equals(self, model_path, capsys):
        # "--at -1e5,..." would read the value as an option flag
        assert main(["predict", model_path, "--at=-1e5,0,0,0"]) == 0
        want = rc.predict_response(rc.load_model(model_path), np.array([-1e5, 0.0, 0.0, 0.0]))
        assert capsys.readouterr().out == f"{want!r}\n"

    @pytest.mark.parametrize("command, option", [("predict", "--at"), ("analyze", "--center"),
                                                 ("regions", "--center")])
    def test_help_shows_the_equals_form(self, capsys, command, option):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert f"{option}=-1,0,0,0" in capsys.readouterr().out

    def test_predict_overflow_is_numerical_error(self, model_path, capsys):
        # the message names the command, not the numpy routine that overflowed
        for at in ("1e200,0,0,0", "1e308,1e308,1e308,1e308"):
            assert main(["predict", model_path, "--at", at]) == 3
            assert one_error_line(capsys, "NumericalError") == (
                "rsmcanon: NumericalError: predict: arithmetic overflowed past the largest float\n")

    def test_invalid_arithmetic_is_numerical_error(self, model_path, capsys, monkeypatch):
        monkeypatch.setattr(rc.cli, "predict_response", lambda model, at: np.sqrt(-at[0]))
        assert main(["predict", model_path, "--at", "1,0,0,0"]) == 3
        assert one_error_line(capsys, "NumericalError") == (
            "rsmcanon: NumericalError: predict: arithmetic gave an undefined result\n")

    def test_out_of_memory_exits_3_and_writes_nothing(self, model_path, tmp_path, capsys,
                                                       monkeypatch):
        def refuse(*args):
            raise MemoryError

        monkeypatch.setattr(rc.cli, "emit_plot_csv", refuse)
        out = tmp_path / "big.csv"
        assert main(["regions", model_path, "--pair", "1,3", "-o", str(out)]) == 3
        assert one_error_line(capsys, "MemoryError") == (
            "rsmcanon: MemoryError: regions: out of memory\n")
        assert [p.name for p in tmp_path.iterdir()] == ["eu.json"]  # the model_path fixture

    def test_fit_round_trip(self, tmp_path, capsys):
        rng = np.random.default_rng(8)
        rows = []
        coef = {"int": 2.0, "Li": 0.003, "Ga": -0.001, "Li:Ga": 0.0005}
        for year in range(1990, 2012):
            split = rng.uniform(0.3, 0.7)
            li, ga = rng.uniform(10, 20), rng.uniform(5, 15)
            fl, bu = rng.uniform(1, 2), rng.uniform(2, 4)
            co2 = (coef["int"] + coef["Li"] * li + coef["Ga"] * ga
                   + coef["Li:Ga"] * li * ga)
            for name, frac in (("A", split), ("B", 1.0 - split)):
                cells = [str(year), name, repr(li * frac), repr(ga * frac),
                         repr(fl * frac), repr(bu * frac)]
                cells.append(repr(co2) if name == "A" else "")
                rows.append(",".join(cells))
        data = tmp_path / "emissions.csv"
        write_emissions(data, rows)
        out_model = tmp_path / "fit.json"
        code = main(["fit", str(data), "--terms", "Li,Ga,Li:Ga", "--exponent", "1.0",
                     "--exclude-years", "1991", "-o", str(out_model)])
        assert code == 0
        fitted = rc.load_model(out_model)
        assert fitted.names == EMISSIONS_NAMES
        assert fitted.intercept == pytest.approx(coef["int"], rel=1e-6)
        assert fitted.linear[0] == pytest.approx(coef["Li"], rel=1e-6)
        assert fitted.interaction.array[0, 1] == pytest.approx(coef["Li:Ga"], rel=1e-6)

    def test_fit_stdout_matches_golden(self, tmp_path, capsys, monkeypatch):
        # golden written before ols_fit took its partial F from the inverse
        # diagonal instead of refitting each term out; F is printed to four
        # digits, so it is compared by value
        write_emissions(tmp_path / "emissions.csv", noisy_emissions_rows())
        monkeypatch.chdir(tmp_path)
        assert main(["fit", "emissions.csv", "--terms", "Li,Ga,Fl,Li:Li,Ga:Bu,Bu:Bu,Li:Fl",
                     "--exponent", "-2.376", "--exclude-years", "1964",
                     "-o", "fit.json"]) == 0
        got = capsys.readouterr().out.splitlines()
        want = (GOLDEN / "fit_noisy.txt").read_text().splitlines()
        assert len(got) == len(want)
        assert got[:2] == want[:2] and got[-1] == want[-1]  # SSE, header, path
        for g, w in zip(got[2:-1], want[2:-1]):
            assert g.split()[:3] == w.split()[:3]  # rank, label, coefficient
            assert float(g.split()[3]) == pytest.approx(float(w.split()[3]), rel=1e-8)

    def test_fit_writes_the_fit_report(self, tmp_path, capsys, monkeypatch):
        write_emissions(tmp_path / "emissions.csv", noisy_emissions_rows())
        monkeypatch.chdir(tmp_path)
        assert main(["fit", "emissions.csv", "--terms", "Li,Ga,Fl,Li:Li,Ga:Bu,Bu:Bu,Li:Fl",
                     "--exponent", "-2.376", "--exclude-years", "1964", "-o", "fit.json"]) == 0
        result = rc.fit_emissions("emissions.csv",
                                  [(0,), (1,), (2,), (0, 0), (1, 3), (3, 3), (0, 2)], -2.376,
                                  exclude_years=[1964])
        assert result.to_text().startswith("fit over 29 years; SSE = ")
        assert capsys.readouterr().out == result.to_text() + "model written to fit.json\n"

    def test_fit_summary_counts_dropped_years_and_rejected_rows(self, tmp_path, capsys,
                                                               monkeypatch):
        # neither the year without co2_ppmv nor the negative row enters the fit,
        # so the SSE is the golden's
        write_emissions(tmp_path / "emissions.csv",
                        noisy_emissions_rows() + ["1990,A,1,2,3,4,", "1975,C,-1,1,1,1,"])
        monkeypatch.chdir(tmp_path)
        assert main(["fit", "emissions.csv", "--terms", "Li,Ga,Fl,Li:Li,Ga:Bu,Bu:Bu,Li:Fl",
                     "--exponent", "-2.376", "--exclude-years", "1964", "-o", "fit.json"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == (
            "fit over 29 years (1 without co2_ppmv dropped); 1 rows rejected; SSE = 4.01073e-16")

    @pytest.mark.parametrize("rows, exclude, message", [
        (["2000,A,1,2,3,4,300", "2001,A,2,3,4,5,310"], "2000,2001",
         "no year left to fit; years excluded: [2000, 2001], rows rejected: 0"),
        (["2000,A,-1,2,3,4,300", "2001,A,2,-3,4,5,310"], "",
         "no year left to fit; years excluded: [], rows rejected: 2"),
        # a year is left, so the missing response is what the message names
        (["2000,A,1,2,3,4,300", "2001,A,2,3,4,5,"], "2000", "no rows carry a co2_ppmv response"),
    ])
    def test_fit_names_why_no_year_is_fitted(self, tmp_path, capsys, monkeypatch, rows, exclude,
                                             message):
        write_emissions(tmp_path / "t.csv", rows)
        monkeypatch.chdir(tmp_path)
        assert main(["fit", "t.csv", "--terms", "Li", "--exponent", "1",
                     "--exclude-years", exclude, "-o", "m.json"]) == 2
        assert one_error_line(capsys, "InputError") == f"rsmcanon: InputError: t.csv: {message}\n"
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("exponent", ["nan", "inf", "-inf", "5e-324"])
    def test_fit_exponent_without_finite_reciprocal(self, tmp_path, capsys, exponent):
        write_emissions(tmp_path / "emissions.csv", noisy_emissions_rows())
        out = tmp_path / "fit.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["fit", str(tmp_path / "emissions.csv"), "--terms", "Li,Ga",
                         f"--exponent={exponent}", "-o", str(out)])
        assert code == 2
        assert f"DomainError: response exponent {float(exponent)!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_file_is_input_error(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "nope.json")]) == 2

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        path = tmp_path / "flat.json"
        path.write_text(json.dumps({
            "variables": ["x", "y"], "exponent": 1.0, "intercept": 0.0,
            "terms": [{"vars": ["x"], "coef": 1.0}]}))
        assert main(["analyze", str(path)]) == 3
        assert "SingularMatrix" in capsys.readouterr().err

    def test_bad_pair_is_input_error(self, model_path, capsys):
        assert main(["regions", model_path, "--pair", "1-3"]) == 2

    def test_regions_one_sample_is_input_error(self, model_path, capsys):
        assert main(["regions", model_path, "--pair", "1,3", "--samples", "1"]) == 2
        assert "InputError" in capsys.readouterr().err

    def test_regions_nan_t_max_is_input_error(self, model_path, capsys):
        assert main(["regions", model_path, "--pair", "2,3", "--t-max", "nan"]) == 2
        assert "InputError" in capsys.readouterr().err

    def test_regions_overflowing_t_max_is_input_error(self, model_path, capsys):
        assert main(["regions", model_path, "--pair", "2,3", "--t-max", "1000"]) == 2
        assert "t_max 1000.0 overflows" in one_error_line(capsys, "InputError")

    def test_analyze_at_a_tiny_bound(self, model_path, capsys):
        assert main(["analyze", model_path, "--pairs", "2,3", "--bound-M", "1e-34",
                     "--format", "json"]) == 0
        rates = json.loads(capsys.readouterr().out)["regions"][0]["marginal_rates"]
        assert rates and all(r["bound"] == 1e-34 for r in rates)

    def test_analyze_near_the_float_limit(self, tmp_path, capsys):
        # B = [[0.8, 0.4], [0.4, -0.8]] 1e308, whose eigenvalues are representable
        path = two_variable_model_file(tmp_path / "huge.json", [
            (["x"], 1.0), (["x", "x"], 0.4e308), (["x", "y"], 0.4e308), (["y", "y"], -0.4e308)])
        assert main(["analyze", path]) == 0
        out = capsys.readouterr().out
        assert "eigenvalue -8.94427191e+307" in out and "eigenvalue 8.94427191e+307" in out

    def test_analyze_eigenvalue_past_the_float_limit(self, tmp_path, capsys):
        # B = [[1.7, 0.1], [0.1, 1.7]] 1e308 has lambda = 1.8e308
        path = two_variable_model_file(tmp_path / "huge.json", [
            (["x", "x"], 0.85e308), (["x", "y"], 1e307), (["y", "y"], 0.85e308)])
        assert main(["analyze", path]) == 3
        err = one_error_line(capsys, "NumericalError")
        assert "[canonical] an eigenvalue exceeds the largest float" in err

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
    def test_output_files_get_umask_mode(self, eu_model, model_path, tmp_path, umask, mode):
        old = os.umask(umask)
        try:
            rc.save_model(eu_model, tmp_path / "m.json")
            main(["regions", model_path, "--pair", "1,3", "--samples", "10",
                  "-o", str(tmp_path / "r.csv")])
            main(["tradeoff", model_path, "-o", str(tmp_path / "t.txt")])
        finally:
            os.umask(old)
        for name in ("m.json", "r.csv", "t.txt"):
            assert (tmp_path / name).stat().st_mode & 0o777 == mode


def saddle_model_file(path):
    """A 2-variable saddle: one negative and one positive eigenvalue, so
    the default region pairs are empty."""
    path.write_text(json.dumps({
        "variables": ["x", "y"], "exponent": 1.0, "intercept": 0.0,
        "terms": [{"vars": ["x", "x"], "coef": 1.0}, {"vars": ["y", "y"], "coef": -1.0}]}))
    return str(path)


def two_variable_model_file(path, terms):
    """A model over x and y with the given (variables, coefficient) terms."""
    path.write_text(json.dumps({
        "variables": ["x", "y"], "exponent": 1.0, "intercept": 0.0,
        "terms": [{"vars": names, "coef": coef} for names, coef in terms]}))
    return str(path)


def one_error_line(capsys, name):
    """The CLI wrote nothing to stdout and one ``rsmcanon: <name>: ...`` line to stderr."""
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"rsmcanon: {name}: ") and err.count("\n") == 1, err
    return err


class TestInputChecks:
    """Each input is checked where it enters; the CLI maps a rejection to
    exit 2 with one line on stderr."""

    @pytest.mark.parametrize("bound", ["inf", "nan", "0", "-1e-8"])
    def test_analyze_bound_without_region_pairs(self, tmp_path, capsys, bound):
        path = saddle_model_file(tmp_path / "saddle.json")
        assert main(["analyze", path, f"--bound-M={bound}", "--format", "json"]) == 2
        err = one_error_line(capsys, "NonPositiveBound")
        assert "[regions] bound must be positive and finite" in err

    @pytest.mark.parametrize("command", ["analyze", "regions"])
    @pytest.mark.parametrize("center", ["nan,0,0,0", "0,inf,0,0"])
    def test_non_finite_center(self, model_path, capsys, command, center):
        extra = ["--pair", "1,3"] if command == "regions" else ["--format", "json"]
        assert main([command, model_path, *extra, "--center", center]) == 2
        assert "center entries must be finite" in one_error_line(capsys, "DimensionMismatch")

    @pytest.mark.parametrize("data, message", UNREADABLE_CSV, ids=["latin-1", "huge-field"])
    def test_fit_unreadable_csv(self, tmp_path, capsys, data, message):
        (tmp_path / "emissions.csv").write_bytes(data)
        out = tmp_path / "fit.json"
        assert main(["fit", str(tmp_path / "emissions.csv"), "--terms", "Li",
                     "--exponent", "1.0", "-o", str(out)]) == 2
        assert re.search(message, one_error_line(capsys, "ParseError"))
        assert not out.exists()

    def test_fit_malformed_excluded_year(self, tmp_path, capsys):
        write_emissions(tmp_path / "emissions.csv", noisy_emissions_rows())
        out = tmp_path / "fit.json"
        assert main(["fit", str(tmp_path / "emissions.csv"), "--terms", "Li,Ga",
                     "--exponent", "1.0", "--exclude-years", "1964,19x4", "-o", str(out)]) == 2
        assert "'19x4'" in one_error_line(capsys, "InputError")
        assert not out.exists()

    def test_fit_excluded_year_with_digit_group_underscore(self, tmp_path, capsys):
        # int() reads "1_964" as 1964
        write_emissions(tmp_path / "emissions.csv", noisy_emissions_rows())
        out = tmp_path / "fit.json"
        assert main(["fit", str(tmp_path / "emissions.csv"), "--terms", "Li,Ga",
                     "--exponent", "1.0", "--exclude-years", "1_964", "-o", str(out)]) == 2
        assert "invalid literal for int(): '1_964'" in one_error_line(capsys, "InputError")
        assert not out.exists()

    @pytest.mark.parametrize("args, message", [
        (["regions", "{model}", "--pair", "1,x"], "pair '1,x' must contain integers"),
        (["predict", "{model}", "--at", "1,x,0,0"], "expected comma-separated numbers"),
        (["fit", "{co2}", "--terms", "Li,Li:Xx"], "unknown variable 'Xx' in term 'Li:Xx'"),
        (["fit", "{co2}", "--terms", " , "], "no terms given"),
        (["fit", "{bare}", "--terms", "Li"], "no rows carry a co2_ppmv response"),
        # a digit-group underscore, which int() and float() accept; each value is in range
        (["predict", "{model}", "--at", "534_271,286155,8294.32,82045.4"],
         "expected comma-separated numbers"),
        (["analyze", "{model}", "--center", "534_271,286155,8294.32,82045.4"],
         "expected comma-separated numbers"),
        (["regions", "{model}", "--pair", "1,3", "--center", "534_271,286155,8294.32,82045.4"],
         "expected comma-separated numbers"),
        (["regions", "{model}", "--pair", "0_1,3"], "pair '0_1,3' must contain integers"),
        (["analyze", "{model}", "--pairs", "1,3;2,0_4"], "pair '2,0_4' must contain integers"),
        (["analyze", "{model}", "--pairing", "1,4;2,0_3"], "pair '2,0_3' must contain integers"),
        (["tradeoff", "{model}", "--pairing", "1,4;2,0_3"], "pair '2,0_3' must contain integers"),
        # a term error comes before the CSV is opened
        (["fit", "{missing}", "--terms", "Li,Li:Xx"], "unknown variable 'Xx' in term 'Li:Xx'"),
        (["regions", "{model}", "--pair", "1"], "expected a pair like '1,3', got '1'"),
        (["regions", "{model}", "--pair", "1,2,3"], "expected a pair like '1,3', got '1,2,3'"),
    ])
    def test_malformed_arguments(self, model_path, tmp_path, capsys, args, message):
        write_emissions(tmp_path / "co2.csv", noisy_emissions_rows())
        write_emissions(tmp_path / "bare.csv", ["2000,Austria,1,2,3,4"],
                        header=EMISSIONS_HEADER.removesuffix(",co2_ppmv"))
        out = tmp_path / "out"
        paths = {"model": model_path, "co2": tmp_path / "co2.csv", "bare": tmp_path / "bare.csv",
                 "missing": tmp_path / "missing.csv"}
        if args[0] == "fit":
            args = args + ["--exponent", "1.0"]
        if args[0] != "predict":
            args = args + ["-o", str(out)]
        assert main([arg.format(**paths) for arg in args]) == 2
        err = one_error_line(capsys, "InputError")
        assert message in err and "missing.csv" not in err
        assert not out.exists()

    @pytest.mark.parametrize("terms, name, message", [
        ("Li,Li", "DuplicateTerm", "term Li supplied twice"),
        ("Ga:Li,Li:Ga", "DuplicateTerm", "term Li:Ga supplied twice"),
        ("Li:Ga:Bu", "DimensionMismatch", "term 'Li:Ga:Bu' has more than two variables"),
    ])
    def test_fit_term_rule_comes_before_the_csv(self, tmp_path, capsys, terms, name, message):
        out = tmp_path / "out"
        assert main(["fit", str(tmp_path / "missing.csv"), "--terms", terms,
                     "--exponent", "1.0", "-o", str(out)]) == 2
        err = one_error_line(capsys, name)
        assert message in err and "missing.csv" not in err
        assert not out.exists()

    @pytest.mark.parametrize("args, message", [
        (["regions", "{model}", "--pair", "1,3", "--samples", "1_0"],
         "argument --samples: invalid int value: '1_0'"),
        (["analyze", "{model}", "--bound-M", "1_0e-9"],
         "argument --bound-M: invalid float value: '1_0e-9'"),
        (["regions", "{model}", "--pair", "1,3", "--bound-M", "1_0e-9"],
         "argument --bound-M: invalid float value: '1_0e-9'"),
        (["regions", "{model}", "--pair", "1,3", "--t-max", "1_0"],
         "argument --t-max: invalid float value: '1_0'"),
        (["fit", "{co2}", "--terms", "Li,Ga", "--exponent", "1_0"],
         "argument --exponent: invalid float value: '1_0'"),
    ])
    def test_numeric_options_refuse_digit_group_underscores(self, model_path, tmp_path, capsys,
                                                            args, message):
        # argparse reports these itself, as it does "--samples x"
        write_emissions(tmp_path / "co2.csv", noisy_emissions_rows())
        out = tmp_path / "out"
        paths = {"model": model_path, "co2": tmp_path / "co2.csv"}
        with pytest.raises(SystemExit) as exc:
            main([arg.format(**paths) for arg in args] + ["-o", str(out)])
        assert exc.value.code == 2
        out_text, err = capsys.readouterr()
        assert out_text == "" and message in err
        assert not out.exists()

    def test_empty_values_keep_the_defaults(self, model_path, capsys):
        assert main(["analyze", model_path]) == 0
        plain = capsys.readouterr().out
        assert main(["analyze", model_path, "--pairs=", "--pairing=", "--center="]) == 0
        assert capsys.readouterr().out == plain
        assert main(["tradeoff", model_path]) == 0
        plain = capsys.readouterr().out
        assert main(["tradeoff", model_path, "--pairing="]) == 0
        assert capsys.readouterr().out == plain
        assert main(["predict", model_path, "--at="]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("rsmcanon: ") and err.count("\n") == 1

    def test_predict_overflowing_inverse(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text('{"variables": ["x"], "exponent": 0.1, "intercept": 1e100, "terms": []}')
        assert main(["predict", str(path), "--at", "0"]) == 2
        err = one_error_line(capsys, "DomainError")
        assert err == "rsmcanon: DomainError: transformed value 1e+100 overflows under exponent 0.1\n"

    @pytest.mark.parametrize("terms, name", [
        ("Li,Li", "DuplicateTerm"),
        ("Li,Li:Ga,Ga:Li", "DuplicateTerm"),
        ("Li:Ga:Bu", "DimensionMismatch"),
    ])
    def test_fit_terms_follow_the_term_rule(self, tmp_path, capsys, terms, name):
        write_emissions(tmp_path / "emissions.csv", noisy_emissions_rows())
        out = tmp_path / "fit.json"
        assert main(["fit", str(tmp_path / "emissions.csv"), "--terms", terms,
                     "--exponent", "1.0", "-o", str(out)]) == 2
        one_error_line(capsys, name)
        assert not out.exists()

    def test_fit_terms_strip_spaces_around_the_colon(self, tmp_path, capsys):
        write_emissions(tmp_path / "emissions.csv", noisy_emissions_rows())
        for name, terms in (("spaced.json", "Li , Ga : Bu"), ("plain.json", "Li,Ga:Bu")):
            assert main(["fit", str(tmp_path / "emissions.csv"), "--terms", terms,
                         "--exponent", "1.0", "-o", str(tmp_path / name)]) == 0
        assert (tmp_path / "spaced.json").read_bytes() == (tmp_path / "plain.json").read_bytes()
        capsys.readouterr()
        assert main(["fit", str(tmp_path / "emissions.csv"), "--terms", "Li:",
                     "--exponent", "1.0", "-o", str(tmp_path / "out.json")]) == 2
        assert "unknown variable '' in term 'Li:'" in one_error_line(capsys, "InputError")
        assert main(["fit", str(tmp_path / "emissions.csv"), "--terms", "Li, Ga: Xx ",
                     "--exponent", "1.0", "-o", str(tmp_path / "out.json")]) == 2
        assert "unknown variable 'Xx' in term 'Ga: Xx'" in one_error_line(capsys, "InputError")
        assert not (tmp_path / "out.json").exists()

    def test_fit_non_positive_co2_names_the_year(self, tmp_path, capsys):
        # the error names the bad row's place in the file: 2002 is on line 4
        rows = [f"{year},A,{year - 1999},2,3,4,{co2}"
                for year, co2 in zip(range(2000, 2007), ["330", "", "-1", "331", "332", "333",
                                                         "334"])]
        write_emissions(tmp_path / "emissions.csv", rows)
        out = tmp_path / "fit.json"
        assert main(["fit", str(tmp_path / "emissions.csv"), "--terms", "Li",
                     "--exponent", "-2.376", "-o", str(out)]) == 2
        err = one_error_line(capsys, "ParseError")
        assert err == (f"rsmcanon: ParseError: {tmp_path / 'emissions.csv'}: line 4, "
                       "column 'co2_ppmv': '-1' is not positive\n")
        assert not out.exists()

    def test_fit_non_positive_co2_is_refused_under_any_exponent(self, tmp_path, capsys):
        # an integer exponent has a value at -1, but no concentration is negative
        rows = [f"{year},A,{year - 1999},2,3,4,{co2}"
                for year, co2 in zip(range(2000, 2006), ["330", "331", "-1", "332", "333", "334"])]
        write_emissions(tmp_path / "emissions.csv", rows)
        out = tmp_path / "fit.json"
        assert main(["fit", str(tmp_path / "emissions.csv"), "--terms", "Li,Ga:Bu",
                     "--exponent", "1", "-o", str(out)]) == 2
        assert "line 4, column 'co2_ppmv': '-1' is not positive" in one_error_line(capsys,
                                                                                   "ParseError")
        assert not out.exists()

    @pytest.mark.parametrize("data", ["missing.csv", "emissions.csv"])
    def test_fit_refuses_stdout_as_its_model_file(self, tmp_path, capsys, monkeypatch, data):
        # every other command reads "-o -" as stdout; the argument error comes first
        monkeypatch.chdir(tmp_path)
        write_emissions(tmp_path / "emissions.csv", noisy_emissions_rows())
        assert main(["fit", data, "--terms", "Li,Ga", "--exponent", "-2.376", "-o", "-"]) == 2
        err = one_error_line(capsys, "InputError")
        assert "fit writes a model file" in err and "missing.csv" not in err
        assert not (tmp_path / "-").exists()

    @pytest.mark.parametrize("command", [["analyze", "eu.json"],
                                         ["regions", "eu.json", "--pair", "1,3"],
                                         ["tradeoff", "eu.json"],
                                         ["fit", "emissions.csv", "--terms", "Li,Ga",
                                          "--exponent", "-2.376"]])
    def test_empty_output_path_is_refused(self, tmp_path, capsys, monkeypatch, eu_model,
                                          command):
        # a temporary file beside '' would land in the working directory's parent
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        rc.save_model(eu_model, work / "eu.json")
        write_emissions(work / "emissions.csv", noisy_emissions_rows())
        assert main([*command, "-o", ""]) == 2
        assert one_error_line(capsys, "InputError") == "rsmcanon: InputError: -o needs a path, not ''\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["work"]
        assert sorted(p.name for p in work.iterdir()) == ["emissions.csv", "eu.json"]

    def test_integer_scalars_render_as_floats(self, eu_model):
        model = rc.build_model(eu_model.terms, intercept=1, exponent=-2.376, names=eu_model.names)
        report = rc.run_analysis(model, bound=1, center=[534271, 286155, 8294, 82045])
        assert report.model["intercept"] == 1.0 and type(report.model["intercept"]) is float
        assert report.provenance["bound"] == 1.0 and type(report.provenance["bound"]) is float
        center = report.provenance["region_center_override"]
        assert center == [534271.0, 286155.0, 8294.0, 82045.0]
        assert all(type(v) is float for v in center)
        assert '"bound": 1.0' in report.to_json()


class TestAtomicWrite:
    def test_unchanged_file_is_touched_not_replaced(self, tmp_path):
        # whatever its mode, which it keeps: 0o600 here
        path = tmp_path / "out.csv"
        atomic_write(path, "a,b\n1,2\n")
        path.chmod(0o600)
        inode = path.stat().st_ino
        os.utime(path, (0, 0))
        atomic_write(path, "a,b\n1,2\n")
        assert path.stat().st_ino == inode
        assert path.stat().st_mtime > 0
        assert path.stat().st_mode & 0o777 == 0o600
        assert path.read_text() == "a,b\n1,2\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]

    @pytest.mark.parametrize("old, mode, new", [
        ("a,b\n", 0o644, "a,c\n"),       # other text
        ("a,b\r\n", 0o644, "a,b\n"),     # other line ends
        ("a,b\n", 0o600, "a,c\n"),       # other text, and a mode the umask would not give
        ("a,b\n", 0o600, "a,b\n"),       # only that mode: the same text, so only touched
    ])
    def test_other_file_is_replaced(self, tmp_path, old, mode, new):
        # replaced exactly when the bytes differ; the mode is kept either way
        path = tmp_path / "out.csv"
        path.write_bytes(old.encode())
        path.chmod(mode)
        inode = path.stat().st_ino
        umask = os.umask(0o022)
        try:
            atomic_write(path, new)
        finally:
            os.umask(umask)
        assert (path.stat().st_ino != inode) == (old != new)
        assert path.read_bytes() == new.encode()
        assert path.stat().st_mode & 0o777 == mode

    @pytest.mark.parametrize("unlink_fails", [False, True])
    def test_failed_rename_is_raised_after_cleanup(self, tmp_path, monkeypatch, unlink_fails):
        def refuse(*paths):
            raise OSError(f"refused {len(paths)}")

        monkeypatch.setattr(os, "replace", refuse)
        if unlink_fails:
            monkeypatch.setattr(os, "unlink", refuse)
        with pytest.raises(OSError, match="^refused 2$"):  # the rename's error, not unlink's
            atomic_write(tmp_path / "out.csv", "a,b\n")
        left = [p.name for p in tmp_path.iterdir()]
        assert len(left) == unlink_fails and all(n.startswith(".tmp-") for n in left)

    @pytest.mark.parametrize("target, code", [("adir", errno.EISDIR),
                                              ("nodir/out.txt", errno.ENOENT)],
                             ids=["EISDIR", "ENOENT"])
    def test_cli_output_onto_a_directory_names_the_directory(self, tmp_path, capsys, monkeypatch,
                                                             eu_model, target, code):
        # a directory, or a file in a missing one: the error names the path given
        monkeypatch.chdir(tmp_path)
        rc.save_model(eu_model, tmp_path / "eu.json")
        (tmp_path / "adir").mkdir()
        assert main(["tradeoff", "eu.json", "-o", target]) == 2
        assert capsys.readouterr() == ("", f"rsmcanon: [Errno {code}] "
                                           f"{os.strerror(code)}: {target!r}\n")
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["adir", "eu.json"]

    def test_failed_chmod_closes_the_temporary_file(self, tmp_path, monkeypatch):
        fds = Path("/proc/self/fd")
        if not fds.is_dir():
            pytest.skip("no /proc/self/fd to count open descriptors")

        def refuse(fd, mode):
            raise OSError("chmod refused")

        path = tmp_path / "out.csv"
        path.write_text("a,b\n")  # fchmod runs only to keep an existing file's mode
        monkeypatch.setattr(os, "fchmod", refuse)
        before = len(os.listdir(fds))
        for _ in range(5):
            with pytest.raises(OSError, match="^chmod refused$"):
                atomic_write(path, "a,c\n")
        assert len(os.listdir(fds)) == before
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("command", [["analyze"], ["regions", "--pair", "1,3"], ["tradeoff"]],
                             ids=["analyze", "regions", "tradeoff"])
    def test_cli_output_is_utf8_under_an_ascii_locale(self, tmp_path, command):
        # a variable named outside ASCII: stdout and -o carry the bytes a
        # UTF-8 locale writes, as every reader in modelio reads UTF-8
        text = rc.bundled_eu_model_path().read_text(encoding="utf-8")
        model = tmp_path / "model.json"
        model.write_text(text.replace('"Li"', '"Lí"'), encoding="utf-8")
        src = str(Path(__file__).resolve().parents[1] / "src")
        written = []
        for locale, utf8_mode in (("C", "0"), ("C.UTF-8", "1")):
            out = tmp_path / f"out.{locale}"
            for output in (["-o", str(out)], []):
                run = subprocess.run([sys.executable, "-m", "rsmcanon.cli", *command, str(model),
                                      *output],
                                     env=dict(os.environ, PYTHONPATH=src, LC_ALL=locale,
                                              PYTHONUTF8=utf8_mode),
                                     capture_output=True)
                assert (run.returncode, run.stderr) == (0, b"")
            assert run.stdout == out.read_bytes()
            written.append(run.stdout)
        assert written[0] == written[1]
        assert "Lí".encode() in written[0]

    def test_cli_writes_text_to_a_stdout_without_buffer(self, model_path, tmp_path):
        # redirect_stdout's StringIO has no byte layer: it gets the text -o writes
        out = tmp_path / "t.txt"
        assert main(["tradeoff", model_path, "-o", str(out)]) == 0
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert main(["tradeoff", model_path]) == 0
        assert stdout.getvalue() == out.read_text(encoding="utf-8") != ""

    def test_umask_is_never_read(self, tmp_path, monkeypatch):
        # the umask is process-wide: setting it to read it races other threads
        def refuse(mask):
            raise AssertionError("os.umask called")

        monkeypatch.setattr(os, "umask", refuse)
        path = tmp_path / "out.csv"
        for text in ("a,b\n", "a,c\n", "a,c\n"):  # new, rewritten, unchanged
            atomic_write(path, text)
        assert path.read_text() == "a,c\n"

    def test_fifo_is_written_in_place(self, tmp_path):
        # as open(path, "w") writes it; the read end is open, so nothing blocks
        path = tmp_path / "pipe"
        os.mkfifo(path)
        reader = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
        try:
            atomic_write(path, "a,b\n1,2\n")
            assert os.read(reader, 1 << 16) == b"a,b\n1,2\n"
        finally:
            os.close(reader)
        assert path.is_fifo()
        assert [p.name for p in tmp_path.iterdir()] == ["pipe"]

    def test_symlink_is_replaced_by_a_file(self, tmp_path):
        target, path = tmp_path / "target.csv", tmp_path / "out.csv"
        target.write_text("a,b\n")
        target.chmod(0o600)  # not followed: the new file gets a new file's mode
        path.symlink_to(target)
        umask = os.umask(0o022)
        try:
            atomic_write(path, "a,b\n")
        finally:
            os.umask(umask)
        assert not path.is_symlink() and path.read_text() == "a,b\n"
        assert path.stat().st_mode & 0o777 == 0o644 and target.stat().st_mode & 0o777 == 0o600
