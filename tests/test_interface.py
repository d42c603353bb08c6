"""File formats, report generation, and the command line."""

import json
import os
from pathlib import Path

import numpy as np
import pytest

import rsmcanon as rc
from rsmcanon.cli import main
from rsmcanon.modelio import EMISSIONS_NAMES

from eu_reference import EU_WORKED_CENTER

M_IPCC = 1e-8

EMISSIONS_HEADER = "year,country,liquid,gas,gas_flares,bunker,co2_ppmv"

GOLDEN = Path(__file__).parent / "golden"


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
        rc.save_model(eu_model, path, metadata={"reference_f_values": {"Ga": 197.22}})
        again = rc.load_model(path)
        assert again.names == eu_model.names
        assert again.intercept == eu_model.intercept
        assert again.exponent == eu_model.exponent
        assert np.array_equal(again.linear, eu_model.linear)
        assert np.array_equal(again.interaction.array, eu_model.interaction.array)
        assert rc.load_model_document(path)["reference_f_values"] == {"Ga": 197.22}

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


def write_emissions(path, rows, header=EMISSIONS_HEADER):
    path.write_text(header + "\n" + "\n".join(rows) + "\n")


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

    def test_year_exclusion(self, tmp_path):
        path = tmp_path / "e.csv"
        write_emissions(path, [
            "1963,Austria,1,1,1,1,318.0",
            "1964,Austria,2,2,2,2,319.0",
            "1965,Austria,3,3,3,3,320.0",
        ])
        table, totals = rc.load_emissions(path, exclude_years=[1964])
        assert totals.years == (1963, 1965)
        assert all(row.year != 1964 for row in table.rows)

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
        table, totals = rc.load_emissions(path)
        assert len(table.rejected) == 1
        assert table.rejected[0][0] == 2
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


class TestReport:
    def test_deterministic_bytes(self, eu_model):
        first = rc.run_analysis(eu_model, center=EU_WORKED_CENTER)
        second = rc.run_analysis(eu_model, center=EU_WORKED_CENTER)
        assert first.to_json() == second.to_json()
        assert first.to_text() == second.to_text()

    def test_numeric_fields_round_trip(self, eu_model):
        report = rc.run_analysis(eu_model)
        assert json.loads(report.to_json()) == report.to_dict()

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

    def test_zero_quadratic_model_surfaces_singularity(self):
        flat = rc.build_model([rc.ModelTerm.linear(0, 1.0)], 0.0, 1.0, ("x", "y"))
        with pytest.raises(rc.SingularMatrix) as err:
            rc.run_analysis(flat)
        assert "[canonical]" in str(err.value)
        assert getattr(err.value, "stage") == "canonical"


class TestPlotCsv:
    def test_ellipse_closed_curve(self, eu_canon, tmp_path):
        region = rc.ellipse_region(eu_canon, 1, 3, M_IPCC)
        path = tmp_path / "ellipse.csv"
        rc.emit_plot_csv(region, 360, path=path)
        lines = path.read_text().splitlines()
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

    @pytest.mark.parametrize("pairing", ["0,1", "5,1"])
    def test_tradeoff_axis_out_of_range_is_input_error(self, model_path, capsys, pairing):
        assert main(["tradeoff", model_path, "--pairing", pairing]) == 2
        err = capsys.readouterr().err
        assert err.startswith("rsmcanon: IndexOutOfRange: [tradeoff] canonical axis ")
        assert err.count("tradeoff") == 1  # the stage is named once

    def test_predict(self, model_path, capsys):
        assert main(["predict", model_path, "--at", "0,0,0,0"]) == 0
        assert capsys.readouterr().out.startswith("307.19")

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

    def test_output_files_get_umask_mode(self, eu_model, eu_canon, model_path, tmp_path):
        old = os.umask(0o022)
        try:
            rc.save_model(eu_model, tmp_path / "m.json")
            rc.emit_plot_csv(rc.ellipse_region(eu_canon, 1, 3, M_IPCC), 10,
                             path=tmp_path / "r.csv")
            main(["tradeoff", model_path, "-o", str(tmp_path / "t.txt")])
        finally:
            os.umask(old)
        for name in ("m.json", "r.csv", "t.txt"):
            assert (tmp_path / name).stat().st_mode & 0o777 == 0o644
