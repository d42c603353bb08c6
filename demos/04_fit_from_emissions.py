"""Fitting a second-order model from an emissions table.

Builds a synthetic per-country emissions CSV whose yearly totals
follow a known quadratic law, with 0.1% seeded multiplicative noise on
CO2, then ingests and fits it in one call, ``fit_emissions`` (excluding
one year, as real ingestion would drop incomplete records): a fit on
the transformed scale with terms ranked by partial F. The fitted
coefficients land close to the generating ones, and the F values
measure each term against that noise. On noise-free data the residual
is rounding error and F only its reciprocal.

Run:  python3 demos/04_fit_from_emissions.py
"""

import os
import tempfile

import numpy as np

import rsmcanon as rc
from rsmcanon.modelio import EMISSIONS_NAMES

rng = np.random.default_rng(42)

TRUE = {"intercept": 4.0e-6, "Li": 2.0e-11, "Ga": -1.5e-11, "Ga:Bu": 4.0e-16}
EXPONENT = -2.376
CO2_NOISE = 1e-3

rows = ["year,country,liquid,gas,gas_flares,bunker,co2_ppmv"]
for year in range(1959, 2009):
    li = rng.uniform(2e4, 6e4)
    ga = rng.uniform(1e4, 3e4)
    fl = rng.uniform(3e2, 9e2)
    bu = rng.uniform(2e3, 8e3)
    transformed = (TRUE["intercept"] + TRUE["Li"] * li + TRUE["Ga"] * ga
                   + TRUE["Ga:Bu"] * ga * bu)
    co2 = transformed ** (1.0 / EXPONENT) * (1.0 + CO2_NOISE * rng.standard_normal())
    split = rng.uniform(0.4, 0.6)
    for country, frac in (("Northland", split), ("Southland", 1.0 - split)):
        co2_cell = repr(co2) if country == "Northland" else ""
        rows.append(f"{year},{country},{li*frac!r},{ga*frac!r},"
                    f"{fl*frac!r},{bu*frac!r},{co2_cell}")

with tempfile.TemporaryDirectory() as tmp:
    csv_path = os.path.join(tmp, "emissions.csv")
    with open(csv_path, "w") as handle:
        handle.write("\n".join(rows) + "\n")

    terms = rc.parse_terms("Li,Ga,Ga:Bu", EMISSIONS_NAMES)
    result = rc.fit_emissions(csv_path, terms, EXPONENT, exclude_years=[1964])
    print(f"Ingested {len(result.years)} years (1964 excluded, "
          f"{len(result.rejected)} rows rejected)")

    print(f"SSE on the transformed scale: {result.sse:.3e}")
    print()
    print("rank  term    fitted coefficient   generating value    F")
    stats = {s.label: s for s in result.term_stats}
    for k, label in enumerate(result.ranking, start=1):
        s = stats[label]
        print(f"{k:>4}  {label:<6} {s.coefficient:>18.6e} {TRUE[label]:>18.6e} "
              f"{s.f_value:>10.3g}")
    print()
    print(f"intercept: fitted {result.model.intercept:.6e} vs "
          f"generating {TRUE['intercept']:.6e}")

    # The fitted model is a full QuadraticModel: the whole canonical
    # toolchain applies to it directly.
    out_path = os.path.join(tmp, "fitted.model.json")
    rc.save_model(result.model, out_path)
    print(f"model JSON written and reloadable: "
          f"{rc.load_model(out_path).names == EMISSIONS_NAMES}")
