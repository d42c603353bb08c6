"""Confidence regions |Y - Y0| <= M for pairs of canonical variables.

Same-sign eigenvalue pairs give ellipses (a genuine bounded region);
opposite-sign pairs give an unbounded hyperbolic band. M = 1e-8 on the
transformed scale corresponds to the few-percent yearly CO2
fluctuation range discussed for this model; the published worked
examples quote their regions about the center used below.

Run:  python3 demos/02_confidence_regions.py
"""

import numpy as np

import rsmcanon as rc

M = 1e-8
WORKED_CENTER = [534271.0, 286155.0, 8294.32, 82045.4]

model = rc.load_bundled_eu_model()
canon = rc.canonicalize(model)

print("Region kind per canonical pair:")
for i in range(1, 5):
    for j in range(i + 1, 5):
        print(f"  (z{i}, z{j}): {rc.region_kind(canon, i, j)}")
print()

# --- Elliptical pair (z1, z3), quoted about the published center ----
frame = rc.with_center(canon, WORKED_CENTER)
ellipse = rc.ellipse_region(frame, 1, 3, M)
a1, a3 = ellipse.semiaxes
print(f"Ellipse for (z1, z3) at M = {M:g}:")
print(f"  z1 = {a1:.2f} r cos(t),  z3 = {a3:.2f} r sin(t),  r <= 1")
print("  in original variables:")
for name, (center, c_cos, c_sin) in zip(ellipse.names, ellipse.affine):
    print(f"    {name:>3} = {center:,.2f} {c_cos:+.2f} cos(t) {c_sin:+.2f} sin(t)")
print()

print("  Maximal per-variable intervals (the enclosing box):")
for name, center, half in rc.max_intervals(ellipse):
    print(f"    |{name} - {center:,.2f}| <= {half:,.2f}")

# The box is strictly looser than the ellipse: its corner passes every
# interval but fails the joint membership test.
corner = np.array([c - half for (_, c, half) in rc.max_intervals(ellipse)])
print(f"  box corner {np.round(corner, 2)} inside the ellipse? "
      f"{rc.contains(frame, corner, M)}")
print()

# --- Hyperbolic pair (z2, z3): a band, not a bounded region ---------
band = rc.hyperbola_region(frame, 2, 3, M)
pos, neg = band.pair
print(f"Hyperbolic band for (z{pos}, z{neg}) at M = {M:g} "
      f"(unbounded: {band.unbounded}):")
print(f"  z{pos} = {band.semiaxes[0]:.2f} r cosh(t),  "
      f"z{neg} = {band.semiaxes[1]:.2f} r sinh(t),  |r| <= 1")
lam = canon.lambdas
print(f"  asymptote slopes in the (z{pos}, z{neg}) plane: "
      f"+-{np.sqrt(abs(lam[pos-1] / lam[neg-1])):.5f}")
print()

# --- Boundary samples for plotting ----------------------------------
csv_text = rc.emit_plot_csv(ellipse, count=360)
print("Ellipse boundary CSV header + first two rows:")
for line in csv_text.splitlines()[:3]:
    print("   ", line[:100])
print(f"   ... {len(csv_text.splitlines()) - 1} rows total; every row satisfies "
      f"the membership test at M")
