"""Property tests for the boundary sampler and the stage contracts on
random graded models, and for the least-squares fit on random graded
designs.

The strategies build B = Q diag(lambda) Q' from a random orthogonal Q,
with mixed eigenvalue signs and |lambda| graded over four decades at
the EU model's scale (about 1e-16). The stationary point sits up to
1e4 semiaxes from the origin; the EU center is about 87 semiaxes out
at M = 1e-8, and 8,700 at M = 1e-12. Every row of ``boundary_points``
and ``emit_plot_csv`` is checked against the conic it should lie on.
A wider grading, down to 1e-13 max|lambda| across the 1e-9 degeneracy
cutoff, checks that a model ``canonicalize`` accepts passes the later
stages too. The eigensolver keeps its sort and sign convention on
these B, and its eigenvalues do not move under a permutation or a sign
flip of the variables; the gradient vanishes at the canonical center
to roundoff. Fits are checked against numpy lstsq: the
coefficients, and every partial F against an explicit drop-one refit.
The CSV text must equal a row-by-row ``repr`` rendering byte for byte,
and the per-point functions, of the model and of its canonical frame,
must reject a non-finite entry before any arithmetic can warn; on
points around graded frames, on the conic and off it, they must match
bit for bit oracles that form each small product with ``@``.
Marginal-rate ratios must not move when M is scaled anywhere from the
smallest subnormal up to the largest bound a region accepts. The
eigensolver and the default pairing must match, bit for bit, oracles
kept here: a Jacobi iteration that takes each step's rotation test and
angles in numpy's elementwise form, and a pairing that skips no pair of
axes; the eigensolver also at the sizes the benchmark solves, where
sha256 digests pin its output. On spectra graded across the 1e-12 and 1e-9 cutoffs, with
eigenvalues on them and an ulp to either side, ``solve`` raises exactly
when ``small_axes`` finds an axis and names those axes, and a frame's
``degenerate_axes`` is ``small_axes`` at 1e-9, 1-based. That set is the
one decision: on frames with eigenvalues on that cutoff and an ulp to
either side, ``kind``, ``check_pair``, ``region``, ``iso_slopes`` and
the default pairing refuse exactly the axes it holds. Scaling B and
beta by a power of ten down to 1e-300, where eigenvalue products
underflow, moves no region kind, no ``iso_slopes`` verdict, no default
pairing and no region kind of an analysis. Scaling A, or b0, beta, B
and M, by a power of four 4^j, from near the smallest normal float to
near the largest, scales the eigenvalues, Y0 and the bounds exactly
and moves no other bit of the eigensolver or of an analysis.
Emissions ingestion sums the kept rows of a shuffled per-country CSV,
with blank rows, blank co2 cells, negative rows and excluded years, bit
for bit as a plain-Python running sum in file order does, and rejects
the same lines. ``fit_emissions`` fits the years of that running sum
that carry co2_ppmv bit for bit as ``ols_fit`` on them does, records
the fitted and dropped years and the rejected rows, and raises what
that hand path raises. The indented JSON writer gives the bytes of
``json.dumps(tree, indent=2, sort_keys=True)`` on generated JSON trees,
or raises the exception type it raises, and the report and model file of
a graded model are those bytes.
"""

import dataclasses
import hashlib
import io
import itertools
import json
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import rsmcanon as rc
import rsmcanon.fitting as fitting
import rsmcanon.linalg as linalg
import rsmcanon.tradeoff as tradeoff
from rsmcanon.modelio import EMISSIONS_NAMES, json_text
from rsmcanon.regions import CONTAINS_SLACK

LAMBDA_SCALE = 1e-16
unit = st.floats(-1.0, 1.0)


@st.composite
def graded_model(draw, span=4.0):
    """(model, bound M) for a random mixed-sign B graded over ``span`` decades."""
    n = draw(st.integers(3, 6))
    q, _ = np.linalg.qr(draw(arrays(float, (n, n), elements=unit)))
    decades = np.array([0.0, span] + draw(st.lists(st.floats(0.0, span), min_size=n - 2,
                                                   max_size=n - 2)))
    signs = np.array([1.0, -1.0] + draw(st.lists(st.sampled_from([1.0, -1.0]),
                                                 min_size=n - 2, max_size=n - 2)))
    lam = signs * LAMBDA_SCALE * 10.0 ** decades
    b = (q * lam) @ q.T
    bound = 10.0 ** draw(st.floats(-10.0, -6.0))
    reach = 10.0 ** draw(st.floats(0.0, 4.0)) * np.sqrt(bound / np.abs(lam).max())
    center = reach * draw(arrays(float, (n,), elements=unit))
    model = rc.QuadraticModel(tuple(f"x{k}" for k in range(1, n + 1)), 1.0,
                              -2.0 * b @ center, rc.SymMatrix(b), 1.0)
    return model, bound


@st.composite
def graded_canon(draw):
    """(canonical model, bound M) for a random graded mixed-sign B."""
    model, bound = draw(graded_model())
    return rc.canonicalize(model), bound


@st.composite
def regions(draw):
    """(canon, region) for a drawn pair; ellipses and hyperbolas alike."""
    canon, bound = draw(graded_canon())
    lam = canon.lambdas
    pairs = [(i, j) for i in range(1, canon.n + 1) for j in range(i + 1, canon.n + 1)]
    elliptical = draw(st.booleans())
    i, j = draw(st.sampled_from(
        [p for p in pairs if (lam[p[0] - 1] * lam[p[1] - 1] > 0.0) == elliptical]))
    build = rc.ellipse_region if elliptical else rc.hyperbola_region
    return canon, build(canon, i, j, bound)


samples = st.tuples(st.integers(2, 60), st.floats(0.1, 3.0))


@given(graded_model())
def test_eigen_sort_sign_and_reconstruction(case):
    b = case[0].interaction.array
    eig = rc.jacobi_eigen(b)
    keys = [(-abs(x), -x) for x in eig.lambdas]
    assert keys == sorted(keys)
    lead = np.abs(eig.vectors).argmax(axis=0)
    assert (eig.vectors[lead, np.arange(len(b))] > 0.0).all()
    assert np.linalg.norm(eig.reconstruct() - b) <= 1e-12 * np.linalg.norm(b)


@given(graded_model(), st.data())
def test_eigenvalues_invariant_under_permutation_and_sign_flip(case, data):
    b = case[0].interaction.array
    n = len(b)
    perm = data.draw(st.permutations(range(n)))
    signs = np.array(data.draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=n, max_size=n)))
    lam = np.sort(rc.jacobi_eigen(b).lambdas)
    for other in (b[np.ix_(perm, perm)], signs[:, None] * b * signs):
        np.testing.assert_allclose(np.sort(rc.jacobi_eigen(other).lambdas), lam,
                                   rtol=0.0, atol=1e-13 * np.abs(lam).max())


@given(graded_model())
def test_center_is_stationary(case):
    model = case[0]
    canon = rc.canonicalize(model)
    scale = (np.linalg.norm(model.linear)
             + np.linalg.norm(model.interaction.array) * np.linalg.norm(canon.center))
    assert np.linalg.norm(rc.gradient(model, canon.center)) <= 1e-9 * scale


def check_rows(canon, region, z, x):
    """Every (z_i, z_j) row lies on the conic, maps to its x, and is inside."""
    lam_i, lam_j = (canon.lambdas[k - 1] for k in region.pair)
    q = np.abs(lam_i * z[:, 0] ** 2 + lam_j * z[:, 1] ** 2)
    np.testing.assert_allclose(q, region.bound, rtol=1e-9)
    for zk, xk in zip(z, x):
        full = np.zeros(canon.n)
        full[[k - 1 for k in region.pair]] = zk
        ref = rc.from_canonical(canon, full)
        assert np.abs(xk - ref).max() <= 1e-9 * np.abs(ref).max()
        assert rc.contains(canon, xk, region.bound)


@given(regions(), samples)
def test_boundary_points_lie_on_the_conic(case, sample):
    canon, region = case
    count, t_max = sample
    t, r, z, x = rc.boundary_points(region, count, t_max)
    assert len(t) == (2 * count if region.unbounded else count)
    check_rows(canon, region, z, x)


@given(regions(), samples)
def test_plot_csv_rows_lie_on_the_conic(case, sample):
    canon, region = case
    count, t_max = sample
    rows = np.loadtxt(io.StringIO(rc.emit_plot_csv(region, count, t_max)),
                      delimiter=",", skiprows=1, ndmin=2)
    assert len(rows) == (2 * count if region.unbounded else count)
    check_rows(canon, region, rows[:, 2:4], rows[:, 4:])


@given(regions(), st.floats(1e-3, 1e3))
def test_semiaxes_scale_as_root_bound(case, factor):
    canon, region = case
    build = rc.hyperbola_region if region.unbounded else rc.ellipse_region
    scaled = build(canon, *region.pair, region.bound * factor ** 2)
    np.testing.assert_allclose(scaled.semiaxes, np.multiply(region.semiaxes, factor),
                               rtol=1e-12)


def row_wise_csv(region, count, t_max):
    """``emit_plot_csv`` text rendered one row at a time, ``repr`` on every float."""
    t, r, z, x = rc.boundary_points(region, count, t_max)
    i, j = region.pair
    lines = [",".join(["param", "r", f"z_{i}", f"z_{j}", *region.names])]
    lines += [",".join(map(repr, row)) for row in np.column_stack([t, r, z, x]).tolist()]
    return "\n".join(lines) + "\n"


@given(regions(), st.integers(2, 400), st.floats(0.1, 3.0))
def test_plot_csv_bytes_match_row_wise_rendering(case, count, t_max):
    region = case[1]
    assert rc.emit_plot_csv(region, count, t_max) == row_wise_csv(region, count, t_max)


@st.composite
def dense_model(draw):
    """A model of 1 to 10 variables with every coefficient drawn from [-1, 1]."""
    n = draw(st.integers(1, 10))
    b = draw(arrays(float, (n, n), elements=unit))
    return rc.QuadraticModel(tuple(f"x{k}" for k in range(1, n + 1)), draw(unit),
                             draw(arrays(float, (n,), elements=unit)), rc.SymMatrix(b + b.T), 1.0)


@given(dense_model(), st.data())
def test_non_finite_point_rejected_before_any_arithmetic(model, data):
    point = data.draw(arrays(float, (model.n,), elements=st.floats(-1e300, 1e300)))
    bad = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    point[data.draw(st.integers(0, model.n - 1))] = bad
    calls = [(fn, (model, point), "point")
             for fn in (rc.predict_response, rc.evaluate_matrix, rc.gradient, rc.evaluate_terms)]
    calls.append((rc.solve, (model.interaction, point), "right-hand side"))
    try:
        canon = rc.canonicalize(model)
    except rc.SingularMatrix:
        pass
    else:
        calls += [(rc.to_canonical, (canon, point), "point"),
                  (rc.contains, (canon, point, 1e-8), "point"),
                  (rc.from_canonical, (canon, point), "canonical point"),
                  (rc.canonical_response, (canon, point), "canonical point")]
    for fn, args, what in calls:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(rc.DimensionMismatch, match=f"^{what} entries must be finite$"):
                fn(*args)


@given(dense_model(), st.data())
def test_evaluate_matrix_adds_as_numpy_does(model, data):
    x = data.draw(arrays(float, (model.n,), elements=st.floats(-1e6, 1e6)))
    b0, beta, b = model.intercept, model.linear, model.interaction.array
    assert rc.evaluate_matrix(model, x).hex() == float(b0 + beta @ x + x @ (b @ x)).hex()


@st.composite
def frame_points(draw):
    """(model, canon, M, x, z) for a graded model under exponent 1 or
    -2.376: canonical coordinates z up to 100 semiaxes in or out, on the
    conic |Y - Y0| = M, or outside it by up to twice the rounding slack that
    ``contains`` allows, and the point x they map to. The frame is the
    model's, or that frame moved by ``with_center`` to a drawn point with
    each entry of the stationary point scaled by 0 to 2."""
    model, bound = draw(graded_model())
    model = dataclasses.replace(model, exponent=draw(st.sampled_from([1.0, -2.376])))
    canon = rc.canonicalize(model)
    if draw(st.booleans()):
        canon.center_norm  # the moved frame must not inherit the constants cached here
        canon = rc.with_center(canon, canon.center * draw(
            arrays(float, (model.n,), elements=st.floats(0.0, 2.0))))
    z = draw(arrays(float, (model.n,), elements=unit)) * np.sqrt(bound / np.abs(canon.lambdas))
    fluct = abs(float(canon.lambdas @ (z * z)))
    where = draw(st.sampled_from(["off", "on", "slack"]))
    if where == "off" or fluct == 0.0:
        z = z * 10.0 ** draw(st.floats(-2.0, 2.0))
    else:
        z = z * math.sqrt(bound / fluct)
    if where == "slack":  # |x| is about |center| here
        h = 2.0 * math.sqrt(canon.center @ canon.center)
        slack = CONTAINS_SLACK * float(np.abs(canon.lambdas * z) @ (np.abs(z) + h))
        z = z * math.sqrt(1.0 + draw(st.floats(0.0, 2.0)) * min(slack / bound, 0.25))
    return model, canon, bound, canon.center + canon.axes @ z, z


def matmul_oracles(model, canon, bound, x, z):
    """The per-point functions' values, with each small product in the
    ``@`` form that ``ndarray.dot`` replaced in the package."""
    b0, beta, b = model.intercept, model.linear, model.interaction.array
    y = b0 + float(beta @ x) + float(x @ (b @ x))
    zx = canon.axes.T @ (x - canon.center)
    fluct = abs(float(canon.lambdas @ (zx * zx)))
    h = math.sqrt(np.dot(x, x)) + math.sqrt(canon.center @ canon.center)
    slack = CONTAINS_SLACK * float(np.abs(canon.lambdas * zx) @ (np.abs(zx) + h))
    return {
        "evaluate_matrix": lambda: y,
        "predict_response": lambda: rc.model.invert_transform(y, model.exponent),
        "gradient": lambda: beta + 2.0 * (b @ x),
        "to_canonical": lambda: zx,
        "contains": lambda: fluct <= bound * (1.0 + CONTAINS_SLACK) or fluct <= bound + slack,
        "from_canonical": lambda: canon.center + canon.axes @ z,
        "canonical_response": lambda: float(canon.y0 + canon.lambdas @ (z * z)),
    }


def outcome(fn):
    """The bits of what ``fn()`` returns, or the message of its DomainError."""
    try:
        value = fn()
    except rc.DomainError as exc:
        return str(exc)
    if isinstance(value, np.ndarray):
        return value.tobytes()
    return value.hex() if isinstance(value, float) else value


@given(frame_points())
def test_per_point_functions_bit_identical_to_matmul_oracles(case):
    model, canon, bound, x, z = case
    want = {k: outcome(fn) for k, fn in matmul_oracles(model, canon, bound, x, z).items()}
    listed = rc.CanonicalModel(canon.names, canon.center.tolist(), canon.y0,
                               canon.lambdas.tolist(), canon.axes.tolist())
    # the second pass over the frame reads the constants the first one cached
    for frame in (canon, canon, listed):
        got = {
            "evaluate_matrix": lambda: rc.evaluate_matrix(model, x),
            "predict_response": lambda: rc.predict_response(model, x),
            "gradient": lambda: rc.gradient(model, x),
            "to_canonical": lambda: rc.to_canonical(frame, x),
            "contains": lambda: rc.contains(frame, x, bound),
            "from_canonical": lambda: rc.from_canonical(frame, z),
            "canonical_response": lambda: rc.canonical_response(frame, z),
        }
        assert {k: outcome(fn) for k, fn in got.items()} == want
        assert frame.center_norm == math.sqrt(frame.center @ frame.center)
        assert frame.abs_lambdas.tobytes() == np.abs(frame.lambdas).tobytes()


def test_contains_raises_on_every_call_while_center_center_overflows():
    # |center|^2 = 2e308 overflows; x.x, z*z and lambda.z^2 do not
    far = rc.CanonicalModel(("x", "y"), [1e154, 1e154], 0.0, [1e-300, 1e-300], np.eye(2))
    with warnings.catch_warnings():  # a first call that ignores the warning caches nothing
        warnings.simplefilter("ignore")
        rc.contains(far, [0.0, 0.0], 1e-8)
    for _ in range(3):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeWarning, match="^overflow encountered in "):
                rc.contains(far, [0.0, 0.0], 1e-8)


# a variable name that a label can carry: no separator, and nothing that
# str.strip would take off either end
label_name = st.text(st.characters(exclude_characters=",:"), min_size=1, max_size=4).filter(
    lambda name: name == name.strip())


@given(names=st.lists(label_name, min_size=1, max_size=5, unique=True), data=st.data())
def test_parse_terms_reads_back_what_label_prints(names, data):
    indices = data.draw(st.lists(st.sampled_from(full_quadratic(len(names))), min_size=1,
                                 unique=True))
    labels = [rc.ModelTerm(idx, 1.0).label(names) for idx in indices]
    pad = data.draw(st.text(" ", min_size=1, max_size=3))
    for text in (", ".join(labels),
                 f"{pad},{pad}".join(label.replace(":", f"{pad}:{pad}") for label in labels)):
        terms = rc.parse_terms(text, names)
        assert [t.indices for t in terms] == indices, text
        assert all(t.coefficient == 0.0 for t in terms)


@given(base=st.one_of(dense_model(), graded_model().map(lambda case: case[0])), data=st.data())
def test_every_model_build_model_accepts_round_trips_through_a_file(tmp_path_factory, base, data):
    names = data.draw(st.lists(st.text(max_size=3), min_size=base.n, max_size=base.n,
                               unique=True))
    if data.draw(st.integers(0, 7)) == 0:
        names[-1] = names[0]
    intercept, exponent = data.draw(st.floats()), data.draw(st.floats(-10.0, 10.0) | st.floats())
    label = data.draw(st.text(max_size=5))
    try:
        model = rc.build_model(base.terms, intercept, exponent, names, label)
    except rc.DomainError:  # an exponent without a finite reciprocal
        return
    except rc.DimensionMismatch:
        assert len(set(names)) < len(names) or not math.isfinite(intercept)
        return
    path = tmp_path_factory.mktemp("round_trip") / "model.json"
    rc.save_model(model, path)
    back = rc.load_model(path)
    assert (back.names, back.response_label) == (model.names, model.response_label)
    assert (back.exponent, back.intercept) == (model.exponent, model.intercept)
    assert back.linear.tobytes() == model.linear.tobytes()
    assert back.interaction.array.tobytes() == model.interaction.array.tobytes()


@st.composite
def spread_model(draw):
    """A graded model whose smallest |lambda| lies 4 to 13 decades below
    the largest, with an added linear term unrelated to B."""
    model, _ = draw(graded_model(draw(st.floats(4.0, 13.0))))
    extra = draw(arrays(float, (model.n,), elements=unit))
    linear = model.linear + LAMBDA_SCALE * 1e8 * extra
    return rc.QuadraticModel(model.names, 1.0, linear, model.interaction, 1.0)


ZERO_TOL = rc.canonical.ZERO_TOL_FACTOR
CUTOFF_SIDES = {"below": 0.0, "on": None, "above": math.inf}


def near_cutoff(top, side):
    """ZERO_TOL * |top|, or the float an ulp below or above it."""
    cut = ZERO_TOL * abs(top)
    return cut if CUTOFF_SIDES[side] is None else float(np.nextafter(cut, CUTOFF_SIDES[side]))


def diag_frame(lam):
    """A frame with eigenvalues ``lam`` on the identity axes, centered at 0."""
    n = len(lam)
    return rc.CanonicalModel(tuple(f"x{k}" for k in range(1, n + 1)), np.zeros(n), 0.0,
                             lam, np.eye(n))


def cutoff_model(side):
    """A diagonal B at the EU scale whose third eigenvalue lies on the
    cutoff or an ulp to ``side`` of it."""
    lam = [-2.0 * LAMBDA_SCALE, LAMBDA_SCALE, near_cutoff(2.0 * LAMBDA_SCALE, side)]
    return rc.QuadraticModel(("x1", "x2", "x3"), 1.0, LAMBDA_SCALE * 1e8 * np.array([1.0, -1.0, 1.0]),
                             rc.SymMatrix(np.diag(lam)), 1.0)


@given(spread_model())
@example(cutoff_model("below"))
@example(cutoff_model("on"))
@example(cutoff_model("above"))
def test_what_canonicalize_accepts_later_stages_accept(model):
    try:
        canon = rc.canonicalize(model)
    except rc.SingularMatrix:
        assert diag_frame(rc.jacobi_eigen(model.interaction).lambdas).degenerate_axes
        return
    assert canon.degenerate_axes == () and canon.kind != "degenerate"
    rc.run_analysis(model)  # default region and trade pairs; no NumericalError
    lam = canon.lambdas
    for i in range(1, canon.n + 1):
        for j in range(i + 1, canon.n + 1):
            if lam[i - 1] * lam[j - 1] < 0.0:
                rc.iso_slopes(canon, i, j)


def test_ridge_model_rejected_at_canonical_stage():
    # |lambda_2| = 5e-11 max|lambda|: above a 1e-12 condition floor but
    # degenerate by the 1e-9 rule, so no later stage sees it
    model = rc.QuadraticModel(("x", "y"), 0.0, np.array([0.0, 1.0]),
                              rc.SymMatrix(np.diag([-2.0, -1e-10])), 1.0)
    with pytest.raises(rc.SingularMatrix, match=r"^\[canonical\] .*axes \[2\]"):
        rc.run_analysis(model)


FACTORS = (linalg.DEFAULT_COND_TOL, rc.canonical.ZERO_TOL_FACTOR)


@st.composite
def graded_spectrum(draw):
    """(S, lambdas): a spectrum graded over 16 decades below |lambda_1|,
    with some eigenvalues on a cutoff factor * |lambda_1| or an ulp to
    either side. S is diagonal, so ``jacobi_eigen`` keeps those bits, or
    the spectrum rotated by a random orthogonal Q."""
    n = draw(st.integers(1, 6))
    top = draw(st.sampled_from([1.0, -1.0])) * 10.0 ** draw(st.floats(-20.0, 20.0))
    lam = [top]
    for _ in range(n - 1):
        factor = draw(st.sampled_from((None,) + FACTORS))
        if factor is None:
            mag = abs(top) * 10.0 ** -draw(st.floats(0.0, 16.0))
        else:
            cut = factor * abs(top)
            mag = np.nextafter(cut, draw(st.sampled_from([0.0, cut, np.inf])))
        lam.append(draw(st.sampled_from([1.0, -1.0])) * mag)
    lam = np.array(draw(st.permutations(lam)))
    if draw(st.booleans()):
        return np.diag(lam), lam
    q, _ = np.linalg.qr(draw(arrays(float, (n, n), elements=st.floats(0.1, 1.0))))
    return (q * lam) @ q.T, lam


def small_oracle(lam, factor):
    top = max(abs(float(x)) for x in lam)
    return [k for k, x in enumerate(lam) if abs(float(x)) <= factor * top]


@given(graded_spectrum())
def test_one_zero_rule_for_solve_and_degenerate_axes(case):
    s, lam = case
    for factor in FACTORS:
        assert linalg.small_axes(lam, factor).tolist() == small_oracle(lam, factor)
    assert diag_frame(lam).degenerate_axes == tuple(k + 1 for k in small_oracle(lam, FACTORS[1]))
    small = small_oracle(rc.jacobi_eigen(s).lambdas, linalg.DEFAULT_COND_TOL)
    try:
        rc.solve(s, np.ones(len(lam)))
    except rc.SingularMatrix as exc:
        assert str(exc).startswith(f"eigenvalues {[k + 1 for k in small]} are below")
    else:
        assert not small


@pytest.mark.parametrize("top", [1.0, -3.0])
@pytest.mark.parametrize("third, fourth", itertools.product(CUTOFF_SIDES, repeat=2))
def test_frame_decides_degeneracy_once_for_every_stage(top, third, fourth):
    lam = [-2.0 * top, top, near_cutoff(2.0 * top, third), -near_cutoff(2.0 * top, fourth)]
    canon = diag_frame(lam)
    bad = {k + 1 for k in small_oracle(lam, ZERO_TOL)}
    assert bad == {k for k, side in ((3, third), (4, fourth)) if side != "above"}
    assert canon.degenerate_axes == tuple(sorted(bad))
    assert (canon.kind == "degenerate") == bool(bad)
    stages = (rc.check_pair, lambda c, i, j: rc.region(c, i, j, 1e-8), rc.iso_slopes)
    for i, j in itertools.permutations(range(1, 5), 2):
        for stage in stages:
            try:
                stage(canon, i, j)
            except rc.DegeneratePair:
                assert {i, j} & bad
            except rc.SameSignPair:
                assert not {i, j} & bad
            else:
                assert not {i, j} & bad
    pairing = rc.default_pairing(canon)
    assert (1, 2) in pairing and not any({i, j} & bad for i, j in pairing)


@st.composite
def graded_fit(draw):
    """(dataset, terms) for a random full-rank design with noise.

    Each variable lies in [0.2, 1] times a scale of 10^0 to 10^3, so the
    linear and second-order columns span about six decades, as the
    emissions totals and their products do. Each term moves the response
    by up to one unit; noise of 1e-6 to 1e-1 of the response's spread
    keeps every residual finite. Values come from a drawn numpy seed.
    """
    n = draw(st.integers(2, 4))
    rows = draw(st.integers(12, 40))
    pool = [(i,) for i in range(n)] + [(i, j) for i in range(n) for j in range(i, n)]
    terms = draw(st.lists(st.sampled_from(pool), min_size=1,
                          max_size=min(len(pool), rows - 4), unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scales = 10.0 ** np.array(draw(st.lists(st.floats(0.0, 3.0), min_size=n, max_size=n)))
    x = scales * rng.uniform(0.2, 1.0, size=(rows, n))
    cols = np.column_stack([x[:, list(t)].prod(axis=1) for t in terms])
    y = 1.0 + cols @ (rng.uniform(-1.0, 1.0, len(terms)) / cols.std(axis=0))
    y += 10.0 ** draw(st.floats(-6.0, -1.0)) * y.std() * rng.standard_normal(rows)
    return rc.Dataset(X=x, y=y, names=tuple(f"x{k}" for k in range(1, n + 1))), terms


def lstsq_sse(d, terms):
    """(coefficients, column norms, SSE) by lstsq on the equilibrated design."""
    design = np.column_stack([np.ones(d.rows)] + [d.X[:, list(t)].prod(axis=1) for t in terms])
    norms = np.linalg.norm(design, axis=0)
    coef = np.linalg.lstsq(design / norms, d.y, rcond=None)[0] / norms
    resid = d.y - design @ coef
    return coef, norms, float(resid @ resid)


@given(graded_fit())
def test_fit_matches_lstsq_and_drop_one_refits(case):
    d, terms = case
    result = rc.ols_fit(d, terms, 1.0)
    ref, norms, sse = lstsq_sse(d, terms)
    coef = np.array([result.model.intercept] + [s.coefficient for s in result.term_stats])
    assert (np.abs(coef - ref) * norms).max() <= 1e-8 * np.linalg.norm(d.y)
    scale = sse / (d.rows - len(terms) - 1)
    f_ref = {}
    for k, stat in enumerate(result.term_stats):
        f_ref[stat.label] = max(0.0, lstsq_sse(d, terms[:k] + terms[k + 1:])[2] - sse) / scale
        assert abs(stat.f_value - f_ref[stat.label]) <= 1e-6 * max(f_ref[stat.label], 1.0)
    for hi, lo in zip(result.ranking, result.ranking[1:]):
        assert f_ref[hi] >= f_ref[lo] - 1e-6 * max(f_ref[lo], 1.0)
    assert tuple(s.label for s in rc.f_rank(d, result)) == result.ranking


@given(graded_fit())
def test_one_eigendecomposition_per_fit(case):
    d, terms = case
    calls = []

    def counting(matrix, **kwargs):
        calls.append(1)
        return rc.jacobi_eigen(matrix, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fitting, "jacobi_eigen", counting)
        rc.ols_fit(d, terms, 1.0)
    assert len(calls) == 1


def jacobi_oracle(matrix, max_sweeps=linalg.JACOBI_MAX_SWEEPS, tol=linalg.JACOBI_TOL):
    """``jacobi_eigen`` with each step's rotation test and angles in
    numpy's elementwise form, where the solver takes them in Python floats.
    Like the solver, it ends after a sweep that rotates nothing, raises at
    the first step that would rotate in a sweep past ``max_sweeps``, and
    sweeps a copy scaled by the power of four 4^k that puts max|a| in
    [1/4, 1), scaling the diagonal back by 4^-k.
    Returns (lambdas, vectors, sweeps that rotated, rotations)."""
    a = rc.SymMatrix(matrix).array
    n = a.shape[0]
    perm = np.argsort(-np.abs(a.diagonal()), kind="stable")
    k = -((math.frexp(np.abs(a).max())[1] + 1) // 2)
    eye = np.eye(n)
    av = np.vstack((np.ldexp(a[perm][:, perm], 2 * k), eye[:, perm]))
    rotations = 0
    for sweep in itertools.count():
        rotated = False
        for gather, scatter in linalg._wavefront(n):
            apq, app, aqq = g = av.take(gather)
            root = np.sqrt(np.abs(g[1:]))
            rot = np.abs(apq) > tol * root[0] * root[1]
            count = np.count_nonzero(rot)
            if not count:
                continue
            if sweep >= max_sweeps:
                raise rc.NonConvergence("oracle: a sweep past max_sweeps rotates")
            rotated = True
            rotations += count
            if count < rot.size:
                (apq, app, aqq), scatter = g[:, rot], scatter[:, rot]
            h = aqq - app
            t = np.copysign(2.0, h) * apq / (np.abs(h) + np.hypot(h, 2.0 * apq))
            c = 1.0 / np.sqrt(1.0 + t * t)
            s = t * c
            j = eye.copy()
            j.put(scatter, np.concatenate((c, c, s, -s)))
            av[:n] = j.T @ av[:n]
            av = av @ j
            av.put(scatter[2:], 0.0)
        if not rotated:
            break
    diag = np.ldexp(av.diagonal(), -2 * k)
    order = np.lexsort((-diag, -np.abs(diag)))
    lambdas, vectors = diag[order], np.ascontiguousarray(av[n:, order])
    vectors *= np.where(vectors[np.abs(vectors).argmax(axis=0), np.arange(n)] < 0.0, -1.0, 1.0)
    return lambdas, vectors, sweep, rotations


@st.composite
def jacobi_input(draw):
    """A graded D A D (n = 1..12), a signed diagonal, or either with zeroed
    rows and columns."""
    n = draw(st.integers(1, 12))
    d = 10.0 ** draw(arrays(float, (n,), elements=st.floats(-6.0, 6.0)))
    if draw(st.booleans()):
        a = draw(arrays(float, (n, n), elements=unit))
        m = d[:, None] * (a + a.T) * d
    else:
        m = np.diag(d * draw(arrays(float, (n,), elements=st.sampled_from([1.0, -1.0]))))
    zero = draw(arrays(bool, (n,)))
    m[zero] = m[:, zero] = 0.0
    return m


@st.composite
def threshold_edge(draw):
    """A signed diagonal with one off-diagonal pair at, or one ulp either
    side of, the rotation threshold tol sqrt|a_pp| sqrt|a_qq|."""
    n = draw(st.integers(2, 6))
    d = draw(arrays(float, (n,), elements=st.floats(1e-8, 1e8)))
    m = np.diag(d * draw(arrays(float, (n,), elements=st.sampled_from([1.0, -1.0]))))
    p, q = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    edge = linalg.JACOBI_TOL * np.sqrt(abs(m[p, p])) * np.sqrt(abs(m[q, q]))
    m[p, q] = m[q, p] = draw(st.sampled_from([np.nextafter(edge, 0.0), edge,
                                              np.nextafter(edge, np.inf)]))
    return m


def assert_matches_oracle(m, max_sweeps=linalg.JACOBI_MAX_SWEEPS):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "JACOBI_MAX_SWEEPS", max_sweeps)
        try:
            want = jacobi_oracle(m, max_sweeps)
        except rc.NonConvergence:
            with pytest.raises(rc.NonConvergence):
                rc.jacobi_eigen(m)
            return
        eig = rc.jacobi_eigen(m)
    assert eig.lambdas.tobytes() == want[0].tobytes()
    assert eig.vectors.tobytes() == want[1].tobytes()
    assert (eig.sweeps, eig.rotations) == want[2:]


@given(jacobi_input())
def test_jacobi_bit_identical_to_oracle(m):
    assert_matches_oracle(m)


@given(jacobi_input(), st.integers(0, 3))
@example(np.array([[4.45014771704e-312, 1.407260271004e-312],
                   [1.407260271004e-312, 4.45014771704e-313]]), 1)
@example(np.full((2, 2), 4.4501477170436e-311), 1)
@example(np.full((3, 3), 4.45014771704e-313), 1)
def test_jacobi_raises_with_oracle_under_a_sweep_limit(m, max_sweeps):
    assert_matches_oracle(m, max_sweeps)


@given(threshold_edge())
def test_jacobi_stops_with_oracle_at_the_threshold(m):
    assert_matches_oracle(m)


def power_of_four_range(values, headroom=0):
    """(lo, hi): the j for which every nonzero |value| 4^j is a normal float
    and 2^headroom times the largest is finite. Empty (lo > hi) unless every
    nonzero value is normal itself."""
    mags = np.abs(np.asarray(values, dtype=float).ravel())
    mags = mags[mags > 0.0]
    if not mags.size or mags.min() < sys.float_info.min:
        return 1, 0
    lo = -((1021 + math.frexp(mags.min())[1]) // 2)
    return lo, (1024 - headroom - math.frexp(mags.max())[1]) // 2


@given(jacobi_input() | graded_model().map(lambda case: case[0].interaction.array), st.data())
def test_jacobi_free_of_power_of_four_scale(m, data):
    """Scaling A by 4^j scales every eigenvalue by exactly 4^j and moves no
    bit of the eigenvectors, wherever no entry or eigenvalue is subnormal
    or overflows: for j drawn from [-500, 500], and at both ends of the
    range, where entries come near the smallest normal or the largest
    float."""
    a = rc.SymMatrix(m).array
    eig = rc.jacobi_eigen(a)
    lo, hi = power_of_four_range(np.concatenate((a.ravel(), eig.lambdas)))
    assume(lo <= hi)
    for j in (lo, hi, data.draw(st.integers(max(lo, -500), min(hi, 500)), label="j")):
        got = rc.jacobi_eigen(np.ldexp(a, 2 * j))
        assert got.lambdas.tobytes() == np.ldexp(eig.lambdas, 2 * j).tobytes()
        assert got.vectors.tobytes() == eig.vectors.tobytes()
        assert (got.sweeps, got.rotations) == (eig.sweeps, eig.rotations)


def normal_matrix(variables, terms, seed):
    """Unit-norm-column normal matrix of a seeded 50-row design with an
    intercept and ``terms`` (index tuples) over columns spread across
    the three decades of the emissions totals, as a fit forms it."""
    rng = np.random.default_rng(seed)
    x = 10.0 ** rng.uniform(3.0, 6.0, variables) * rng.uniform(0.5, 1.5, (50, variables))
    design = np.column_stack([np.ones(50)] + [x[:, list(idx)].prod(axis=1) for idx in terms])
    scaled = design / np.sqrt((design * design).sum(axis=0))
    return scaled.T @ scaled


def full_quadratic(variables):
    return ([(i,) for i in range(variables)]
            + [(i, j) for i in range(variables) for j in range(i, variables)])


def graded_mixed(n, seed):
    """D A D, A symmetric standard normal, D over six decades in a seeded order."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, n))
    d = rng.permutation(np.logspace(0.0, -6.0, n))
    return d[:, None] * (x + x.T) * d


# The sizes the benchmark solves: the normal matrices of 8-, 14- and
# 20-term fits (n = 9, 15, 21) and a graded n = 32, 16 pairs per step.
BENCH_SIZE_MATRICES = {
    "normal_9": lambda: normal_matrix(4, [(0,), (1,), (2,), (0, 0), (1, 3), (3, 3), (0, 2),
                                          (0, 3)], 9),
    "normal_15": lambda: normal_matrix(4, full_quadratic(4), 15),
    "normal_21": lambda: normal_matrix(5, full_quadratic(5), 21),
    "graded_32": lambda: graded_mixed(32, 32),
    "eu": lambda: rc.load_bundled_eu_model().interaction.array,
}

# sha256 of lambdas, vectors, sweeps and rotations, recorded from the
# vector-form step that ``jacobi_oracle`` keeps
BENCH_SIZE_DIGESTS = {
    "normal_9": "5f56a01d873fbbfedc70756034a090653879faf3788345924cb5b20963692538",
    "normal_15": "e7b720bf191a3905efd214195f7b27910a4c9eb6ecb3ccedbeab5de57233f95f",
    "normal_21": "f2500c9cd7e2ab2866f1a4322063979b761ca13349dba47438c7f9d888a34f77",
    "graded_32": "bd0b7825a28694d55bb03390ec1cb2d9a3eb3a5dce2fb99d0aa07ada65a40a80",
    "eu": "3860e13bfa119c838d720544466e98350af5f697d345172b96373bfac51650a6",
}


def eigen_digest(eig):
    return hashlib.sha256(eig.lambdas.tobytes() + eig.vectors.tobytes()
                          + f"{eig.sweeps},{eig.rotations}".encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(BENCH_SIZE_MATRICES))
def test_jacobi_bit_identical_to_oracle_at_benchmark_sizes(name):
    assert_matches_oracle(BENCH_SIZE_MATRICES[name]())


@pytest.mark.parametrize("name", sorted(BENCH_SIZE_MATRICES))
def test_jacobi_digest_at_benchmark_sizes(name):
    assert eigen_digest(rc.jacobi_eigen(BENCH_SIZE_MATRICES[name]())) == BENCH_SIZE_DIGESTS[name]


def pairing_oracle(canon):
    """``default_pairing`` without the per-axis prefilter: every
    opposite-sign pair for which ``conversion_rates`` raises none of
    DegeneratePair, NotTwoVariable and NoPositiveBranch."""
    out = []
    for i in range(1, canon.n + 1):
        for j in range(i + 1, canon.n + 1):
            if canon.lambdas[i - 1] * canon.lambdas[j - 1] >= 0.0:
                continue
            try:
                rc.conversion_rates(canon, [(i, j)])
            except (rc.DegeneratePair, rc.NotTwoVariable, rc.NoPositiveBranch):
                continue
            out.append((i, j))
    return out


@st.composite
def block_model(draw):
    """A model whose eigenvectors are a permuted mix of 2 x 2 rotation
    blocks and identity columns, so axes touch one or two variables;
    eigenvalues of mixed sign over three decades."""
    n = draw(st.integers(2, 8))
    q = np.zeros((n, n))
    k = 0
    while k < n:
        if k + 1 < n and draw(st.booleans()):
            theta = draw(st.floats(0.05, 1.5))
            q[k:k + 2, k:k + 2] = [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
            k += 2
        else:
            q[k, k] = 1.0
            k += 1
    q = q[draw(st.permutations(range(n)))]
    lam = (draw(arrays(float, (n,), elements=st.sampled_from([1.0, -1.0])))
           * 10.0 ** draw(arrays(float, (n,), elements=st.floats(-3.0, 0.0))))
    b = (q * lam) @ q.T
    center = draw(arrays(float, (n,), elements=unit))
    return rc.QuadraticModel(tuple(f"x{k}" for k in range(1, n + 1)), 1.0,
                             -2.0 * b @ center, rc.SymMatrix(b), 1.0)


def block_canon():
    return block_model().map(rc.canonicalize)


@given(block_canon())
def test_pairing_equals_oracle_on_block_axes(canon):
    assert tradeoff.default_pairing(canon) == pairing_oracle(canon)


@given(graded_canon())
def test_pairing_equals_oracle_on_dense_axes(case):
    canon = case[0]
    assert tradeoff.default_pairing(canon) == pairing_oracle(canon)


def hyperbolic_pairs(canon):
    lam = canon.lambdas
    return [(i, j) for i, j in itertools.combinations(range(1, canon.n + 1), 2)
            if lam[i - 1] * lam[j - 1] < 0.0]


def band_rates(canon, i, j, bound):
    """(from, to, basis) labels and ratios of the band's marginal rates;
    both empty when no variable pair shares a basis function."""
    rates = rc.marginal_rates(rc.hyperbola_region(canon, i, j, bound))
    return [(r.from_variable, r.to_variable, r.branch) for r in rates], [r.ratio for r in rates]


@given(block_canon().filter(hyperbolic_pairs) | graded_canon().map(lambda case: case[0]),
       st.data())
def test_marginal_rates_free_of_scale(canon, data):
    """The affine coefficients scale by sqrt(M), so the ratios do not
    depend on M: from the smallest subnormal up to any bound the region
    accepts, they match those at M = 1e-8."""
    i, j = data.draw(st.sampled_from(hyperbolic_pairs(canon)), label="pair")
    bound = max(10.0 ** data.draw(st.integers(-324, 308), label="exponent"), 5e-324)
    try:
        labels, ratios = band_rates(canon, i, j, bound)
    except rc.InputError:  # the semiaxes overflow
        assert bound > 1e200
        return
    want_labels, want = band_rates(canon, i, j, 1e-8)
    assert labels == want_labels
    np.testing.assert_allclose(ratios, want, rtol=1e-13)


def two_variable_model(b):
    return rc.QuadraticModel(("x1", "x2"), 1.0, np.zeros(2), rc.SymMatrix(np.array(b)), 1.0)


# Same-sign spectra whose eigenvalue product underflows at scale 1e-300
SAME_SIGN_2X2 = (two_variable_model([[-2.0, 0.5], [0.5, -1.0]]),
                 two_variable_model([[-2.0, 0.0], [0.0, -4.0]]))


def scaled(model, scale):
    """The model with B and beta multiplied by ``scale``."""
    return rc.QuadraticModel(model.names, model.intercept, scale * model.linear,
                             rc.SymMatrix(scale * model.interaction.array), model.exponent)


def distinct_magnitudes(model):
    """|lambda| at least 1e-6 max|lambda| apart. Otherwise B does not fix
    the canonical axes or their order, and rounding may pick others."""
    mags = np.sort(np.abs(np.linalg.eigvalsh(model.interaction.array)))
    return np.diff(mags).min() > 1e-6 * mags[-1]


def sign_outcomes(model):
    """What the sign rule decides: each pair's region kind and whether
    ``iso_slopes`` accepts it, the default pairing, and the region kinds
    that ``run_analysis`` reports."""
    canon = rc.canonicalize(model)
    kinds, accepts = [], []
    for i, j in itertools.combinations(range(1, canon.n + 1), 2):
        kinds.append(rc.region_kind(canon, i, j))
        try:
            rc.iso_slopes(canon, i, j)
        except rc.SameSignPair:
            accepts.append(False)
        else:
            accepts.append(True)
    regions = [section["kind"] for section in rc.run_analysis(model).regions]
    return kinds, accepts, tradeoff.default_pairing(canon), regions


@example(SAME_SIGN_2X2[0], 300)
@example(SAME_SIGN_2X2[1], 300)
@given((st.sampled_from(SAME_SIGN_2X2) | graded_model().map(lambda case: case[0])
        | block_model()).filter(distinct_magnitudes), st.integers(0, 300))
def test_sign_rule_free_of_scale(model, decades):
    """Scaling B and beta by 10^-decades scales every eigenvalue and no
    sign, so nothing that rests on the signs may move, even where the
    product of two eigenvalues underflows."""
    assert sign_outcomes(scaled(model, 10.0 ** -decades)) == sign_outcomes(model)


def without(mapping, key):
    """``mapping`` without ``key``, nor any mapping in a list that it holds."""
    return {k: [without(x, key) if isinstance(x, dict) else x for x in v] if isinstance(v, list)
            else v for k, v in mapping.items() if k != key}


def scale_free_parts(report):
    """The report sections that scaling b0, beta, B and M by one factor must
    not move: all but the model, the bounds, lambda and Y0."""
    return (without(report.canonical, "y0"), without(report.eigen, "eigenvalues"),
            [without(section, "bound") for section in report.regions], report.tradeoff)


@given(st.just((rc.load_bundled_eu_model(), 1e-8)) | graded_model(), st.data())
def test_analysis_free_of_power_of_four_scale(case, data):
    """Scaling b0, beta, B and M by 4^j scales lambda, Y0 and the bounds
    by exactly 4^j and moves no bit of the center, the axes, the regions,
    the slopes or the rates, over every pair, wherever no value on that
    path is subnormal or overflows: an absolute tolerance in any stage
    would break it."""
    model, bound = case
    pairs = list(itertools.combinations(range(1, model.n + 1), 2))
    report = rc.run_analysis(model, pairs=pairs, bound=bound)
    canon = rc.canonicalize(model)
    beta, v = model.linear, canon.axes
    # the inputs and what scales with them: lambda, the products and sums
    # of V'beta in solve, and the terms and sum of beta'w in Y0; a sum of
    # up to six terms takes three bits of headroom
    lo, hi = power_of_four_range(np.concatenate((
        [model.intercept, bound, canon.y0, beta @ canon.center], beta,
        model.interaction.array.ravel(), canon.lambdas, (v * beta[:, None]).ravel(), v.T @ beta,
        beta * canon.center)), headroom=3)
    assume(lo <= hi)
    for j in (lo, hi, data.draw(st.integers(max(lo, -500), min(hi, 500)), label="j")):
        scaled_model = rc.QuadraticModel(
            model.names, math.ldexp(model.intercept, 2 * j), np.ldexp(beta, 2 * j),
            rc.SymMatrix(np.ldexp(model.interaction.array, 2 * j)), model.exponent)
        got = rc.run_analysis(scaled_model, pairs=pairs, bound=math.ldexp(bound, 2 * j))
        assert scale_free_parts(got) == scale_free_parts(report)
        assert got.eigen["eigenvalues"] == np.ldexp(report.eigen["eigenvalues"], 2 * j).tolist()
        assert got.canonical["y0"] == math.ldexp(report.canonical["y0"], 2 * j)
        bounds = {row["bound"] for section in got.regions
                  for row in [section, *section.get("marginal_rates", [])]}
        assert bounds == {math.ldexp(bound, 2 * j)}


def reject_constant(name):
    raise ValueError(f"report JSON holds {name}")


@given(graded_model(), st.data())
def test_accepted_report_json_has_only_finite_numbers(case, data):
    model, bound = case
    bound = data.draw(st.sampled_from([bound, 1, 1e300, sys.float_info.max]) | st.floats()
                      | st.floats(-330.0, 308.0).map(lambda e: 10.0 ** e)
                      | st.integers(-2, 2), label="bound")
    center = data.draw(st.none() | arrays(float, (model.n,), elements=st.floats()), label="center")
    all_pairs = list(itertools.combinations(range(1, model.n + 1), 2))
    pairs = data.draw(st.sampled_from([None, all_pairs]), label="pairs")
    try:
        report = rc.run_analysis(model, pairs=pairs, bound=bound, center=center)
    except rc.InputError:
        return
    json.loads(report.to_json(), parse_constant=reject_constant)


@st.composite
def emissions_csv(draw, max_years=6):
    """Data lines of a per-country emissions CSV and a year exclusion list.
    Cells span six decades; a row may carry one negative cell or a blank
    co2_ppmv cell, and blank rows fall anywhere in the shuffled order."""
    years = draw(st.lists(st.integers(1950, 2010), min_size=1, max_size=max_years, unique=True))
    lines = []
    for year in years:
        co2 = draw(st.floats(250.0, 450.0))
        for country in draw(st.lists(st.sampled_from("ABCD"), min_size=1, max_size=4,
                                     unique=True)):
            values = draw(st.lists(st.floats(1e-2, 1e4), min_size=4, max_size=4))
            negative = draw(st.none() | st.integers(0, 3))
            if negative is not None:
                values[negative] = -values[negative]
            co2_cell = repr(co2) if draw(st.booleans()) else ""
            lines.append(f"{year},{country},{','.join(map(repr, values))},{co2_cell}")
    lines = draw(st.permutations(lines))
    for at in draw(st.lists(st.integers(0, len(lines)), max_size=3)):
        lines.insert(at, draw(st.sampled_from(["", ",,,,,,"])))
    return lines, draw(st.lists(st.sampled_from(years), max_size=2, unique=True))


def emissions_oracle(lines, exclude):
    """Per-year running sums of the kept rows in file order, the co2_ppmv
    of each year, and the line numbers of the negative rows."""
    sums, co2, rejected = {}, {}, []
    for line_no, line in enumerate(lines, start=2):
        if not line.strip(","):
            continue
        year, _, *cells = line.split(",")
        values = [float(cell) for cell in cells[:4]]
        if int(year) in exclude:
            continue
        if min(values) < 0.0:
            rejected.append(line_no)
            continue
        total = sums.setdefault(int(year), [0.0] * 4)
        for k, value in enumerate(values):
            total[k] += value
        if cells[4]:
            co2[int(year)] = float(cells[4])
    years = sorted(sums)
    return (tuple(years), np.reshape([sums[y] for y in years], (-1, 4)),
            tuple(co2.get(y) for y in years), rejected)


@given(emissions_csv())
def test_ingestion_sums_kept_rows_as_a_running_total(tmp_path_factory, case):
    lines, exclude = case
    path = tmp_path_factory.mktemp("emissions") / "e.csv"
    path.write_text("year,country,liquid,gas,gas_flares,bunker,co2_ppmv\n"
                    + "\n".join(lines) + "\n")
    rejected, totals = rc.load_emissions(path, exclude_years=exclude)
    years, values, co2, rejected_lines = emissions_oracle(lines, exclude)
    assert totals.years == years and totals.co2_ppmv == co2
    assert totals.values.shape == values.shape
    assert totals.values.tobytes() == values.tobytes()
    assert [line for line, _ in rejected] == rejected_lines


@given(emissions_csv(max_years=20),  # enough years for some draws to fit
       st.lists(st.sampled_from(full_quadratic(4)), min_size=1, max_size=4, unique=True),
       st.sampled_from([1.0, -2.376]))
def test_fit_emissions_is_the_hand_path(tmp_path_factory, case, terms, exponent):
    # the hand path fits the ingestion oracle's years that carry co2_ppmv
    lines, exclude = case
    path = tmp_path_factory.mktemp("emissions") / "e.csv"
    path.write_text("year,country,liquid,gas,gas_flares,bunker,co2_ppmv\n"
                    + "\n".join(lines) + "\n")
    years, values, co2, _ = emissions_oracle(lines, exclude)
    kept = [k for k, c in enumerate(co2) if c is not None]
    rejected, _ = rc.load_emissions(path, exclude_years=exclude)
    try:
        want = rc.ols_fit(rc.Dataset(values[kept], np.array([co2[k] for k in kept]),
                                     EMISSIONS_NAMES), terms, exponent, response_label="CO2 ppmv")
    except rc.RsmError as exc:
        want = exc
    if not years:
        want = rc.InputError(f"{path}: no year left to fit; years excluded: {sorted(exclude)}, "
                             f"rows rejected: {len(rejected)}")
    elif not kept:
        want = rc.InputError(f"{path}: no rows carry a co2_ppmv response")
    if isinstance(want, rc.RsmError):
        with pytest.raises(type(want)) as err:
            rc.fit_emissions(path, terms, exponent, exclude_years=exclude)
        assert type(err.value) is type(want) and str(err.value) == str(want)
        return
    got = rc.fit_emissions(path, terms, exponent, exclude_years=exclude)

    def record(fit):
        numbers = [fit.model.intercept, fit.sse,
                   *(v for s in fit.term_stats for v in (s.coefficient, s.f_value))]
        return (np.array(numbers).tobytes(), [s.label for s in fit.term_stats], fit.ranking,
                fit.model.response_label)

    assert record(got) == record(want)
    assert got.years == tuple(years[k] for k in kept)
    assert got.dropped_years == tuple(y for y, c in zip(years, co2) if c is None)
    assert got.rejected == rejected


# JSON trees for the indented writer, with str keys as its callers build
# them: every leaf kind json.dumps renders (signed zeros, subnormals, NaN,
# infinities, a float subclass, ints past 2**53, escapes and non-ASCII),
# lists long enough to take the one-join path for finite floats, and leaves
# json.dumps refuses: objects it cannot encode, an int past its digit limit
json_floats = st.floats() | st.sampled_from([0.0, -0.0, 5e-324, -2.2e-308, math.inf, -math.inf,
                                             math.nan]) | st.floats().map(np.float64)
json_strings = st.text() | st.text(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\xe9\u2028\U0001f600'))
json_leaves = (st.none() | st.booleans() | st.integers() | st.integers(-2 ** 70, 2 ** 70)
               | json_floats | json_strings)
json_trees = st.recursive(
    json_leaves | st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=40),
    lambda children: (st.lists(children, max_size=6) | st.tuples(children, children)
                      | st.dictionaries(json_strings, children, max_size=6)),
    max_leaves=40)
unencodable = (st.sampled_from([object(), frozenset({1}), b"x", np.int64(3)])
               | st.integers(4300, 4400).map(lambda digits: 10 ** digits))
awkward_trees = st.recursive(
    json_leaves | unencodable,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(
        json_strings, children, max_size=4),
    max_leaves=12)


@given(json_trees | awkward_trees)
@example([0.0, -0.0, 5e-324, -2.2e-308, math.nan, math.inf, -math.inf, 1.5, np.float64(-0.0),
          2 ** 53 + 1, -(2 ** 64), True, False, None, "\xe9\u2028\x00\"\\/\U0001f600"])
@example({"b": [1.0, -0.0, 5e-324], "a": {"": [], "c": {}}, "\xe9": (1, [2.5, math.nan])})
@example({"b": {"1": 2.0, "3": None}, "a": [{"c": np.float64(1e-310)}]})
@example({"b": [1.0, object()], "a": 1.0})
def test_json_text_is_json_dumps_byte_for_byte(tree):
    try:
        want = json.dumps(tree, indent=2, sort_keys=True)
    except Exception as exc:  # the writer raises what json.dumps raises
        with pytest.raises(Exception) as err:
            json_text(tree)
        assert type(err.value) is type(exc)
    else:
        assert json_text(tree) == want


@given(graded_model())
def test_report_and_model_file_are_json_dumps_bytes(tmp_path_factory, case):
    model, bound = case
    report = rc.run_analysis(model, bound=bound)
    assert report.to_json() == json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
    path = tmp_path_factory.mktemp("model") / "m.json"
    rc.save_model(model, path)
    text = path.read_text()
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
