"""Property tests for the boundary sampler and the stage contracts on
random graded models.

The strategies build B = Q diag(lambda) Q' from a random orthogonal Q,
with mixed eigenvalue signs and |lambda| graded over four decades at
the EU model's scale (about 1e-16). The stationary point sits up to
1e4 semiaxes from the origin; the EU center is about 87 semiaxes out
at M = 1e-8, and 8,700 at M = 1e-12. Every row of ``boundary_points``
and ``emit_plot_csv`` is checked against the conic it should lie on.
A wider grading, down to 1e-13 max|lambda| across the 1e-9 degeneracy
cutoff, checks that a model ``canonicalize`` accepts passes the later
stages too.
"""

import io

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import rsmcanon as rc

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
    points = rc.boundary_points(region, count, t_max)
    assert len(points) == count
    z = np.array([zk for _, zk, _ in points])
    check_rows(canon, region, z, np.array([xk for _, _, xk in points]))


@given(regions(), samples)
def test_plot_csv_rows_lie_on_the_conic(case, sample):
    canon, region = case
    count, t_max = sample
    rows = np.loadtxt(io.StringIO(rc.emit_plot_csv(region, count, t_max)),
                      delimiter=",", skiprows=1, ndmin=2)
    assert len(rows) == (count if region.kind.is_elliptical else 2 * count)
    check_rows(canon, region, rows[:, 2:4], rows[:, 4:])


@given(regions(), st.floats(1e-3, 1e3))
def test_semiaxes_scale_as_root_bound(case, factor):
    canon, region = case
    build = rc.ellipse_region if region.kind.is_elliptical else rc.hyperbola_region
    scaled = build(canon, *region.pair, region.bound * factor ** 2)
    np.testing.assert_allclose(scaled.semiaxes, np.multiply(region.semiaxes, factor),
                               rtol=1e-12)


@st.composite
def spread_model(draw):
    """A graded model whose smallest |lambda| lies 4 to 13 decades below
    the largest, with an added linear term unrelated to B."""
    model, _ = draw(graded_model(draw(st.floats(4.0, 13.0))))
    extra = draw(arrays(float, (model.n,), elements=unit))
    linear = model.linear + LAMBDA_SCALE * 1e8 * extra
    return rc.QuadraticModel(model.names, 1.0, linear, model.interaction, 1.0)


@given(spread_model())
def test_what_canonicalize_accepts_later_stages_accept(model):
    try:
        canon = rc.canonicalize(model)
    except rc.SingularMatrix:
        assert rc.degenerate_axes(rc.jacobi_eigen(model.interaction).lambdas)
        return
    rc.run_analysis(model, pairing=[])  # default region pairs; no NumericalError
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
