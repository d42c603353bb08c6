"""Seeded input generators for the benchmark workloads.

Everything here depends only on numpy and a seed, never on rsmcanon,
so the inputs a workload hands to the program are fixed before the
program runs. The same seed gives byte-identical CSV text and
bit-identical arrays.

Scales follow the bundled EU CO2 model: quadratic coefficients near
1e-16, emissions totals from 1e3 to 1e6, and a transformed response
near 1.1e-6 under the exponent -2.376.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

EXPONENT = -2.376
EMISSIONS_NAMES = ("Li", "Ga", "Fl", "Bu")
# Paper's term list over (Li, Ga, Fl, Bu): Li,Ga,Fl,Li:Li,Ga:Bu,Bu:Bu,Li:Fl,Li:Bu.
PAPER_TERMS = ((0,), (1,), (2,), (0, 0), (1, 3), (3, 3), (0, 2), (0, 3))
PAPER_TERMS_TEXT = "Li,Ga,Fl,Li:Li,Ga:Bu,Bu:Bu,Li:Fl,Li:Bu"
YEARS = tuple(range(1959, 2009))
COUNTRIES = ("Arland", "Borvia", "Celesta", "Dornia", "Estmark", "Fenholm")
# Yearly-total ranges per variable, centred on the EU worked example.
TOTAL_RANGES = ((2.5e5, 8.0e5), (1.0e5, 4.5e5), (3.0e3, 1.4e4), (3.0e4, 1.3e5))
EXTRA_NAME = "Ce"
EXTRA_RANGE = (1.0e4, 5.0e4)
CO2_NOISE = 1e-3
Y0 = 1.1e-6
EIGEN_SCALE = 1.4e-16


def rng_for(seed: int, stream: str) -> np.random.Generator:
    """Independent generator per input kind, so adding one kind never
    shifts the draws of another."""
    return np.random.default_rng([int(seed), zlib.crc32(stream.encode())])


def full_quadratic(n: int) -> tuple[tuple[int, ...], ...]:
    """All linear, square and interaction terms over n variables."""
    return tuple([(i,) for i in range(n)]
                 + [(i, j) for i in range(n) for j in range(i, n)])


def term_columns(x: np.ndarray, terms) -> np.ndarray:
    """Design matrix with a leading intercept column."""
    cols = [np.ones(x.shape[0])]
    for idx in terms:
        cols.append(x[:, idx[0]] if len(idx) == 1 else x[:, idx[0]] * x[:, idx[1]])
    return np.column_stack(cols)


@dataclass(frozen=True)
class Emissions:
    """A per-country emissions CSV and the yearly totals behind it."""

    csv_text: str
    totals: np.ndarray       # (years, 4), summed in file order
    co2: np.ndarray          # (years,)
    extra: np.ndarray        # (years,) fifth variable for the p = 20 fit


def emissions(seed: int) -> Emissions:
    """EU-shaped emissions whose co2_ppmv follows a known quadratic law.

    The yearly totals are one fixed history, the same for every seed:
    Jacobi's sweep count on the normal matrices, and with it the cost
    of a fit, depends on the design alone and varied by up to 2x
    between random designs. The seed draws the response law, the noise
    and the split across countries, so the files and the fitted
    coefficients still differ from seed to seed.

    The transformed response co2**-2.376 is a quadratic in the paper's
    eight terms; each term contributes a comparable share of the
    year-to-year variation. co2 then carries 0.1% multiplicative noise,
    so the fit has a finite, well-defined residual.
    """
    lo = np.array([r[0] for r in TOTAL_RANGES])
    hi = np.array([r[1] for r in TOTAL_RANGES])
    history = rng_for(0, "emissions/history")
    totals_gen = lo + (hi - lo) * history.random((len(YEARS), 4))
    extra = history.uniform(*EXTRA_RANGE, size=len(YEARS))
    design = term_columns(totals_gen, PAPER_TERMS)[:, 1:]
    rng = rng_for(seed, "emissions")
    while True:
        spread = design.std(axis=0)
        coef = 6e-8 / spread * rng.choice((-1.0, 1.0), size=spread.size) \
            * rng.uniform(0.5, 1.5, size=spread.size)
        intercept = Y0 - float(design.mean(axis=0) @ coef)
        transformed = intercept + design @ coef
        if transformed.min() > 0.3 * Y0:
            break
    co2 = transformed ** (1.0 / EXPONENT) * (1.0 + CO2_NOISE * rng.standard_normal(len(YEARS)))

    lines = ["year,country,liquid,gas,gas_flares,bunker,co2_ppmv"]
    totals = np.zeros_like(totals_gen)
    for y, year in enumerate(YEARS):
        shares = rng.dirichlet(np.full(len(COUNTRIES), 4.0))
        for c, country in enumerate(COUNTRIES):
            values = [float(v) for v in totals_gen[y] * shares[c]]
            totals[y] += np.asarray(values)
            co2_cell = repr(float(co2[y])) if c == 0 else ""
            lines.append(f"{year},{country}," + ",".join(repr(v) for v in values)
                         + f",{co2_cell}")
    return Emissions(csv_text="\n".join(lines) + "\n", totals=totals,
                     co2=np.array([float(v) for v in co2]), extra=extra)


@dataclass(frozen=True)
class SyntheticModel:
    """Arrays of a quadratic model with a prescribed eigenstructure."""

    names: tuple[str, ...]
    intercept: float
    linear: np.ndarray
    interaction: np.ndarray
    center: np.ndarray
    paired: bool
    pairs: tuple[tuple[int, int], ...] = ()   # variables of each trading block


def _random_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _trading_rotation(rng: np.random.Generator, lam_pair: np.ndarray) -> np.ndarray:
    """2x2 eigenvector block whose zero-response lines include one with
    a clearly positive exchange ratio between its two variables.

    lambda_1 z_1^2 + lambda_2 z_2^2 = 0 along z_1 = +-s z_2 with
    s = sqrt(|lambda_2/lambda_1|); a trade exists when one of those
    lines, mapped back through the block, raises both variables.
    """
    slope = np.sqrt(abs(lam_pair[1] / lam_pair[0]))
    while True:
        theta = rng.uniform(0.1, np.pi - 0.1)
        if abs(theta - np.pi / 2) < 0.1:
            continue
        c, s = np.cos(theta), np.sin(theta)
        block = np.array([[c, -s], [s, c]])
        for sign in (1.0, -1.0):
            xa, xb = block @ np.array([sign * slope, 1.0])
            if xa * xb > 0.0 and min(abs(xa), abs(xb)) > 0.05 * np.hypot(xa, xb):
                return block


def graded_model(rng: np.random.Generator, n: int, paired: bool) -> SyntheticModel:
    """Model whose interaction matrix has a graded, mixed-sign spectrum.

    |lambda| runs over four decades (logspace 1 .. 1e-4 times 1.4e-16),
    the graded case of Demmel & Veselic where Jacobi's relative
    accuracy matters. When ``paired``, one opposite-sign eigenvector
    pair touches exactly two variables (for n = 4 both pairs do) and
    admits a positive trade, so the M = 0 conversion rates have work
    to do; the other eigenvectors are dense. The stationary point sits
    at EU-scale coordinates.
    """
    mags = np.logspace(0.0, -4.0, n) * EIGEN_SCALE
    rng.shuffle(mags)
    signs = rng.choice((-1.0, 1.0), size=n)
    signs[0], signs[1] = 1.0, -1.0     # mixed spectrum, first pair opposite
    if n >= 4:
        signs[3] = -signs[2]
    lam = signs * mags
    perm = rng.permutation(n)
    q = np.zeros((n, n))
    pairs: tuple[tuple[int, int], ...] = ()
    if paired:
        q[np.ix_(perm[:2], [0, 1])] = _trading_rotation(rng, lam[:2])
        pairs = ((int(perm[0]), int(perm[1])),)
        if n == 4:
            q[np.ix_(perm[2:], [2, 3])] = _trading_rotation(rng, lam[2:])
            pairs += ((int(perm[2]), int(perm[3])),)
        else:
            q[np.ix_(perm[2:], np.arange(2, n))] = _random_orthogonal(rng, n - 2)
    else:
        q[:, :] = _random_orthogonal(rng, n)
    interaction = (q * lam) @ q.T
    interaction = (interaction + interaction.T) / 2.0
    return _centered(rng, interaction, paired, pairs)


def _centered(rng: np.random.Generator, interaction: np.ndarray, paired: bool,
              pairs: tuple[tuple[int, int], ...]) -> SyntheticModel:
    """Model with this interaction matrix and a seeded stationary point
    at EU-scale coordinates."""
    n = interaction.shape[0]
    center = np.exp(rng.uniform(np.log(1e3), np.log(6e5), size=n))
    linear = -2.0 * interaction @ center
    intercept = Y0 + float(center @ interaction @ center)
    names = tuple(f"x{k + 1:02d}" for k in range(n))
    return SyntheticModel(names, intercept, linear, interaction, center, paired, pairs)


def resigned(rng: np.random.Generator, base: SyntheticModel) -> SyntheticModel:
    """``base`` with each variable's sign drawn from ``rng``, and a new
    stationary point.

    A change of variable signs is the similarity D B D with D = diag(+-1).
    The spectrum and the magnitude of every entry stay, so Jacobi makes
    exactly the same rotations, and the work of an analysis does not
    depend on the seed. Both variables of a trading block take one sign,
    which keeps the trade's exchange ratio positive.
    """
    d = rng.choice((-1.0, 1.0), size=base.interaction.shape[0])
    for a, b in base.pairs:
        d[b] = d[a]
    return _centered(rng, base.interaction * np.outer(d, d), base.paired, base.pairs)


# (n, paired) of the canon_scan models, each drawn CANON_DRAWS times.
CANON_MODELS = ((4, True), (4, False), (8, True), (8, False), (16, True), (32, False))
CANON_DRAWS = 4
# Each (n, paired) has one eigenstructure, drawn from this fixed seed;
# --seed draws every model's variable signs and stationary point (see
# ``resigned``). All draws of a size then cost the same, so the median
# and the tail each sit inside a class of equal ops. With one
# eigenstructure per draw, a Jacobi call at n = 32 took from 59 to
# 100 ms depending on the draw, and the tail fell between draws.
CANON_STRUCTURE_SEED = 0


def canon_models(seed: int) -> list[SyntheticModel]:
    """CANON_DRAWS rounds of the CANON_MODELS, in that order."""
    structure = rng_for(CANON_STRUCTURE_SEED, "canon_scan")
    bases = [graded_model(structure, n, paired) for n, paired in CANON_MODELS]
    rng = rng_for(seed, "canon_scan")
    return [resigned(rng, base) for _ in range(CANON_DRAWS) for base in bases]


def surface_model(seed: int) -> SyntheticModel:
    return graded_model(rng_for(seed, "surface_eval"), 8, False)


def point_batch(rng: np.random.Generator, center: np.ndarray, lambdas: np.ndarray,
                axes: np.ndarray, bound: float, count: int) -> np.ndarray:
    """Points around ``center`` whose canonical coordinates have spread
    0.6 sqrt(M/|lambda|), so that about half to three quarters fall
    inside |Y - Y0| <= M."""
    z = rng.standard_normal((count, lambdas.size)) * np.sqrt(bound / np.abs(lambdas)) * 0.6
    return center + z @ axes.T
