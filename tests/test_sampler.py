"""Property tests of the midpoint-envelope readout sampler on random mixtures.

Mixtures have random complex weights, 1-2 axes and coupling/width from 1e-4
to 1e2.  The pair expansion is recomputed here from its definition, so the
envelope and its acceptance formula are checked against code the sampler
does not share; ``mixture_density`` (the amplitude form the sampler accepts
against) is checked against that expansion too.  Sample moments are checked
against ``mixture_moments`` and the quadrature oracle.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from cheshire import Axis, PointerMixture, mixture_density, mixture_moments  # noqa: E402
from cheshire.montecarlo import _MidpointEnvelope  # noqa: E402
from oracles import quadrature_grid, quadrature_moments  # noqa: E402

PROPERTY_SETTINGS = settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
#: Statistical checks skip mixtures that would need too many proposals.
MIN_TESTED_ACCEPTANCE = 0.05
#: Quadrature steps per pointer width; the trapezoid rule is spectrally
#: accurate on Gaussians, so s/10 already resolves the moments to ~1e-12.
QUADRATURE_STEPS = 10
#: Largest quadrature grid the moment check evaluates.
MAX_QUADRATURE_POINTS = 100_000


@st.composite
def mixtures(draw):
    n_axes = draw(st.integers(1, 2))
    n_branches = draw(st.integers(1, 4))
    g_over_s = 10.0 ** draw(st.floats(-4.0, 2.0))
    width = draw(st.floats(0.5, 2.0))
    weights = [
        draw(st.floats(0.05, 1.0)) * np.exp(1j * draw(st.floats(0.0, 2 * np.pi)))
        for _ in range(n_branches)
    ]
    steps = st.integers(-2, 2)
    displacements = [
        tuple(g_over_s * width * draw(steps) for _ in range(n_axes)) for _ in range(n_branches)
    ]
    mixture = PointerMixture(
        weights=tuple(complex(w) for w in weights),
        displacements=tuple(displacements),
        widths=(width,) * n_axes,
        axes=(Axis.VERTICAL, Axis.HORIZONTAL)[:n_axes],
    )
    # Skip (near-)null post-selections: their normalization is all rounding.
    products = pair_products(mixture)
    assume(products.sum() > 1e-8 * np.abs(products).sum())
    return mixture


def pair_products(mixture):
    """Re(conj(w_i) w_j O_ij) for every ordered pair (i, j)."""
    w = np.asarray(mixture.weights)
    d = np.asarray(mixture.displacements, dtype=float)
    s = np.asarray(mixture.widths)
    overlap = np.exp(-np.sum((d[:, None] - d[None, :]) ** 2 / (8 * s**2), axis=-1))
    return (np.conj(w)[:, None] * w[None, :] * overlap).real


def pair_terms(mixture):
    """Re c_ij, m_ij and the widths, for every ordered pair (i, j), from the definition."""
    d = np.asarray(mixture.displacements, dtype=float)
    products = pair_products(mixture)
    midpoints = 0.5 * (d[:, None] + d[None, :])
    return (products / products.sum()).ravel(), midpoints.reshape(-1, d.shape[1]), np.asarray(mixture.widths)


def gaussian(points, means, widths):
    """N(x; m, s^2) for every point (rows) and mean (columns)."""
    delta = points[:, None, :] - means[None, :, :]
    norm = np.prod(1.0 / np.sqrt(2 * np.pi * widths**2))
    return norm * np.exp(-np.sum(delta**2 / (2 * widths**2), axis=-1))


def probe_points(mixture, seed):
    rng = np.random.default_rng(seed)
    d = np.asarray(mixture.displacements, dtype=float)
    s = np.asarray(mixture.widths)
    centres = d[rng.integers(0, len(d), 400)]
    return centres + 3.0 * s * rng.standard_normal(centres.shape)


@PROPERTY_SETTINGS
@given(mixtures(), st.integers(0, 2**32))
def test_envelope_dominates_termwise(mixture, seed):
    coefficients, midpoints, widths = pair_terms(mixture)
    envelope = _MidpointEnvelope(mixture)
    points = probe_points(mixture, seed)
    kernels = gaussian(points, midpoints, widths)
    density = mixture_density(mixture, points)
    scale = kernels @ np.abs(coefficients)
    # f is the signed pair expansion, and E drops exactly its negative terms.
    np.testing.assert_allclose(kernels @ coefficients, density, rtol=0, atol=1e-9 * scale.max())
    dropped = kernels @ np.maximum(-coefficients, 0.0)
    gap = envelope.envelope(points) - density
    np.testing.assert_allclose(gap, dropped, rtol=0, atol=1e-9 * scale.max())
    assert np.all(gap >= -1e-12 * scale)
    assert envelope.acceptance == pytest.approx(1.0 / np.maximum(coefficients, 0.0).sum(), rel=1e-12)
    assert 0.0 < envelope.acceptance <= 1.0


@PROPERTY_SETTINGS
@given(mixtures(), st.integers(0, 2**64 - 1))
def test_acceptance_formula_matches_measured_rate(mixture, seed):
    coefficients, _, _ = pair_terms(mixture)
    envelope = _MidpointEnvelope(mixture)
    assume(envelope.acceptance >= MIN_TESTED_ACCEPTANCE)
    n = 4000
    _, attempts = envelope.sample(seed, np.arange(n, dtype=np.uint64))
    p = envelope.acceptance
    assert p == pytest.approx(1.0 / np.maximum(coefficients, 0.0).sum(), rel=1e-12)
    sigma = np.sqrt(p * (1 - p) / attempts)  # 0 when every proposal must be accepted
    assert abs(n / attempts - p) <= 5 * sigma + 1e-12


@PROPERTY_SETTINGS
@given(mixtures(), st.integers(0, 2**64 - 1))
def test_sample_moments_match_closed_form_and_quadrature(mixture, seed):
    coefficients, _, _ = pair_terms(mixture)
    envelope = _MidpointEnvelope(mixture)
    assume(envelope.acceptance >= MIN_TESTED_ACCEPTANCE)
    n = 20_000
    readouts, _ = envelope.sample(seed, np.arange(10**6, 10**6 + n, dtype=np.uint64))
    assert np.isfinite(readouts).all()
    closed = mixture_moments(mixture)
    grid_size = np.prod([len(g) for g in quadrature_grid(mixture, QUADRATURE_STEPS)])
    quadrature = None
    if grid_size <= MAX_QUADRATURE_POINTS:
        _, means, variances = quadrature_moments(
            mixture, lambda pts: mixture_density(mixture, pts), QUADRATURE_STEPS
        )
        quadrature = list(zip(means, variances))
    for k, axis in enumerate(mixture.axes):
        values = readouts[:, k]
        mean, variance = values.mean(), values.var()
        fourth = np.mean((values - mean) ** 4)
        mean_tol = 5 * np.sqrt(variance / n)
        variance_tol = 5 * np.sqrt(max(fourth - variance**2, 0.0) / n)
        references = [(closed[axis].mean, closed[axis].variance)]
        if quadrature is not None:
            references.append(quadrature[k])
        for ref_mean, ref_variance in references:
            assert abs(mean - ref_mean) <= mean_tol + 1e-12
            assert abs(variance - ref_variance) <= variance_tol + 1e-12
