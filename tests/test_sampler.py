"""Property tests of the readout sampler (both envelope constructions) on random mixtures.

Mixtures have random complex weights, 1-2 axes and coupling/width from 1e-4
to 1e2.  The pair expansion is recomputed here from its definition, so the
envelopes and their acceptance formulas are checked against code the
sampler does not share; ``mixture_density`` (the amplitude form the sampler
accepts against) is checked against that expansion too.  Sample moments are
checked against ``mixture_moments`` and the quadrature oracle.
"""

import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from cheshire import Axis, PointerMixture, mixture_density, mixture_moments  # noqa: E402
from cheshire.montecarlo import _Envelope, _select_envelope  # noqa: E402
from oracles import quadrature_grid, quadrature_moments  # noqa: E402

PROPERTY_SETTINGS = settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
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
    weights = tuple(complex(w) for w in weights)
    widths = (width,) * n_axes
    # Skip (near-)null post-selections before building: their normalization
    # is all rounding, and a mixture of zero norm raises when built.
    products = pair_products(weights, displacements, widths)
    assume(products.sum() > 1e-8 * np.abs(products).sum())
    return PointerMixture(
        weights=weights,
        displacements=tuple(displacements),
        widths=widths,
        axes=(Axis.VERTICAL, Axis.HORIZONTAL)[:n_axes],
    )


def pair_products(weights, displacements, widths):
    """Re(conj(w_i) w_j O_ij) for every ordered pair (i, j)."""
    w = np.asarray(weights)
    d = np.asarray(displacements, dtype=float)
    s = np.asarray(widths)
    overlap = np.exp(-np.sum((d[:, None] - d[None, :]) ** 2 / (8 * s**2), axis=-1))
    return (np.conj(w)[:, None] * w[None, :] * overlap).real


def pair_terms(mixture):
    """Re c_ij, m_ij and the widths, for every ordered pair (i, j), from the definition."""
    d = np.asarray(mixture.displacements, dtype=float)
    products = pair_products(mixture.weights, mixture.displacements, mixture.widths)
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


def constructions(mixture):
    return [_Envelope.midpoint(mixture), _Envelope.centre(mixture)]


def check_gaussian_sum_dominates(envelope, mixture, seed):
    """E is the Gaussian sum of its a, mu, sigma, dominates f, and has the stated acceptance.

    Returns the probe points and the signed pair expansion f there, or None
    for an infinite bound, which has no finite E to compare.
    """
    coefficients, midpoints, widths = pair_terms(mixture)
    peak = np.abs(coefficients).sum() * np.prod(1.0 / np.sqrt(2 * np.pi * widths**2))
    # f is the signed pair expansion, in the amplitude form the sampler accepts against.
    points = probe_points(mixture, seed)
    kernels = gaussian(points, midpoints, widths)
    density = kernels @ coefficients
    scale = kernels @ np.abs(coefficients)
    np.testing.assert_allclose(mixture_density(mixture, points), density, rtol=0, atol=1e-9 * scale.max())
    assert 0.0 <= envelope.acceptance <= 1.0
    if envelope.acceptance == 0.0:
        return None
    assert envelope.acceptance == pytest.approx(expected_acceptance(envelope, mixture), rel=1e-12)
    # Probes around each component out to 8 proposal widths, and around the branches.
    rng = np.random.default_rng(seed)
    scale = envelope.sigma * widths
    means = envelope.means[rng.integers(0, len(envelope.means), 400)]
    directions = rng.standard_normal(means.shape)
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    radii = np.concatenate([np.abs(rng.standard_normal(200)), rng.uniform(0.0, 8.0, 200)])
    points = np.concatenate([means + scale * radii[:, None] * directions, points])
    density = gaussian(points, midpoints, widths) @ coefficients
    expected = gaussian(points, envelope.means, scale) @ envelope.weights
    np.testing.assert_allclose(envelope.evaluate(points), expected, rtol=1e-12, atol=0)
    assert np.all(density <= expected * (1.0 + 1e-9) + 1e-9 * peak)
    return points, density


@PROPERTY_SETTINGS
@given(mixtures(), st.integers(0, 2**32))
def test_envelope_dominates_termwise(mixture, seed):
    coefficients, midpoints, widths = pair_terms(mixture)
    envelope = _Envelope.midpoint(mixture)
    assert envelope.name == "midpoint" and envelope.sigma == 1.0
    assert envelope.acceptance > 0.0
    points, density = check_gaussian_sum_dominates(envelope, mixture, seed)
    # E drops exactly the negative terms of f.
    kernels = gaussian(points, midpoints, widths)
    scale = kernels @ np.abs(coefficients)
    dropped = kernels @ np.maximum(-coefficients, 0.0)
    gap = envelope.evaluate(points) - density
    np.testing.assert_allclose(gap, dropped, rtol=0, atol=1e-9 * scale.max())
    assert np.all(gap >= -1e-12 * scale)
    # E dominates the f the sampler accepts against, not only the expansion.
    assert np.all(envelope.evaluate(points) - mixture_density(mixture, points) >= -1e-12 * scale)


@PROPERTY_SETTINGS
@given(mixtures(), st.integers(0, 2**32))
def test_centre_envelope_dominates(mixture, seed):
    envelope = _Envelope.centre(mixture)
    assert envelope.name == "centre"
    # One Gaussian, wider than a branch, around the |w_i|-weighted mean of the displacements.
    assert envelope.sigma > 1.0 and envelope.weights.shape == (1,)
    d = np.asarray(mixture.displacements, dtype=float)
    magnitudes = np.abs(mixture.weights)
    centre = magnitudes @ d / magnitudes.sum()
    np.testing.assert_allclose(envelope.means[0], centre, rtol=1e-12, atol=1e-12 * np.abs(d).max())
    assume(envelope.acceptance > 0.0)
    check_gaussian_sum_dominates(envelope, mixture, seed)


def test_centre_envelope_with_an_infinite_bound_builds_silently():
    # Two far-apart branches: every log M overflows, so M is infinite.
    mixture = PointerMixture(
        weights=(1.0, 1.0), displacements=((0.0,), (1e200,)), widths=(1.0,), axes=(Axis.VERTICAL,)
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        envelope = _Envelope.centre(mixture)
    assert envelope.acceptance == 0.0
    assert envelope.weights.tolist() == [np.inf]


@PROPERTY_SETTINGS
@given(mixtures())
def test_selected_envelope_has_the_higher_acceptance(mixture):
    midpoint, centre = constructions(mixture)
    selected = _select_envelope(mixture)
    assert selected.acceptance == max(midpoint.acceptance, centre.acceptance)
    assert selected.name == ("centre" if centre.acceptance > midpoint.acceptance else "midpoint")


def expected_acceptance(envelope, mixture):
    """1 / sum max(Re c_ij, 0) from the definition for the midpoint envelope, 1 / M for the centre one."""
    if envelope.name == "midpoint":
        coefficients, _, _ = pair_terms(mixture)
        return 1.0 / np.maximum(coefficients, 0.0).sum()
    return 1.0 / envelope.weights[0]


def envelopes_under_test(mixture):
    """Both envelopes of ``mixture``, leaving out those that would need too many proposals."""
    envelopes = [envelope for envelope in constructions(mixture) if envelope.acceptance >= MIN_TESTED_ACCEPTANCE]
    assume(envelopes)
    return envelopes


@PROPERTY_SETTINGS
@given(mixtures(), st.integers(0, 2**64 - 1))
def test_acceptance_formula_matches_measured_rate(mixture, seed):
    n = 4000
    for envelope in envelopes_under_test(mixture):
        _, attempts = envelope.sample(seed, np.arange(n, dtype=np.uint64))
        p = envelope.acceptance
        assert p == pytest.approx(expected_acceptance(envelope, mixture), rel=1e-12)
        sigma = np.sqrt(p * (1 - p) / attempts)  # 0 when every proposal must be accepted
        assert abs(n / attempts - p) <= 5 * sigma + 1e-12


@PROPERTY_SETTINGS
@given(mixtures(), st.integers(0, 2**64 - 1))
def test_sample_moments_match_closed_form_and_quadrature(mixture, seed):
    envelopes = envelopes_under_test(mixture)
    closed = mixture_moments(mixture)
    grid_size = np.prod([len(g) for g in quadrature_grid(mixture, QUADRATURE_STEPS)])
    quadrature = None
    if grid_size <= MAX_QUADRATURE_POINTS:
        _, means, variances = quadrature_moments(
            mixture, lambda pts: mixture_density(mixture, pts), QUADRATURE_STEPS
        )
        quadrature = list(zip(means, variances))
    n = 20_000
    for envelope in envelopes:
        readouts, _ = envelope.sample(seed, np.arange(10**6, 10**6 + n, dtype=np.uint64))
        assert np.isfinite(readouts).all()
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
