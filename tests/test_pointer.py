import numpy as np
import pytest

from cheshire import (
    Axis,
    Detector,
    DuplicateAxis,
    Experiment,
    GaussianPointer,
    NullPostSelection,
    PointerMixture,
    SpectralObservable,
    abl_distribution,
    analyze,
    mixture_density,
    mixture_moments,
    observable_operator,
    weak_value,
)
from cheshire import montecarlo, qstate
from cheshire.cli import PRESETS
from cheshire.montecarlo import _Envelope
from cheshire.optics import detector_projectors
from cheshire.pointer import _overlap_matrix, weak_limit_error
from cheshire.qstate import ATOL, Ket, normalize
from oracles import (
    lobe_masses,
    loop_branches,
    plain_envelope,
    plain_mixture_density,
    plain_overlap_matrix,
    plain_weak_limit_error,
    postselected_weights,
    quadrature_moments,
)
from oracles import weak_limit_error as oracle_weak_limit_error

SQ2 = np.sqrt(2.0)


def vertical(g, s=1.0):
    return GaussianPointer(width=s, coupling=g, axis=Axis.VERTICAL)


def horizontal(g, s=1.0):
    return GaussianPointer(width=s, coupling=g, axis=Axis.HORIZONTAL)


def gaussian_density(x, center, s):
    return np.exp(-((x - center) ** 2) / (2 * s**2)) / np.sqrt(2 * np.pi * s**2)


def postselected(pre, *couplings):
    """The D1 mixture and P(D1) of ``pre`` coupled to (observable, pointer) pairs in order."""
    analysis = analyze(Experiment(pre=pre, couplings=couplings))
    return analysis.mixture, analysis.detector_probabilities[Detector.D1]


def total_probability(pre, *couplings):
    return sum(analyze(Experiment(pre=pre, couplings=couplings)).detector_probabilities.values())


# --- coupling ---------------------------------------------------------------


def test_couple_path_probe_splits_in_two(pre_post, observables):
    # Branch 0 ([1/2, 1/2, 0, 0], arm 1) moves by g; branch 1 (arm 2) has post-selected weight 0.
    pre, _ = pre_post
    obs = observables["photon_in_arm1"]
    structure = montecarlo._structure(pre, (obs,))
    assert structure.pattern.tolist() == [[1.0], [0.0]]
    assert structure.kept.tolist() == [0]
    assert structure.weights.tolist() == [0.5]
    assert total_probability(pre, (obs, vertical(0.3))) == pytest.approx(1.0, abs=ATOL)
    mixture, _ = postselected(pre, (obs, vertical(0.3)))
    assert mixture.displacements.tolist() == [[0.3]]


def test_couple_twice_keeps_only_consistent_branches(pre_post, observables):
    # Commuting projectors annihilate the cross branches: 2 x 3 = 6 splits,
    # but only 3 survive, with eigenvalue pairs (1,0), (0,+1), (0,-1).
    pre, _ = pre_post
    pair = (observables["photon_in_arm1"], observables["angular_momentum_arm2"])
    structure = montecarlo._structure(pre, pair)
    assert sorted(map(tuple, structure.pattern.tolist())) == [(0.0, -1.0), (0.0, 1.0), (1.0, 0.0)]
    assert structure.cross[0].shape == (3, 3)
    couplings = ((pair[0], vertical(0.3)), (pair[1], horizontal(0.2)))
    assert total_probability(pre, *couplings) == pytest.approx(1.0, abs=ATOL)
    mixture, _ = postselected(pre, *couplings)
    assert mixture.axes == (Axis.VERTICAL, Axis.HORIZONTAL)
    assert sorted(map(tuple, mixture.displacements.tolist())) == [(0.0, -0.2), (0.0, 0.2), (0.3, 0.0)]


def test_couple_rejects_duplicate_axis(pre_post, observables):
    # Refused when the experiment is built, before any analysis.
    pre, _ = pre_post
    couplings = ((observables["photon_in_arm1"], vertical(0.1)), (observables["angular_momentum_arm2"], vertical(0.1)))
    with pytest.raises(DuplicateAxis):
        Experiment(pre=pre, couplings=couplings)


def test_couple_rejects_bad_inputs(observables):
    with pytest.raises(ValueError, match="must sum to 1"):
        Experiment(pre=Ket([1, 1, 0, 0]), couplings=((observables["photon_in_arm1"], vertical(0.1)),))
    with pytest.raises(ValueError):
        GaussianPointer(width=0.0, coupling=0.1, axis=Axis.VERTICAL)
    with pytest.raises(ValueError):
        GaussianPointer(width=1.0, coupling=-0.1, axis=Axis.VERTICAL)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), np.float64("nan"), np.float64("inf")])
def test_pointer_rejects_non_finite_widths_and_couplings(value):
    with pytest.raises(ValueError, match="width must be positive and finite"):
        GaussianPointer(width=value, coupling=0.1, axis=Axis.VERTICAL)
    with pytest.raises(ValueError, match="coupling must be nonnegative and finite"):
        GaussianPointer(width=1.0, coupling=value, axis=Axis.VERTICAL)


def test_pointer_replace_and_make_check_their_fields():
    pointer = GaussianPointer(width=1.0, coupling=0.1, axis=Axis.VERTICAL)
    with pytest.raises(ValueError, match="width must be positive and finite"):
        pointer._replace(width=-1.0)
    with pytest.raises(ValueError, match="width must be positive and finite"):
        GaussianPointer._make([float("nan"), 0.1, Axis.VERTICAL])
    with pytest.raises(ValueError, match="coupling must be nonnegative and finite"):
        pointer._replace(coupling=float("inf"))
    assert pointer._replace(coupling=0.5) == GaussianPointer(width=1.0, coupling=0.5, axis=Axis.VERTICAL)
    assert type(GaussianPointer._make(pointer)) is GaussianPointer


def test_pointer_accepts_numpy_floats(pre_post, observables):
    pointer = GaussianPointer(width=np.float64(0.5), coupling=np.float64(0.25), axis=Axis.VERTICAL)
    mixture, _ = postselected(pre_post[0], (observables["photon_in_arm1"], pointer))
    assert mixture.displacements.tolist() == [[0.25]]
    assert mixture.widths.tolist() == [0.5]
    assert GaussianPointer(width=np.float64(1.0), coupling=np.float64(0.0), axis=Axis.HORIZONTAL).coupling == 0.0


# --- array boundary ---------------------------------------------------------


MALFORMED_MIXTURES = [
    ((), np.zeros((0, 1)), (1.0,), "at least one weight"),
    ((1.0, 1.0), ((0.0,),), (1.0,), "one displacement vector per weight"),
    ((1.0,), (0.0,), (1.0,), "one displacement vector per weight"),
    ((1.0,), ((0.0,),), (1.0, 1.0), "one width per axis"),
    ((float("nan"),), ((0.0,),), (1.0,), "must be finite"),
    ((complex(1.0, float("inf")),), ((0.0,),), (1.0,), "must be finite"),
    ((1.0, 0.5), ((0.0,), (float("inf"),)), (1.0,), "must be finite"),
    ((1.0,), ((float("nan"),),), (1.0,), "must be finite"),
    ((1.0,), ((0.0,),), (0.0,), "widths must be positive and finite"),
    ((1.0,), ((0.0,),), (-1.0,), "widths must be positive and finite"),
    ((1.0,), ((0.0,),), (float("nan"),), "widths must be positive and finite"),
    ((1.0,), ((0.0,),), (float("inf"),), "widths must be positive and finite"),
]


def test_mixture_rejects_malformed_arrays():
    for weights, displacements, widths, message in MALFORMED_MIXTURES:
        with pytest.raises(ValueError, match=message):
            PointerMixture(weights=weights, displacements=displacements, widths=widths, axes=(Axis.HORIZONTAL,))


def test_branch_arrays_are_read_only_copies(pre_post, observables):
    pre, _ = pre_post
    weights = np.array([0.5, -0.25])
    shifts = np.array([[0.0], [1.0]])
    widths = np.array([1.0])
    mixture = PointerMixture(weights=weights, displacements=shifts, widths=widths, axes=(Axis.HORIZONTAL,))
    before = mixture_moments(mixture)
    weights[0], shifts[1, 0], widths[0] = 9.0, 9.0, 9.0
    assert mixture.weights.tolist() == [0.5, -0.25]
    assert mixture.displacements.tolist() == [[0.0], [1.0]]
    assert mixture.widths.tolist() == [1.0]
    assert mixture_moments(mixture) == before
    mixture, _ = postselected(pre, (observables["photon_in_arm1"], vertical(0.1)))
    for array in (mixture.weights, mixture.displacements, mixture.widths):
        with pytest.raises(ValueError):
            array[0] = 0.0


def random_observable(rng):
    """Eigenvalues +1 and -1 on a random rank-2 projector and its complement."""
    basis, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    proj = basis[:, :2] @ basis[:, :2].conj().T
    return SpectralObservable(((1.0, proj), (-1.0, np.eye(4) - proj)))


def test_couple_and_postselect_match_a_per_branch_loop(pre_post, observables, random_state):
    # The branch structure of an analysis against the per-branch oracle, at unit coupling.
    rng = np.random.default_rng(3)
    _, post = pre_post
    projectors = detector_projectors()
    for trial in range(20):
        pre = random_state(rng)
        pair = (observables["photon_in_arm1"], observables["angular_momentum_arm2"])
        if trial % 2:
            pair = (random_observable(rng), random_observable(rng))
        structure = montecarlo._structure(pre, pair)
        branches = loop_branches(pre, [(obs, 1.0) for obs in pair])
        assert structure.pattern.tolist() == [list(shifts) for _, shifts in branches]
        systems = np.array([amps for amps, _ in branches])
        for detector, cross in zip((Detector.D2, Detector.D3), structure.cross):
            want = systems.conj() @ projectors[detector] @ systems.T
            np.testing.assert_allclose(cross, want, rtol=0, atol=1e-15)
        weights, keep = postselected_weights(branches, post)
        assert structure.kept.tolist() == np.flatnonzero(keep).tolist()
        kept = [w for w, k in zip(weights, keep) if k]
        np.testing.assert_allclose(structure.weights, kept, rtol=0, atol=1e-15)
        if not trial % 2:  # diagonal projectors: the arithmetic is exact either way
            assert structure.weights.tolist() == kept


def test_couple_and_postselect_build_no_kets(pre_post, observables, monkeypatch):
    pre, _ = pre_post
    couplings = (observables["photon_in_arm1"], vertical(0.1)), (observables["angular_momentum_arm2"], horizontal(0.1))
    postselected(pre, *couplings)  # the detection chain's constants are built by now
    fresh = normalize(Ket([1.0, 2.0, 3.0, 4.0]))  # a new structure key: the analysis builds its structure
    built = []
    check = qstate.Ket.__init__
    monkeypatch.setattr(qstate.Ket, "__init__", lambda self, amps: built.append(self) or check(self, amps))
    misses = montecarlo._structure.cache_info().misses
    postselected(fresh, *couplings)
    assert montecarlo._structure.cache_info().misses == misses + 1
    assert built == []


# --- post-selection ---------------------------------------------------------


def test_path_probe_gives_single_displaced_gaussian(pre_post, observables):
    # The zero-displacement branch has weight <post|arm2 part> = 0, so the
    # pointer is an exact Gaussian at the coupling displacement for every g.
    pre, _ = pre_post
    for g in (0.01, 1.0, 25.0):
        mixture, success = postselected(pre, (observables["photon_in_arm1"], vertical(g)))
        assert success == pytest.approx(0.25, abs=ATOL)
        assert len(mixture.weights) == 1
        assert mixture.weights[0] == pytest.approx(0.5, abs=ATOL)
        assert mixture.displacements[0] == (g,)
        xs = np.linspace(g - 6, g + 6, 301)
        np.testing.assert_allclose(
            mixture_density(mixture, xs[:, None]), gaussian_density(xs, g, 1.0), atol=1e-12
        )


def test_arm2_momentum_probe_weights(pre_post, observables):
    pre, _ = pre_post
    g = 0.4
    mixture, _ = postselected(pre, (observables["angular_momentum_arm2"], horizontal(g)))
    assert mixture.displacements.shape == (3, 1)
    by_displacement = dict(zip(mixture.displacements[:, 0].tolist(), mixture.weights.tolist()))
    assert by_displacement[g] == pytest.approx(0.25, abs=ATOL)
    assert by_displacement[-g] == pytest.approx(-0.25, abs=ATOL)
    assert by_displacement[0.0] == pytest.approx(0.5, abs=ATOL)


def test_orthogonal_postselection_raises(observables):
    # Every branch of a pre-state in arm 1 with vertical polarisation is
    # orthogonal to the post-state: no mixture, and every shot reaches D2 or D3.
    arm1_v = Ket([1 / SQ2, -1 / SQ2, 0, 0])
    coupling = (observables["angular_momentum_arm2"], horizontal(0.1))
    mixture, success = postselected(arm1_v, coupling)
    assert (mixture, success) == (None, 0.0)
    assert total_probability(arm1_v, coupling) == pytest.approx(1.0, abs=ATOL)
    with pytest.raises(NullPostSelection):
        PointerMixture(weights=(1e-9,), displacements=((0.0,),), widths=(1.0,), axes=(Axis.HORIZONTAL,))


def test_success_probability_approaches_undisturbed_overlap(pre_post, observables):
    pre, _ = pre_post
    successes = []
    for g in (1.0, 1e-1, 1e-2, 1e-3):
        _, success = postselected(pre, (observables["angular_momentum_arm2"], horizontal(g)))
        successes.append(success)
    deviations = [abs(s - 0.25) for s in successes]
    assert deviations == sorted(deviations, reverse=True)
    assert deviations[-1] < 1e-6


@pytest.mark.parametrize("width", [1e-160, 1e160])
def test_success_probability_is_scale_free_at_extreme_widths(pre_post, observables, width):
    # At equal g/s the Gram sum depends only on g/s.  Here s**2 is not a
    # normal float64, so the overlap exponent must not be formed from it.
    pre, _ = pre_post

    def success(s):
        couplings = (
            (observables["photon_in_arm1"], vertical(0.01 * s, s)),
            (observables["angular_momentum_arm2"], horizontal(0.01 * s, s)),
        )
        return postselected(pre, *couplings)[1]

    assert success(width) == pytest.approx(success(1.0), rel=1e-12, abs=0)


# --- moments ----------------------------------------------------------------


def test_momentum_probe_mean_matches_closed_form(pre_post, observables):
    # Gram-sum mean for weights {1/4 @ +g, -1/4 @ -g, 1/2 @ 0} reduces to
    # 2 g O(g) / (3 - O(2g)) with O(d) = exp(-d^2 / (8 s^2)).
    pre, _ = pre_post
    for g in (1e-3, 1e-2, 1e-1, 1.0, 3.0, 10.0):
        mixture, _ = postselected(pre, (observables["angular_momentum_arm2"], horizontal(g)))
        overlap = lambda d: np.exp(-(d**2) / 8.0)
        expected = 2 * g * overlap(g) / (3 - overlap(2 * g))
        assert mixture_moments(mixture)[Axis.HORIZONTAL].mean == pytest.approx(
            expected, abs=1e-12, rel=1e-12
        )


def test_momentum_probe_weak_and_strong_means(pre_post, observables):
    pre, _ = pre_post
    mixture, _ = postselected(pre, (observables["angular_momentum_arm2"], horizontal(1e-2)))
    assert mixture_moments(mixture)[Axis.HORIZONTAL].mean / 1e-2 == pytest.approx(1.0, abs=1e-4)
    mixture, _ = postselected(pre, (observables["angular_momentum_arm2"], horizontal(40.0)))
    assert abs(mixture_moments(mixture)[Axis.HORIZONTAL].mean) < 1e-12


def test_zero_coupling_gives_bare_pointer(pre_post, observables):
    pre, _ = pre_post
    s = 1.7
    mixture, success = postselected(pre, (observables["angular_momentum_arm2"], horizontal(0.0, s=s)))
    assert success == pytest.approx(0.25, abs=ATOL)
    moments = mixture_moments(mixture)[Axis.HORIZONTAL]
    assert moments.mean == pytest.approx(0.0, abs=ATOL)
    assert moments.variance == pytest.approx(s**2, abs=ATOL)
    xs = np.linspace(-8 * s, 8 * s, 501)
    np.testing.assert_allclose(
        mixture_density(mixture, xs[:, None]), gaussian_density(xs, 0.0, s), atol=1e-12
    )


def test_weak_limit_convergence_all_canonical_observables(pre_post, observables):
    # mean/g -> Re(weak value) quadratically.  For the path probes, sigma_z
    # and the arm-1 probe the pre/post symmetry makes the mean *exact* at
    # every coupling; only the arm-2 momentum probe converges nontrivially.
    pre, post = pre_post
    ratios = (1e-1, 1e-2, 1e-3)
    for name, obs in observables.items():
        wv = weak_value(observable_operator(obs), pre, post).real
        errors = []
        for g in ratios:
            mixture, _ = postselected(pre, (obs, horizontal(g)))
            mean = mixture_moments(mixture)[Axis.HORIZONTAL].mean
            errors.append(abs(mean / g - wv))
        assert errors[-1] < 1e-6, name
        if name == "angular_momentum_arm2":
            assert 50 < errors[0] / errors[1] < 200
            assert 50 < errors[1] / errors[2] < 200
        else:
            assert max(errors) < 1e-12, name


WEAK_LIMIT_CASES = {
    "smile-only": [("angular_momentum_arm2", horizontal)],
    "weak-cheshire": [("photon_in_arm1", vertical), ("angular_momentum_arm2", horizontal)],
}


@pytest.mark.parametrize("g", [1e-1, 1e-2, 1e-3])
@pytest.mark.parametrize("case", sorted(WEAK_LIMIT_CASES))
def test_weak_limit_error_matches_mpmath_oracle(pre_post, observables, case, g):
    # |mean/g - Re A_w| is ~(g/s)^2: forming mean/g first loses up to 1e-9
    # of it at g/s = 1e-3, the expm1 sum keeps it to a few ulp.
    pre, post = pre_post
    mixture, _ = postselected(pre, *((observables[name], pointer(g)) for name, pointer in WEAK_LIMIT_CASES[case]))
    weak_values = [weak_value(observable_operator(observables[name]), pre, post).real
                   for name, _ in WEAK_LIMIT_CASES[case]]
    couplings = [g] * len(weak_values)
    errors = weak_limit_error(mixture, couplings, weak_values)
    for k, value in enumerate(weak_values):
        exact = oracle_weak_limit_error(mixture, k, g, value)
        assert exact > 0
        assert errors[k] == pytest.approx(exact, rel=1e-14, abs=0)


def test_moments_match_quadrature_oracle(pre_post, observables):
    pre, _ = pre_post
    cases = [
        ("angular_momentum_arm2", 1e-2),
        ("angular_momentum_arm2", 1.0),
        ("angular_momentum_arm2", 8.0),
        ("angular_momentum_arm1", 2.0),
        ("photon_in_arm1", 5.0),
    ]
    for name, g in cases:
        mixture, _ = postselected(pre, (observables[name], horizontal(g)))
        moments = mixture_moments(mixture)[Axis.HORIZONTAL]
        mass, (mean,), (variance,) = quadrature_moments(
            mixture, lambda pts: mixture_density(mixture, pts)
        )
        assert mass == pytest.approx(1.0, abs=1e-6)
        assert moments.mean == pytest.approx(mean, rel=1e-9, abs=1e-12)
        assert moments.variance == pytest.approx(variance, rel=1e-9)


def test_two_axis_moments_match_quadrature_oracle(pre_post, observables):
    pre, _ = pre_post
    for g in (0.05, 10.0):
        mixture, _ = postselected(
            pre, (observables["photon_in_arm1"], vertical(g)), (observables["angular_momentum_arm2"], horizontal(g))
        )
        moments = mixture_moments(mixture)
        mass, means, variances = quadrature_moments(
            mixture, lambda pts: mixture_density(mixture, pts)
        )
        assert mass == pytest.approx(1.0, abs=1e-6)
        for k, axis in enumerate(mixture.axes):
            assert moments[axis].mean == pytest.approx(means[k], rel=1e-9, abs=1e-12)
            assert moments[axis].variance == pytest.approx(variances[k], rel=1e-9)


# --- strong limit vs conditional probabilities ------------------------------


def test_strong_limit_lobes_match_abl(pre_post, observables):
    # At coupling 1000 widths the lobes are disjoint; their masses must
    # reproduce the conditional outcome probabilities computed by a module
    # that knows nothing about pointers.
    pre, post = pre_post
    for name in ("angular_momentum_arm2", "angular_momentum_arm1", "photon_in_arm1"):
        obs = observables[name]
        g = 1e3
        mixture, _ = postselected(pre, (obs, horizontal(g)))
        abl = abl_distribution(obs, pre, post).outcomes
        centers = [g * value for value in abl]
        masses = lobe_masses(mixture, lambda pts: mixture_density(mixture, pts), centers)
        for (value, prob), mass in zip(abl.items(), masses):
            assert mass == pytest.approx(prob, abs=1e-6), (name, value)


def test_cheshire_cat_separation_is_simultaneous(pre_post, observables):
    # One experiment, both probes weak: the mean displacement says the
    # photon is in arm 1 *and* the angular momentum is in arm 2.
    pre, _ = pre_post
    g = h = 1e-2
    mixture, success = postselected(
        pre, (observables["photon_in_arm1"], vertical(g)), (observables["angular_momentum_arm2"], horizontal(h))
    )
    moments = mixture_moments(mixture)
    assert moments[Axis.VERTICAL].mean / g == pytest.approx(1.0, abs=1e-3)
    assert moments[Axis.HORIZONTAL].mean / h == pytest.approx(1.0, abs=1e-3)
    assert success == pytest.approx(0.25, abs=1e-4)


# --- density ----------------------------------------------------------------


def test_density_is_nonnegative_with_interfering_weights(pre_post, observables):
    pre, _ = pre_post
    mixture, _ = postselected(pre, (observables["angular_momentum_arm2"], horizontal(1.5)))
    xs = np.linspace(-14, 14, 2001)
    dens = mixture_density(mixture, xs[:, None])
    assert np.all(dens >= 0)
    # scalar and batched evaluation agree
    batched = mixture_density(mixture, np.array([[0.3], [1.2]]))
    assert mixture_density(mixture, [0.3]) == batched[0]
    assert mixture_density(mixture, [1.2]) == batched[1]


def test_density_point_validation(pre_post, observables):
    pre, _ = pre_post
    mixture, _ = postselected(pre, (observables["photon_in_arm1"], vertical(0.1)))
    with pytest.raises(ValueError):
        mixture_density(mixture, [0.0, 0.0])


def test_random_complex_mixtures_match_quadrature():
    # Weights from post-selection may be complex; the Gram-sum moments must
    # stay real and agree with quadrature regardless.
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        weights = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        mixture = PointerMixture(
            weights=tuple(map(complex, weights)),
            displacements=tuple((float(x),) for x in rng.uniform(-3, 3, size=n)),
            widths=(float(rng.uniform(0.5, 2.0)),),
            axes=(Axis.HORIZONTAL,),
        )
        moments = mixture_moments(mixture)[Axis.HORIZONTAL]
        mass, (mean,), (variance,) = quadrature_moments(
            mixture, lambda pts: mixture_density(mixture, pts)
        )
        assert mass == pytest.approx(1.0, abs=1e-6)
        assert moments.mean == pytest.approx(mean, rel=1e-9, abs=1e-9)
        assert moments.variance == pytest.approx(variance, rel=1e-9)


def test_degenerate_mixture_propagates_null(pre_post):
    # The pair expansion is formed when the mixture is built, so a mixture of zero norm is never built.
    with pytest.raises(NullPostSelection):
        PointerMixture(
            weights=(1.0, -1.0),
            displacements=((0.0,), (0.0,)),
            widths=(1.0,),
            axes=(Axis.HORIZONTAL,),
        )


# --- kernel bits --------------------------------------------------------------


def kernel_cases(preset, pre_post, observables):
    """(label, mixture, per-axis couplings, per-axis Re A_w) to hold the kernel's bits on."""
    pre, post = pre_post
    if preset == "random-complex":  # complex weights, which no preset has
        rng = np.random.default_rng(15)
        weights = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        displacements = 0.4 * rng.integers(-2, 3, size=(4, 2))
        # Widths at which 2 pi s^2 rounds differently as (2 pi s) s, so the norm's order is held too.
        mixture = PointerMixture(weights, displacements, (0.73, 1.33), (Axis.VERTICAL, Axis.HORIZONTAL))
        return [(preset, mixture, (0.4, 0.4), (0.7, -0.2))]
    names = [name for name, _ in PRESETS[preset].couplings]
    weak_values = [weak_value(observable_operator(observables[name]), pre, post).real for name in names]
    cases = []
    for ratio in (1e-3, 1e-2, 1.0, 10.0):
        for s in (0.7, 1.0):
            couplings = tuple(
                (observables[name], GaussianPointer(width=s, coupling=ratio * s, axis=axis))
                for name, axis in PRESETS[preset].couplings
            )
            mixture = analyze(Experiment(pre=pre, couplings=couplings)).mixture
            cases.append((f"g/s={ratio:g}, s={s:g}", mixture, [ratio * s] * len(names), weak_values))
    return cases


def kernel_points(mixture):
    """A grid around the branches, out to where exp(-e) is subnormal (54 s) or 0 (60 s)."""
    offsets = np.array([-60.0, -54.0, -8.0, -3.0, -1.0, -0.3, 0.0, 0.7, 2.0, 5.0, 38.0])
    axes = [np.unique(mixture.displacements[:, k, None] + s * offsets) for k, s in enumerate(mixture.widths)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


def assert_same_bits(got, want, label):
    assert got.dtype == want.dtype and got.shape == want.shape, label
    assert got.tobytes() == want.tobytes(), label


@pytest.mark.parametrize("preset", [*PRESETS, "random-complex"])
def test_kernel_matches_the_plain_formulas_bit_for_bit(preset, pre_post, observables):
    # Sampled readouts accept against the density and the envelopes, so
    # their in-place evaluation must give the plain formulas' exact bits.
    for label, mixture, couplings, weak_values in kernel_cases(preset, pre_post, observables):
        d, widths = mixture.displacements, mixture.widths
        assert_same_bits(_overlap_matrix(d, widths), plain_overlap_matrix(d, widths), f"Gram, {label}")
        points = kernel_points(mixture)
        want = plain_mixture_density(mixture, points)
        assert_same_bits(mixture_density(mixture, points), want, f"density, {label}")
        for envelope in (_Envelope.midpoint(mixture), _Envelope.centre(mixture)):
            want = plain_envelope(envelope, points)
            assert_same_bits(envelope.evaluate(points), want, f"{envelope.name} envelope, {label}")
        want = plain_weak_limit_error(mixture, couplings, weak_values)
        assert_same_bits(weak_limit_error(mixture, couplings, weak_values), want, f"weak-limit error, {label}")
