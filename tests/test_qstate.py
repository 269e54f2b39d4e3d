import numpy as np
import pytest

from cheshire import (
    Ket,
    SpectralObservable,
    canonical_observables,
    canonical_states,
    observable_operator,
)
from cheshire.qstate import (
    ATOL,
    apply,
    identity,
    inner,
    normalize,
)

SQ2 = np.sqrt(2.0)


def test_ket_construction_and_flags():
    assert Ket([0.5, 0.5, 0.5, 0.5]).norm() == pytest.approx(1.0, abs=ATOL)
    assert Ket([1, 1, 0, 0]).norm() == pytest.approx(SQ2, abs=ATOL)
    assert normalize(Ket([1, 1, 0, 0])).norm() == pytest.approx(1.0, abs=ATOL)
    with pytest.raises(ValueError):
        Ket([1, 2, 3])
    with pytest.raises(ValueError):
        Ket([np.nan, 0, 0, 0])
    with pytest.raises(ValueError):
        Ket([np.inf * 1j, 0, 0, 0])
    with pytest.raises(ValueError):
        normalize(Ket([0, 0, 0, 0]))


def test_ket_amps_are_read_only():
    state = Ket([1, 0, 0, 0])
    with pytest.raises(ValueError):
        state.amps[0] = 2.0


def test_inner_canonical_overlap(pre_post):
    pre, post = pre_post
    # Expand <post|pre> over the four basis terms by hand: (1/4)(1+1+1-1).
    by_hand = 0.25 * sum(np.conj(c_post) * c_pre for c_post, c_pre in zip([1, 1, 1, -1], [1, 1, 1, 1]))
    assert inner(pre, pre) == pytest.approx(1.0, abs=ATOL)
    assert inner(post, pre) == pytest.approx(by_hand, abs=ATOL)
    assert abs(inner(post, pre)) ** 2 == pytest.approx(0.25, abs=ATOL)


def test_post_state_orthogonal_to_arm2_h(pre_post):
    _, post = pre_post
    arm2_h = Ket([0, 0, 1 / SQ2, 1 / SQ2])
    assert inner(post, arm2_h) == pytest.approx(0.0, abs=ATOL)


def test_inner_conjugate_symmetry_random():
    rng = np.random.default_rng(10)
    for _ in range(100):
        x = Ket(rng.standard_normal(4) + 1j * rng.standard_normal(4))
        y = Ket(rng.standard_normal(4) + 1j * rng.standard_normal(4))
        assert inner(x, y) == pytest.approx(np.conj(inner(y, x)), abs=ATOL)


def test_inner_linearity_structure():
    rng = np.random.default_rng(11)
    x = Ket(rng.standard_normal(4) + 1j * rng.standard_normal(4))
    y = Ket(rng.standard_normal(4) + 1j * rng.standard_normal(4))
    z = Ket(rng.standard_normal(4) + 1j * rng.standard_normal(4))
    a = 0.3 - 1.7j
    lhs = inner(x, Ket(a * y.amps + z.amps))
    assert lhs == pytest.approx(a * inner(x, y) + inner(x, z), abs=1e-10)
    lhs = inner(Ket(a * x.amps), y)
    assert lhs == pytest.approx(np.conj(a) * inner(x, y), abs=1e-10)


def test_apply_identity_and_flagging(pre_post):
    pre, _ = pre_post
    result = apply(identity(), pre)
    np.testing.assert_allclose(result.amps, pre.amps, atol=ATOL)
    arm2 = dict(canonical_observables()["photon_in_arm2"].branches)[1.0]
    assert apply(arm2, pre).norm() == pytest.approx(1 / SQ2, abs=ATOL)  # a projection is left unnormalized
    with pytest.raises(ValueError, match="operator must be 4x4"):
        apply(np.eye(3), pre)


def test_apply_arm2_projection(pre_post):
    pre, _ = pre_post
    arm2 = dict(canonical_observables()["photon_in_arm2"].branches)[1.0]
    np.testing.assert_allclose(apply(arm2, pre).amps, [0, 0, 0.5, 0.5], atol=ATOL)


def test_angular_momentum_maps_h_to_v():
    # On either arm, sigma_z sends (+ + -)/sqrt2 (i.e. H) to (+ - -)/sqrt2 (i.e. V).
    sigma_z = observable_operator(canonical_observables()["angular_momentum"])
    arm1_h = Ket([1 / SQ2, 1 / SQ2, 0, 0])
    np.testing.assert_allclose(apply(sigma_z, arm1_h).amps, [1 / SQ2, -1 / SQ2, 0, 0], atol=ATOL)
    arm2_h = Ket([0, 0, 1 / SQ2, 1 / SQ2])
    np.testing.assert_allclose(apply(sigma_z, arm2_h).amps, [0, 0, 1 / SQ2, -1 / SQ2], atol=ATOL)


def test_canonical_states_values(pre_post):
    pre, post = pre_post
    np.testing.assert_allclose(pre.amps, [0.5, 0.5, 0.5, 0.5], atol=ATOL)
    np.testing.assert_allclose(post.amps, [0.5, 0.5, 0.5, -0.5], atol=ATOL)
    assert pre.norm() == pytest.approx(1.0, abs=ATOL) and post.norm() == pytest.approx(1.0, abs=ATOL)
    # Arm-1 components agree; the states differ only in arm 2.
    np.testing.assert_allclose(pre.amps[:2], post.amps[:2], atol=ATOL)


def test_projectors_resolve_pre_state_exactly(pre_post):
    pre, _ = pre_post
    obs = canonical_observables()
    arm1 = dict(obs["photon_in_arm1"].branches)[1.0]
    arm2 = dict(obs["photon_in_arm2"].branches)[1.0]
    recombined = apply(arm1, pre).amps + apply(arm2, pre).amps
    assert np.array_equal(recombined, pre.amps)


def test_canonical_observables_are_valid(observables):
    assert set(observables) == {
        "photon_in_arm1",
        "photon_in_arm2",
        "angular_momentum",
        "angular_momentum_arm1",
        "angular_momentum_arm2",
    }
    for name, obs in observables.items():
        SpectralObservable(obs.branches)  # building again runs every check, and raises if one fails
        total = sum(proj for _, proj in obs.branches)
        np.testing.assert_allclose(total, identity(), atol=ATOL)


def test_arm2_angular_momentum_branches(observables):
    obs = observables["angular_momentum_arm2"]
    assert tuple(value for value, _ in obs.branches) == (1.0, -1.0, 0.0)
    np.testing.assert_array_equal(dict(obs.branches)[1.0], np.diag([0, 0, 1, 0]).astype(complex))
    np.testing.assert_array_equal(dict(obs.branches)[-1.0], np.diag([0, 0, 0, 1]).astype(complex))
    np.testing.assert_array_equal(dict(obs.branches)[0.0], np.diag([1, 1, 0, 0]).astype(complex))


def test_completeness_and_arm_decomposition(observables):
    arm1 = dict(observables["photon_in_arm1"].branches)[1.0]
    arm2 = dict(observables["photon_in_arm2"].branches)[1.0]
    np.testing.assert_allclose(arm1 + arm2, identity(), atol=ATOL)
    total = observable_operator(observables["angular_momentum_arm1"]) + observable_operator(
        observables["angular_momentum_arm2"]
    )
    np.testing.assert_allclose(total, observable_operator(observables["angular_momentum"]), atol=ATOL)


def test_all_canonical_observables_commute(observables):
    operators = [observable_operator(obs) for obs in observables.values()]
    for i, a in enumerate(operators):
        for b in operators[i + 1 :]:
            np.testing.assert_allclose(a @ b - b @ a, np.zeros((4, 4)), atol=ATOL)


def test_invalid_spectral_observables_raise_when_built(observables):
    arm1 = dict(observables["photon_in_arm1"].branches)[1.0]
    arm2 = dict(observables["photon_in_arm2"].branches)[1.0]
    oblique = np.zeros((4, 4))
    oblique[0, 0] = oblique[0, 1] = 1.0
    cases = [
        (((1.0, arm1), (0.0, arm1)), "orthogonal", 1.0),  # residual |P_1 P_1| = 1
        # Oblique: idempotent, orthogonal to I - P and summing with it to I, only not hermitian.
        (((1.0, oblique), (0.0, identity() - oblique)), "eigenvalue 1.0 is not hermitian", 1.0),
        (((1.0, arm1), (1.0, arm2)), "duplicate eigenvalue 1.0", 0.0),
        (((1.0, 0.5 * arm1), (0.0, arm2)), "idempotent", 0.25),
        (((1.0, arm1),), "do not sum to the identity", 1.0),
        (((1.0, np.full((4, 4), np.nan)), (0.0, arm2)), "not finite", 0.0),
        (((np.inf, arm1), (0.0, arm2)), "not finite", 0.0),
        (((-np.inf, arm1), (0.0, arm2)), "not finite", 0.0),
        (((np.nan, arm1), (0.0, arm2)), "not finite", 0.0),
        (((1.0, np.eye(3)),), "has shape (3, 3)", 0.0),
        ((), "no branches", 0.0),
    ]
    for branches, reason, residual in cases:
        with pytest.raises(ValueError) as raised:
            SpectralObservable(branches)
        message = str(raised.value)
        assert message.startswith("invalid spectral observable: "), message
        assert reason in message, message
        assert message.endswith(f"(max entrywise residual {residual:.3e})"), message


def test_canonical_constants_are_shared_read_only_and_freshly_contained():
    observables = canonical_observables()
    observables["photon_in_arm1"] = observables.pop("photon_in_arm2")
    observables.clear()
    fresh = canonical_observables()
    assert set(fresh) == {
        "photon_in_arm1",
        "photon_in_arm2",
        "angular_momentum",
        "angular_momentum_arm1",
        "angular_momentum_arm2",
    }
    again = canonical_observables()
    assert again is not fresh
    for name, obs in fresh.items():
        assert again[name] is obs
        for _, proj in obs.branches:
            assert not proj.flags.writeable
    pre, post = canonical_states()
    again_pre, again_post = canonical_states()
    assert again_pre is pre and again_post is post
    assert not pre.amps.flags.writeable and not post.amps.flags.writeable
    np.testing.assert_array_equal(dict(fresh["photon_in_arm1"].branches)[1.0], np.diag([1, 1, 0, 0]))

