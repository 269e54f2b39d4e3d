import math
import operator
from fractions import Fraction
from functools import reduce
from itertools import product

import numpy as np
import pytest

from cheshire import (
    NoValidHistory,
    OrthogonalSelection,
    abl_distribution,
    observable_operator,
    sequential_distribution,
    weak_value,
)
from cheshire.postselect import _histories
from cheshire.qstate import ATOL, Ket, apply, inner, normalize
from oracles import collapse_chain_distribution

SQ2 = np.sqrt(2.0)


# --- weak values -----------------------------------------------------------


def test_cheshire_weak_values(pre_post, observables):
    pre, post = pre_post
    expected = {
        "photon_in_arm1": 1.0,
        "photon_in_arm2": 0.0,
        "angular_momentum_arm1": 0.0,
        "angular_momentum_arm2": 1.0,
    }
    for name, value in expected.items():
        wv = weak_value(observable_operator(observables[name]), pre, post)
        assert wv == pytest.approx(value, abs=ATOL), name


def test_weak_value_of_identity_is_one(random_state):
    rng = np.random.default_rng(5)
    for _ in range(20):
        pre = random_state(rng)
        post = random_state(rng)
        if abs(inner(post, pre)) < 1e-3:
            continue
        assert weak_value(np.eye(4), pre, post) == pytest.approx(1.0, abs=1e-10)


def test_weak_value_orthogonal_selection_raises(pre_post):
    _, post = pre_post
    arm2_h = Ket([0, 0, 1 / SQ2, 1 / SQ2])  # orthogonal to the post-state
    with pytest.raises(OrthogonalSelection):
        weak_value(np.eye(4), arm2_h, post)


def test_weak_value_linearity(random_state):
    rng = np.random.default_rng(6)
    for _ in range(25):
        pre = random_state(rng)
        post = random_state(rng)
        if abs(inner(post, pre)) < 1e-2:
            continue
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        alpha = complex(rng.standard_normal(), rng.standard_normal())
        beta = complex(rng.standard_normal(), rng.standard_normal())
        combined = weak_value(alpha * a + beta * b, pre, post)
        split = alpha * weak_value(a, pre, post) + beta * weak_value(b, pre, post)
        assert combined == pytest.approx(split, abs=1e-10)


def test_weak_value_sum_rules(pre_post, observables):
    pre, post = pre_post
    wv = lambda name: weak_value(observable_operator(observables[name]), pre, post)
    assert wv("photon_in_arm1") + wv("photon_in_arm2") == pytest.approx(1.0, abs=ATOL)
    assert wv("angular_momentum_arm1") + wv("angular_momentum_arm2") == pytest.approx(
        wv("angular_momentum"), abs=ATOL
    )


# --- conditional (ABL) distributions ---------------------------------------


def test_certain_path(pre_post, observables):
    pre, post = pre_post
    dist = abl_distribution(observables["photon_in_arm1"], pre, post)
    assert dist.outcomes[1.0] == pytest.approx(1.0, abs=ATOL)
    assert dist.outcomes[0.0] == pytest.approx(0.0, abs=ATOL)
    assert dist.success_probability == pytest.approx(0.25, abs=ATOL)


def test_angular_momentum_in_arm2(pre_post, observables):
    pre, post = pre_post
    dist = abl_distribution(observables["angular_momentum_arm2"], pre, post)
    assert dist.outcomes[+1.0] == pytest.approx(float(Fraction(1, 6)), abs=ATOL)
    assert dist.outcomes[-1.0] == pytest.approx(float(Fraction(1, 6)), abs=ATOL)
    assert dist.outcomes[0.0] == pytest.approx(float(Fraction(2, 3)), abs=ATOL)
    # unnormalized squared amplitudes are 1/16, 1/16, 1/4
    assert dist.success_probability == pytest.approx(3 / 8, abs=ATOL)


def test_angular_momentum_in_arm1(pre_post, observables):
    pre, post = pre_post
    dist = abl_distribution(observables["angular_momentum_arm1"], pre, post)
    assert dist.outcomes[+1.0] == pytest.approx(0.5, abs=ATOL)
    assert dist.outcomes[-1.0] == pytest.approx(0.5, abs=ATOL)
    assert dist.outcomes[0.0] == pytest.approx(0.0, abs=ATOL)


def test_abl_matches_collapse_oracle_on_random_pairs(observables, random_state):
    rng = np.random.default_rng(7)
    for _ in range(25):
        pre = random_state(rng)
        post = random_state(rng)
        for obs in observables.values():
            try:
                dist = abl_distribution(obs, pre, post)
            except NoValidHistory:
                continue
            oracle, oracle_success = collapse_chain_distribution([obs], pre, post)
            assert dist.success_probability == pytest.approx(oracle_success, abs=ATOL)
            for value, prob in dist.outcomes.items():
                assert prob == pytest.approx(oracle.get((value,), 0.0), abs=ATOL)


def test_success_probability_adds_left_to_right(observables, random_state):
    # Python 3.12 made sum() of floats compensated, so a total from sum()
    # would carry different last bits on 3.11 and on 3.12+.  On some of
    # these pairs (4 of the 40, measured) the left-to-right total differs
    # from the exact math.fsum, which a compensated sum gives.
    obs = observables["angular_momentum_arm2"]
    rng = np.random.default_rng(11)
    differs_from_fsum = 0
    for _ in range(40):
        pre, post = random_state(rng), random_state(rng)
        numerators = _histories((obs,), pre, post)[0].values()
        left_to_right = reduce(operator.add, numerators, 0.0)
        assert abl_distribution(obs, pre, post).success_probability == left_to_right
        differs_from_fsum += left_to_right != math.fsum(numerators)
    assert differs_from_fsum


def test_abl_completeness(pre_post, observables):
    pre, post = pre_post
    for obs in observables.values():
        dist = abl_distribution(obs, pre, post)
        assert sum(dist.outcomes.values()) == pytest.approx(1.0, abs=ATOL)
        numerators = sum(
            abs(inner(post, apply(proj, pre))) ** 2 for _, proj in obs.branches
        )
        assert numerators == pytest.approx(dist.success_probability, abs=ATOL)


def test_abl_with_post_equal_pre(pre_post, observables):
    # Conditioning on finding the prepared state again weights outcome a by
    # |<psi|P_a|psi>|^2, i.e. the *square* of its Born probability.  When the
    # nonzero Born weights are uniform (every path probe on the pre-state)
    # this coincides with the plain Born rule.
    pre, _ = pre_post
    for name in ("photon_in_arm1", "photon_in_arm2", "angular_momentum"):
        dist = abl_distribution(observables[name], pre, pre)
        for value, proj in observables[name].branches:
            born = float(np.linalg.norm(proj @ pre.amps) ** 2)
            assert dist.outcomes[value] == pytest.approx(born, abs=ATOL), name
    rng = np.random.default_rng(8)
    for _ in range(20):
        psi = normalize(Ket(rng.standard_normal(4) + 1j * rng.standard_normal(4)))
        for obs in observables.values():
            dist = abl_distribution(obs, psi, psi)
            squared = {
                value: float(np.linalg.norm(proj @ psi.amps) ** 4)
                for value, proj in obs.branches
            }
            total = sum(squared.values())
            for value, num in squared.items():
                assert dist.outcomes[value] == pytest.approx(num / total, abs=1e-10)


def test_abl_keeps_the_key_of_a_zero_norm_branch(pre_post, observables):
    # From |arm 1, +>, the -1 eigenspace of angular_momentum projects to the
    # zero vector; its eigenvalue is still a key, with probability 0.
    _, post = pre_post
    dist = abl_distribution(observables["angular_momentum"], Ket([1, 0, 0, 0]), post)
    assert list(dist.outcomes.items()) == [(1.0, 1.0), (-1.0, 0.0)]
    assert dist.success_probability == 0.25


def test_abl_no_valid_history(observables):
    pre = Ket([1, 0, 0, 0])
    post = Ket([0, 0, 1, 0])
    with pytest.raises(NoValidHistory):
        abl_distribution(observables["angular_momentum"], pre, post)


# --- sequential measurements ------------------------------------------------


def test_momentum_then_both_path_probes(pre_post, observables):
    pre, post = pre_post
    dist = sequential_distribution(
        [observables["angular_momentum_arm2"], observables["photon_in_arm1"], observables["photon_in_arm2"]],
        pre,
        post,
    )
    assert dist.outcomes == pytest.approx(
        {(1.0, 0.0, 1.0): 1 / 6, (-1.0, 0.0, 1.0): 1 / 6, (0.0, 1.0, 0.0): 2 / 3}, abs=ATOL
    )
    # whenever angular momentum shows in arm 2, so does the photon
    for outcome in dist.outcomes:
        if outcome[0] != 0.0:
            assert outcome[1] == 0.0 and outcome[2] == 1.0


def test_probes_in_both_arms_are_certain(pre_post, observables):
    pre, post = pre_post
    dist = sequential_distribution(
        [observables["photon_in_arm1"], observables["photon_in_arm2"]], pre, post
    )
    assert dist.outcomes == pytest.approx({(1.0, 0.0): 1.0}, abs=ATOL)


def test_single_probe_without_postselection_is_born(pre_post, observables):
    pre, _ = pre_post
    dist = sequential_distribution([observables["photon_in_arm1"]], pre, pre)
    assert dist.outcomes == pytest.approx({(1.0,): 0.5, (0.0,): 0.5}, abs=ATOL)


def test_sequential_reduces_to_abl_for_one_observable(pre_post, observables):
    pre, post = pre_post
    for obs in observables.values():
        single = sequential_distribution([obs], pre, post)
        reference = abl_distribution(obs, pre, post)
        assert single.success_probability == pytest.approx(
            reference.success_probability, abs=ATOL
        )
        for value, prob in reference.outcomes.items():
            assert single.outcomes.get((value,), 0.0) == pytest.approx(prob, abs=ATOL)


def test_sequential_matches_collapse_oracle_all_canonical_lists(pre_post, observables):
    # Exhaustively check every sequence of canonical observables up to length 3.
    pre, post = pre_post
    names = list(observables)
    for length in (1, 2, 3):
        for combo in product(names, repeat=length):
            obs_list = [observables[name] for name in combo]
            dist = sequential_distribution(obs_list, pre, post)
            oracle, oracle_success = collapse_chain_distribution(obs_list, pre, post)
            assert dist.success_probability == pytest.approx(oracle_success, abs=ATOL), combo
            keys = set(dist.outcomes) | set(oracle)
            for key in keys:
                assert dist.outcomes.get(key, 0.0) == pytest.approx(
                    oracle.get(key, 0.0), abs=ATOL
                ), combo


def test_sequential_order_independent_for_commuting_observables(pre_post, observables):
    pre, post = pre_post
    forward = sequential_distribution(
        [observables["photon_in_arm1"], observables["angular_momentum_arm2"]], pre, post
    )
    backward = sequential_distribution(
        [observables["angular_momentum_arm2"], observables["photon_in_arm1"]], pre, post
    )
    for (a, b), prob in forward.outcomes.items():
        assert backward.outcomes.get((b, a), 0.0) == pytest.approx(prob, abs=ATOL)


def test_sequential_order_matters_for_noncommuting(pre_post):
    # Path probe vs a probe of the (+ band vs - band) superposition basis.
    pre, post = pre_post
    from cheshire import SpectralObservable

    arm1 = np.diag([1.0, 1, 0, 0]).astype(complex)
    arm2 = np.diag([0.0, 0, 1, 1]).astype(complex)
    plus = 0.5 * np.array([[1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1]], dtype=complex)
    path = SpectralObservable(((1.0, arm1), (0.0, arm2)))
    superposed = SpectralObservable(((1.0, plus), (0.0, np.eye(4) - plus)))
    ab = sequential_distribution([path, superposed], pre, post)
    ba = sequential_distribution([superposed, path], pre, post)
    swapped = {(b, a): p for (a, b), p in ba.outcomes.items()}
    assert ab.outcomes != pytest.approx(swapped)


def test_sequential_requires_observables(pre_post):
    pre, post = pre_post
    with pytest.raises(ValueError):
        sequential_distribution([], pre, post)


def test_sequential_no_valid_history(observables):
    pre = Ket([1, 0, 0, 0])
    post = Ket([0, 0, 1, 0])
    with pytest.raises(NoValidHistory):
        sequential_distribution([observables["angular_momentum"]], pre, post)
