import numpy as np
import pytest

from cheshire import Detector, Experiment, analyze
from cheshire.optics import (
    BEAMSPLITTER,
    CHAIN,
    HALF_WAVE_PLATE_ARM2,
    POLARISING_BS,
    detector_projectors,
    postselected_state,
)
from cheshire.qstate import ATOL, Ket, apply, inner

SQ2 = np.sqrt(2.0)


def bare_probabilities(state):
    """Detector probabilities of ``state`` sent through the chain with no pointer coupled."""
    return analyze(Experiment(pre=state, couplings=())).detector_probabilities


@pytest.mark.parametrize(
    "element",
    [
        pytest.param(HALF_WAVE_PLATE_ARM2, id="half_wave_plate-2"),
        pytest.param(BEAMSPLITTER, id="beamsplitter_out-None"),
        pytest.param(POLARISING_BS, id="polarising_bs-None"),
    ],
)
def test_every_element_is_unitary(element):
    np.testing.assert_allclose(element @ element.conj().T, np.eye(4), atol=ATOL)


def test_input_beamsplitter_prepares_pre_state(pre_post):
    # A horizontally polarised photon entering one port of a balanced
    # beamsplitter comes out as the pre-state.
    pre, _ = pre_post
    arm1_h = Ket([1 / SQ2, 1 / SQ2, 0, 0])
    np.testing.assert_allclose(apply(BEAMSPLITTER, arm1_h).amps, pre.amps, atol=ATOL)


def test_balanced_input_leaves_left_port():
    balanced_h = Ket([0.5, 0.5, 0.5, 0.5])
    out = apply(BEAMSPLITTER, balanced_h).amps
    np.testing.assert_allclose(out, [1 / SQ2, 1 / SQ2, 0, 0], atol=ATOL)
    assert abs(out[0]) ** 2 + abs(out[1]) ** 2 == pytest.approx(1.0, abs=ATOL)


def test_wave_plate_turns_post_state_into_pre_state(pre_post):
    pre, post = pre_post
    np.testing.assert_allclose(apply(HALF_WAVE_PLATE_ARM2, post).amps, pre.amps, atol=ATOL)


def test_post_state_reaches_d1_with_certainty(pre_post):
    _, post = pre_post
    probabilities = bare_probabilities(post)
    assert probabilities[Detector.D1] == pytest.approx(1.0, abs=ATOL)
    assert probabilities[Detector.D2] == pytest.approx(0.0, abs=ATOL)
    assert probabilities[Detector.D3] == pytest.approx(0.0, abs=ATOL)


@pytest.mark.parametrize(
    "amps",
    [
        [0.5, 0.5, 0.5, 0.5],  # pre-state, propagated by hand
        [1, 0, 0, 0],  # photon in arm 1, left circular
    ],
)
def test_detection_probabilities_by_hand(amps):
    probabilities = bare_probabilities(Ket(amps))
    assert probabilities[Detector.D1] == pytest.approx(0.25, abs=ATOL)
    assert probabilities[Detector.D2] == pytest.approx(0.5, abs=ATOL)
    assert probabilities[Detector.D3] == pytest.approx(0.25, abs=ATOL)


def test_rejects_unnormalized_input():
    # An experiment checks its pre-state when it is built, before any analysis.
    with pytest.raises(ValueError, match="pre-state"):
        Experiment(pre=Ket([1, 1, 0, 0]), couplings=())
    # The bound: squared norm within ATOL of 1.
    bare_probabilities(Ket([np.sqrt(1 + 0.5 * ATOL), 0, 0, 0]))
    with pytest.raises(ValueError, match="pre-state .*sum to 1"):
        Experiment(pre=Ket([np.sqrt(1 + 1.5 * ATOL), 0, 0, 0]), couplings=())


def test_postselection_equivalence_random_states(pre_post, random_state):
    # The module's central contract: a D1 click is exactly a projection on
    # the post-state, whatever the input.
    _, post = pre_post
    rng = np.random.default_rng(2024)
    for _ in range(150):
        state = random_state(rng)
        probabilities = bare_probabilities(state)
        expected = abs(inner(post, state)) ** 2
        assert probabilities[Detector.D1] == pytest.approx(expected, abs=ATOL)
        assert sum(probabilities.values()) == pytest.approx(1.0, abs=ATOL)
        # Each detector's probability is <s|M_k|s> with its traced-back projector.
        for detector, proj in detector_projectors().items():
            assert probabilities[detector] == pytest.approx(np.vdot(state.amps, proj @ state.amps).real, abs=ATOL)


def test_full_chain_is_unitary():
    assert CHAIN == (HALF_WAVE_PLATE_ARM2, BEAMSPLITTER, POLARISING_BS)
    total = np.eye(4, dtype=complex)
    for element in CHAIN:
        total = element @ total
    np.testing.assert_allclose(total @ total.conj().T, np.eye(4), rtol=0, atol=ATOL)
    # The detector projectors are built from this product: M_D1 = U^dag P_(L,H) U.
    d1_row = total[[0], :]
    np.testing.assert_array_equal(detector_projectors()[Detector.D1], d1_row.conj().T @ d1_row)


def test_detector_projectors_resolve_identity():
    projectors = detector_projectors()
    assert set(projectors) == set(Detector)
    total = sum(projectors.values())
    np.testing.assert_allclose(total, np.eye(4), atol=ATOL)
    for detector, proj in projectors.items():
        np.testing.assert_allclose(proj, proj.conj().T, rtol=0, atol=ATOL, err_msg=detector)
        np.testing.assert_allclose(proj @ proj, proj, rtol=0, atol=ATOL, err_msg=detector)
    assert np.linalg.matrix_rank(projectors[Detector.D1]) == 1
    assert np.linalg.matrix_rank(projectors[Detector.D2]) == 2
    assert np.linalg.matrix_rank(projectors[Detector.D3]) == 1


def test_postselected_state_is_canonical_post(pre_post):
    _, post = pre_post
    np.testing.assert_allclose(postselected_state().amps, post.amps, atol=ATOL)


def test_circuit_constants_are_cached_read_only():
    projectors = detector_projectors()
    pristine = {detector: proj.copy() for detector, proj in projectors.items()}
    projectors[Detector.D1] = np.zeros((4, 4))
    del projectors[Detector.D2]
    again = detector_projectors()
    assert set(again) == set(Detector)
    for detector, proj in again.items():
        assert not proj.flags.writeable
        np.testing.assert_array_equal(proj, pristine[detector])
        with pytest.raises(ValueError):
            proj[0, 0] = 1.0
    for element in CHAIN:
        assert not element.flags.writeable
    assert postselected_state() is postselected_state()
    assert not postselected_state().amps.flags.writeable
