import numpy as np
import pytest

from cheshire import (
    ATOL,
    Circuit,
    Detector,
    ElementKind,
    OpticalElement,
    OutputMode,
    apply,
    detector_projectors,
    element_unitary,
    inner,
    is_projector,
    is_unitary,
    ket,
    postselected_state,
    run_interferometer,
    standard_circuit,
)
from cheshire.optics import circuit_unitary

SQ2 = np.sqrt(2.0)

ALL_ELEMENTS = [
    OpticalElement(ElementKind.BEAMSPLITTER_IN),
    OpticalElement(ElementKind.BEAMSPLITTER_OUT),
    OpticalElement(ElementKind.HALF_WAVE_PLATE, arm=1),
    OpticalElement(ElementKind.HALF_WAVE_PLATE, arm=2),
    OpticalElement(ElementKind.POLARISING_BS),
]


@pytest.mark.parametrize("element", ALL_ELEMENTS, ids=lambda e: f"{e.kind.value}-{e.arm}")
def test_every_element_is_unitary(element):
    u = element_unitary(element)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(4), atol=ATOL)


def test_element_argument_validation():
    with pytest.raises(ValueError):
        OpticalElement(ElementKind.HALF_WAVE_PLATE)
    with pytest.raises(ValueError):
        OpticalElement(ElementKind.HALF_WAVE_PLATE, arm=3)
    with pytest.raises(ValueError):
        OpticalElement(ElementKind.BEAMSPLITTER_OUT, arm=1)


def test_input_beamsplitter_prepares_pre_state(pre_post):
    # A horizontally polarised photon entering one port comes out as the pre-state.
    pre, _ = pre_post
    bs_in = element_unitary(OpticalElement(ElementKind.BEAMSPLITTER_IN))
    arm1_h = ket([1 / SQ2, 1 / SQ2, 0, 0])
    np.testing.assert_allclose(apply(bs_in, arm1_h).amps, pre.amps, atol=ATOL)


def test_balanced_input_leaves_left_port():
    bs = element_unitary(OpticalElement(ElementKind.BEAMSPLITTER_OUT))
    balanced_h = ket([0.5, 0.5, 0.5, 0.5])
    out = apply(bs, balanced_h).amps
    np.testing.assert_allclose(out, [1 / SQ2, 1 / SQ2, 0, 0], atol=ATOL)
    assert abs(out[0]) ** 2 + abs(out[1]) ** 2 == pytest.approx(1.0, abs=ATOL)


def test_wave_plate_turns_post_state_into_pre_state(pre_post):
    pre, post = pre_post
    hwp = element_unitary(OpticalElement(ElementKind.HALF_WAVE_PLATE, arm=2))
    np.testing.assert_allclose(apply(hwp, post).amps, pre.amps, atol=ATOL)


def test_post_state_reaches_d1_with_certainty(pre_post):
    _, post = pre_post
    result = run_interferometer(post)
    assert result.probabilities[Detector.D1] == pytest.approx(1.0, abs=ATOL)
    assert result.probabilities[Detector.D2] == pytest.approx(0.0, abs=ATOL)
    assert result.probabilities[Detector.D3] == pytest.approx(0.0, abs=ATOL)


@pytest.mark.parametrize(
    "amps",
    [
        [0.5, 0.5, 0.5, 0.5],  # pre-state, propagated by hand
        [1, 0, 0, 0],  # photon in arm 1, left circular
    ],
)
def test_detection_probabilities_by_hand(amps):
    result = run_interferometer(ket(amps))
    assert result.probabilities[Detector.D1] == pytest.approx(0.25, abs=ATOL)
    assert result.probabilities[Detector.D2] == pytest.approx(0.5, abs=ATOL)
    assert result.probabilities[Detector.D3] == pytest.approx(0.25, abs=ATOL)


def test_rejects_unnormalized_input():
    with pytest.raises(ValueError):
        run_interferometer(ket([1, 1, 0, 0]))


def test_postselection_equivalence_random_states(pre_post, random_state):
    # The module's central contract: a D1 click is exactly a projection on
    # the post-state, whatever the input.
    _, post = pre_post
    rng = np.random.default_rng(2024)
    for _ in range(150):
        state = random_state(rng)
        result = run_interferometer(state)
        expected = abs(inner(post, state)) ** 2
        assert result.probabilities[Detector.D1] == pytest.approx(expected, abs=ATOL)
        assert sum(result.probabilities.values()) == pytest.approx(1.0, abs=ATOL)
        if expected > 1e-6:
            conditional = result.conditional_states[Detector.D1]
            assert conditional.normalized
            # equal to the post-state up to a global phase
            assert abs(inner(post, conditional)) == pytest.approx(1.0, abs=1e-9)


def test_conditional_states_are_normalized_projections(pre_post, random_state):
    rng = np.random.default_rng(99)
    state = random_state(rng)
    result = run_interferometer(state)
    projectors = detector_projectors()
    for detector, conditional in result.conditional_states.items():
        assert conditional.norm() == pytest.approx(1.0, abs=ATOL)
        projected = projectors[detector] @ state.amps
        np.testing.assert_allclose(
            conditional.amps, projected / np.linalg.norm(projected), atol=1e-9
        )


def test_full_chain_is_unitary():
    total = np.eye(4, dtype=complex)
    for element in standard_circuit().elements:
        total = element_unitary(element) @ total
    assert is_unitary(total)


def test_detector_projectors_resolve_identity():
    projectors = detector_projectors()
    assert set(projectors) == set(Detector)
    total = sum(projectors.values())
    np.testing.assert_allclose(total, np.eye(4), atol=ATOL)
    for detector, proj in projectors.items():
        assert is_projector(proj), detector
    assert np.linalg.matrix_rank(projectors[Detector.D1]) == 1
    assert np.linalg.matrix_rank(projectors[Detector.D2]) == 2
    assert np.linalg.matrix_rank(projectors[Detector.D3]) == 1


def test_postselected_state_is_canonical_post(pre_post):
    _, post = pre_post
    np.testing.assert_allclose(postselected_state().amps, post.amps, atol=ATOL)


def test_detector_map_must_be_bijection():
    elements = standard_circuit().elements
    with pytest.raises(ValueError):
        Circuit(
            elements=elements,
            detector_map={
                OutputMode.LEFT_H: Detector.D1,
                OutputMode.LEFT_V: Detector.D1,
                OutputMode.RIGHT: Detector.D2,
            },
        )
    with pytest.raises(ValueError):
        Circuit(elements=elements, detector_map={OutputMode.LEFT_H: Detector.D1})


def test_circuit_constants_are_cached_read_only():
    assert standard_circuit() is standard_circuit()
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
    assert not circuit_unitary().flags.writeable
    assert circuit_unitary() is circuit_unitary(standard_circuit())
    assert not postselected_state().amps.flags.writeable


def test_each_circuit_caches_its_own_projectors():
    # D1 and D3 swapped: D1 now post-selects the V output of the left port.
    swapped = Circuit(
        elements=standard_circuit().elements,
        detector_map={
            OutputMode.LEFT_H: Detector.D3,
            OutputMode.LEFT_V: Detector.D1,
            OutputMode.RIGHT: Detector.D2,
        },
    )
    standard = detector_projectors()
    projectors = detector_projectors(swapped)
    np.testing.assert_array_equal(projectors[Detector.D1], standard[Detector.D3])
    np.testing.assert_array_equal(projectors[Detector.D3], standard[Detector.D1])
    post = postselected_state(swapped)
    assert abs(inner(post, postselected_state())) < ATOL
    assert np.vdot(post.amps, projectors[Detector.D1] @ post.amps).real == pytest.approx(1.0, abs=ATOL)
