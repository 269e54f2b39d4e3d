"""The interferometer apparatus as composable unitaries plus detector routing.

The detection chain applied to a state *inside* the interferometer arms is:
half-wave plate in arm 2, recombining beamsplitter, polarising beamsplitter.
After the beamsplitter the path slot means output port (left/right) instead
of arm, and after the PBS the polarisation slot means linear H/V, so the
output basis is (L,H), (L,V), (R,H), (R,V).  The left port is split by
polarisation onto two detectors while the right port is caught whole:

    (L,H) -> D1        (L,V) -> D3        (R,*) -> D2

A D1 click post-selects exactly one state inside the arms; that state is
recovered by :func:`postselected_state` and equals the canonical post-state.

Beamsplitters use the real balanced (Hadamard-like) convention
|1> -> (|L> + |R>)/sqrt(2), |2> -> (|L> - |R>)/sqrt(2).  Any other 50:50
convention differs only by compensating phases; the convention-independent
contract is P(D1) = |<post|state>|^2, which the tests check directly.

A circuit is immutable, so its unitary, detector projectors and
post-selected state are computed once per circuit, as read-only arrays, and
:func:`standard_circuit` returns one shared instance: the standard chain is
built once per process.  :func:`detector_projectors` returns a new dict of
the shared projectors on each call.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cache, cached_property
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .qstate import ATOL, DIM, Ket, identity, ket, normalize

_SQRT2_INV = 1.0 / np.sqrt(2.0)


class ElementKind(Enum):
    BEAMSPLITTER_IN = "beamsplitter_in"
    HALF_WAVE_PLATE = "half_wave_plate"
    BEAMSPLITTER_OUT = "beamsplitter_out"
    POLARISING_BS = "polarising_bs"


@dataclass(frozen=True)
class OpticalElement:
    """One apparatus piece; only the half-wave plate takes an arm argument."""

    kind: ElementKind
    arm: int | None = None

    def __post_init__(self) -> None:
        if self.kind is ElementKind.HALF_WAVE_PLATE:
            if self.arm not in (1, 2):
                raise ValueError("half-wave plate needs arm 1 or 2")
        elif self.arm is not None:
            raise ValueError(f"{self.kind.value} takes no arm argument")


class Detector(str, Enum):
    D1 = "D1"
    D2 = "D2"
    D3 = "D3"


class OutputMode(Enum):
    """Distinguishable output channels after the PBS."""

    LEFT_H = "left_h"
    LEFT_V = "left_v"
    RIGHT = "right"


# Output-basis indices covered by each mode, in the (L,H),(L,V),(R,H),(R,V) order.
_MODE_INDICES: dict[OutputMode, tuple[int, ...]] = {
    OutputMode.LEFT_H: (0,),
    OutputMode.LEFT_V: (1,),
    OutputMode.RIGHT: (2, 3),
}


def element_unitary(element: OpticalElement) -> np.ndarray:
    """The 4x4 unitary of one optical element in the canonical basis."""
    kind = element.kind
    if kind in (ElementKind.BEAMSPLITTER_IN, ElementKind.BEAMSPLITTER_OUT):
        mixer = np.array([[1, 1], [1, -1]], dtype=np.complex128) * _SQRT2_INV
        return np.kron(mixer, np.eye(2, dtype=np.complex128))
    if kind is ElementKind.HALF_WAVE_PLATE:
        # H <-> V swap in one arm == diag(1, -1) on circular polarisation there.
        blocks = [np.eye(2, dtype=np.complex128), np.eye(2, dtype=np.complex128)]
        blocks[element.arm - 1] = np.diag([1.0 + 0j, -1.0 + 0j])
        out = np.zeros((DIM, DIM), dtype=np.complex128)
        out[:2, :2] = blocks[0]
        out[2:, 2:] = blocks[1]
        return out
    if kind is ElementKind.POLARISING_BS:
        # Circular -> linear polarisation rows (H, V) in each port.
        pol = np.array([[1, 1], [1, -1]], dtype=np.complex128) * _SQRT2_INV
        return np.kron(np.eye(2, dtype=np.complex128), pol)
    raise ValueError(f"unknown element kind {kind!r}")


@dataclass(frozen=True)
class Circuit:
    """Ordered detection chain plus the output-mode -> detector assignment."""

    elements: tuple[OpticalElement, ...]
    detector_map: Mapping[OutputMode, Detector]

    def __post_init__(self) -> None:
        object.__setattr__(self, "elements", tuple(self.elements))
        dmap = dict(self.detector_map)
        if set(dmap) != set(OutputMode) or set(dmap.values()) != set(Detector):
            raise ValueError("detector map must be a bijection from the three output modes onto D1-D3")
        object.__setattr__(self, "detector_map", MappingProxyType(dmap))

    @cached_property
    def _unitary(self) -> np.ndarray:
        """Product of the element unitaries, first element applied first; read-only."""
        total = identity()
        for element in self.elements:
            total = element_unitary(element) @ total
        total.setflags(write=False)
        return total

    @cached_property
    def _projectors(self) -> Mapping[Detector, np.ndarray]:
        """Read-only detector projectors; see :func:`detector_projectors`."""
        projectors: dict[Detector, np.ndarray] = {}
        for mode, detector in self.detector_map.items():
            rows = self._unitary[list(_MODE_INDICES[mode]), :]
            proj = rows.conj().T @ rows
            projectors[detector] = projectors.get(detector, 0) + proj
        for proj in projectors.values():
            proj.setflags(write=False)
        return MappingProxyType(projectors)

    @cached_property
    def _post_state(self) -> Ket:
        """The post-selected state; see :func:`postselected_state`."""
        d1_modes = [mode for mode, det in self.detector_map.items() if det is Detector.D1]
        indices = [i for mode in d1_modes for i in _MODE_INDICES[mode]]
        if len(indices) != 1:
            raise ValueError("D1 must cover exactly one output mode to define a post-selection")
        return normalize(ket(self._unitary.conj().T[:, indices[0]]))


@cache
def standard_circuit() -> Circuit:
    """The detection chain that post-selects the canonical post-state at D1.

    Every call returns the same immutable instance, so its cached unitary,
    projectors and post-state are computed once per process.
    """
    return Circuit(
        elements=(
            OpticalElement(ElementKind.HALF_WAVE_PLATE, arm=2),
            OpticalElement(ElementKind.BEAMSPLITTER_OUT),
            OpticalElement(ElementKind.POLARISING_BS),
        ),
        detector_map={
            OutputMode.LEFT_H: Detector.D1,
            OutputMode.LEFT_V: Detector.D3,
            OutputMode.RIGHT: Detector.D2,
        },
    )


def circuit_unitary(circuit: Circuit | None = None) -> np.ndarray:
    """Product of the circuit's element unitaries, first element applied first (read-only)."""
    return (circuit or standard_circuit())._unitary


def detector_projectors(circuit: Circuit | None = None) -> dict[Detector, np.ndarray]:
    """Projector (in the inside-the-arms basis) onto each detector's subspace.

    ``M_k = U^dag P_k U`` with U the circuit unitary and P_k the projector
    onto the detector's output modes.  A click at detector k on state s has
    probability <s|M_k|s>, and the D1 projector is rank one: post-selection.
    The projectors are the circuit's cached read-only arrays, in a new dict.
    """
    return dict((circuit or standard_circuit())._projectors)


def postselected_state(circuit: Circuit | None = None) -> Ket:
    """The unique state inside the arms that reaches D1 with certainty.

    Traced back through the circuit as U^dag |D1 mode>; with the standard
    circuit this is the canonical post-state.
    """
    return (circuit or standard_circuit())._post_state


@dataclass(frozen=True)
class DetectionResult:
    """Detector click probabilities and the conditional collapsed states.

    Conditional states are given in the inside-the-arms picture (the
    normalized projection of the input onto the detector's subspace) and are
    present only for detectors with nonzero click probability.
    """

    probabilities: dict[Detector, float]
    conditional_states: dict[Detector, Ket]


def run_interferometer(state_inside: Ket, circuit: Circuit | None = None) -> DetectionResult:
    """Send a state from inside the arms through the detection chain.

    Raises ValueError on unnormalized input: click probabilities are only
    meaningful for unit states.
    """
    if abs(state_inside.norm() - 1.0) > ATOL:
        raise ValueError("run_interferometer requires a normalized state")
    circuit = circuit or standard_circuit()
    projectors = detector_projectors(circuit)
    probabilities: dict[Detector, float] = {}
    conditional: dict[Detector, Ket] = {}
    for detector in Detector:
        collapsed = projectors[detector] @ state_inside.amps
        p = float(np.vdot(collapsed, collapsed).real)
        probabilities[detector] = p
        if p > ATOL:
            conditional[detector] = Ket(collapsed / np.sqrt(p), normalized=True)
    return DetectionResult(probabilities=probabilities, conditional_states=conditional)
