"""The interferometer's fixed detection chain as 4x4 unitaries plus detector routing.

The detection chain applied to a state *inside* the interferometer arms is:
half-wave plate in arm 2, recombining beamsplitter, polarising beamsplitter
(:data:`CHAIN`, in that order).  After the beamsplitter the path slot means
output port (left/right) instead of arm, and after the PBS the polarisation
slot means linear H/V, so the output basis is (L,H), (L,V), (R,H), (R,V).
The left port is split by polarisation onto two detectors while the right
port is caught whole:

    (L,H) -> D1        (L,V) -> D3        (R,*) -> D2

A D1 click post-selects exactly one state inside the arms; that state is
recovered by :func:`postselected_state` and equals the canonical post-state.

Beamsplitters use the real balanced (Hadamard-like) convention
|1> -> (|L> + |R>)/sqrt(2), |2> -> (|L> - |R>)/sqrt(2).  Any other 50:50
convention differs only by compensating phases; the convention-independent
contract is P(D1) = |<post|state>|^2, which the tests check directly.
Click probabilities, of a bare state as of one coupled to pointers, come
from :func:`cheshire.montecarlo.analyze`; a bare state is
``Experiment(pre=state, couplings=())``.

The chain is fixed, so its elements, unitary, detector projectors and
post-selected state are read-only module constants, computed once at
import.  :func:`detector_projectors` returns a new dict of the shared
projectors on each call.
"""

from __future__ import annotations

from enum import Enum
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .qstate import Ket, identity, normalize

# Balanced 50:50 mixing of two modes, real (Hadamard-like) convention.
_MIXER = np.array([[1, 1], [1, -1]], dtype=np.complex128) * (1.0 / np.sqrt(2.0))


def _read_only(matrix: np.ndarray) -> np.ndarray:
    matrix.setflags(write=False)
    return matrix


#: H <-> V swap in arm 2 == diag(1, -1) on circular polarisation there.
HALF_WAVE_PLATE_ARM2 = _read_only(np.diag([1, 1, 1, -1]).astype(np.complex128))
#: Recombining beamsplitter: mixes the arms into the left and right ports.
BEAMSPLITTER = _read_only(np.kron(_MIXER, np.eye(2, dtype=np.complex128)))
#: Polarising beamsplitter: circular -> linear polarisation rows (H, V) in each port.
POLARISING_BS = _read_only(np.kron(np.eye(2, dtype=np.complex128), _MIXER))
#: The elements in the order the photon meets them.
CHAIN = (HALF_WAVE_PLATE_ARM2, BEAMSPLITTER, POLARISING_BS)


class Detector(str, Enum):
    D1 = "D1"
    D2 = "D2"
    D3 = "D3"


# Output-basis indices each detector catches, in the (L,H),(L,V),(R,H),(R,V) order.
_DETECTOR_MODES: Mapping[Detector, tuple[int, ...]] = MappingProxyType(
    {Detector.D1: (0,), Detector.D2: (2, 3), Detector.D3: (1,)}
)


def _chain_unitary() -> np.ndarray:
    total = identity()
    for element in CHAIN:
        total = element @ total
    return _read_only(total)


_UNITARY = _chain_unitary()


def _projector(modes: tuple[int, ...]) -> np.ndarray:
    rows = _UNITARY[list(modes), :]
    return _read_only(rows.conj().T @ rows)


_PROJECTORS = MappingProxyType({det: _projector(modes) for det, modes in _DETECTOR_MODES.items()})
(_D1_MODE,) = _DETECTOR_MODES[Detector.D1]
_POST_STATE = normalize(Ket(_UNITARY.conj().T[:, _D1_MODE]))


def detector_projectors() -> dict[Detector, np.ndarray]:
    """Projector (in the inside-the-arms basis) onto each detector's subspace.

    ``M_k = U^dag P_k U`` with U the chain unitary and P_k the projector
    onto the detector's output modes.  A click at detector k on state s has
    probability <s|M_k|s>, and the D1 projector is rank one: post-selection.
    The projectors are shared read-only arrays, in a new dict.
    """
    return dict(_PROJECTORS)


def postselected_state() -> Ket:
    """The unique state inside the arms that reaches D1 with certainty.

    Traced back through the chain as U^dag |D1 mode>; this is the canonical
    post-state.
    """
    return _POST_STATE
