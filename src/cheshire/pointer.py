"""Exact von Neumann pointer model for weak-through-strong measurements.

A measurement couples the photon to a Gaussian beam-displacement pointer:
the eigenspace with eigenvalue ``a`` displaces the beam by ``coupling * a``
along the pointer's axis.  Because the coupling is diagonal per eigenspace,
the joint state stays a finite sum of (system branch, displacement vector)
terms and the post-selected pointer state is an exact complex-weighted
mixture of displaced Gaussians.  All readout statistics then reduce to
Gaussian overlap (Gram) sums in closed form; no wavepacket grid is evolved.

The pointer wavefunction is G(x) = (2 pi s^2)^(-1/4) exp(-x^2 / (4 s^2)),
i.e. ``width`` s is the standard deviation of the position *density*.  Two
displaced copies overlap as <G_d1|G_d2> = exp(-(d1-d2)^2 / (8 s^2)); every
formula below depends on this convention.

coupling/width >> 1 is the strong (projective) regime: separated lobes with
the conditional-probability masses.  coupling/width << 1 is the weak regime:
a single Gaussian displaced by coupling times the real part of the weak
value, at the price of needing many repetitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .qstate import ATOL, Ket, SpectralObservable, inner, validate_spectral

#: Post-selection success probabilities below this are treated as impossible.
NULL_TOLERANCE = 1e-15

#: Branches with system norm or post-selected weight below this are dropped.
_PRUNE = 1e-14


class Axis(Enum):
    VERTICAL = "vertical"
    HORIZONTAL = "horizontal"


class DuplicateAxis(ValueError):
    """A pointer axis is already occupied in this experiment."""


class NullPostSelection(ValueError):
    """The post-selection can never succeed for this coupled state."""


@dataclass(frozen=True)
class GaussianPointer:
    """Gaussian beam pointer: ``width`` is the position-density standard
    deviation and ``coupling`` the displacement per unit eigenvalue, both in
    the same length units."""

    width: float
    coupling: float
    axis: Axis

    def __post_init__(self) -> None:
        if not (np.isfinite(self.width) and self.width > 0):
            raise ValueError("pointer width must be positive and finite")
        if not (np.isfinite(self.coupling) and self.coupling >= 0):
            raise ValueError("pointer coupling must be nonnegative and finite")


@dataclass(frozen=True)
class CoupledState:
    """Photon entangled with one or more pointers.

    Each branch pairs an (unnormalized) system ket with its accumulated
    pointer displacements, one per attached pointer in ``pointers`` order.
    Branch squared norms sum to 1: the coupling is unitary.
    """

    branches: tuple[tuple[Ket, tuple[float, ...]], ...]
    pointers: tuple[GaussianPointer, ...]

    def __post_init__(self) -> None:
        axes = [p.axis for p in self.pointers]
        if len(set(axes)) != len(axes):
            raise DuplicateAxis("each pointer axis may be used at most once")
        total = 0.0
        for system, displacements in self.branches:
            if len(displacements) != len(self.pointers):
                raise ValueError("each branch needs one displacement per pointer")
            total += system.norm() ** 2
        if abs(total - 1.0) > ATOL:
            raise ValueError(f"branch squared norms must sum to 1, got {total!r}")

    def axes(self) -> tuple[Axis, ...]:
        return tuple(p.axis for p in self.pointers)


def couple(
    state_or_coupled: Ket | CoupledState,
    obs: SpectralObservable,
    pointer: GaussianPointer,
) -> CoupledState:
    """Attach a pointer measuring ``obs`` to a state or an existing coupling.

    Every existing branch splits per eigenspace: the projected system picks
    up an extra displacement ``coupling * eigenvalue`` on the new axis.
    Branches projected to (near) zero are dropped.  Raises DuplicateAxis if
    the axis is already in use.
    """
    violation = validate_spectral(obs)
    if violation is not None:
        raise ValueError(f"invalid spectral observable: {violation}")
    if isinstance(state_or_coupled, Ket):
        if abs(state_or_coupled.norm() - 1.0) > ATOL:
            raise ValueError("couple requires a normalized initial state")
        coupled = CoupledState(branches=((state_or_coupled, ()),), pointers=())
    else:
        coupled = state_or_coupled
    if pointer.axis in coupled.axes():
        raise DuplicateAxis(f"axis {pointer.axis.value} already carries a pointer")
    branches: list[tuple[Ket, tuple[float, ...]]] = []
    for system, displacements in coupled.branches:
        for value, proj in obs.branches:
            projected = Ket(proj @ system.amps, normalized=False)
            if projected.norm() < _PRUNE:
                continue
            branches.append((projected, displacements + (pointer.coupling * value,)))
    return CoupledState(branches=tuple(branches), pointers=coupled.pointers + (pointer,))


@dataclass(frozen=True)
class PointerMixture:
    """Post-selected pointer state: complex weights on displaced Gaussians.

    The (unnormalized) position density is |sum_i w_i prod_ax G(x_ax -
    d_i_ax)|^2; the normalization constant is the Gram sum returned by
    :func:`postselect_pointer` as the success probability.
    """

    weights: tuple[complex, ...]
    displacements: tuple[tuple[float, ...], ...]
    widths: tuple[float, ...]
    axes: tuple[Axis, ...]

    def __post_init__(self) -> None:
        if not self.weights:
            raise ValueError("mixture needs at least one branch")
        if len(self.displacements) != len(self.weights):
            raise ValueError("one displacement vector per weight required")
        if not (len(self.widths) == len(self.axes)):
            raise ValueError("one width per axis required")
        for d in self.displacements:
            if len(d) != len(self.axes):
                raise ValueError("displacement dimension must match axis count")


class Moments(NamedTuple):
    mean: float
    variance: float


def _overlap_matrix(displacements: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """Gram matrix O_ij = prod_ax exp(-((d_i - d_j) / s)^2 / 8) of displaced Gaussians.

    Dividing by s before squaring keeps the exponent accurate for widths
    whose square is not a normal float64.
    """
    if displacements.shape[1] == 0:
        return np.ones((displacements.shape[0], displacements.shape[0]))
    diff = displacements[:, None, :] - displacements[None, :, :]
    return np.exp(-np.sum((diff / widths) ** 2 / 8.0, axis=-1))


def branch_overlaps(coupled: CoupledState) -> np.ndarray:
    """Pointer-overlap Gram matrix between the branches of a coupled state."""
    displacements = np.array([d for _, d in coupled.branches], dtype=float).reshape(
        len(coupled.branches), len(coupled.pointers)
    )
    widths = np.array([p.width for p in coupled.pointers], dtype=float)
    return _overlap_matrix(displacements, widths)


def postselect_pointer(coupled: CoupledState, post: Ket) -> tuple[PointerMixture, float]:
    """Project the system on a post-state, leaving the pointers' mixed state.

    Branch i keeps weight <post|branch_i>; the success probability is the
    Gram form sum_ij conj(w_i) w_j O_ij, which is real and nonnegative.
    Raises NullPostSelection when that probability is below NULL_TOLERANCE.
    """
    weights = np.array([inner(post, system) for system, _ in coupled.branches])
    gram = branch_overlaps(coupled)
    success = float(np.real(weights.conj() @ gram @ weights))
    if success < NULL_TOLERANCE:
        raise NullPostSelection("post-state is orthogonal to every surviving branch")
    displacements = [d for _, d in coupled.branches]
    keep = np.abs(weights) > _PRUNE * max(1.0, float(np.max(np.abs(weights))))
    mixture = PointerMixture(
        weights=tuple(complex(w) for w, k in zip(weights, keep) if k),
        displacements=tuple(d for d, k in zip(displacements, keep) if k),
        widths=tuple(p.width for p in coupled.pointers),
        axes=coupled.axes(),
    )
    return mixture, success


def _mixture_arrays(m: PointerMixture) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    weights = np.asarray(m.weights, dtype=np.complex128)
    displacements = np.asarray(m.displacements, dtype=float).reshape(len(m.weights), len(m.axes))
    widths = np.asarray(m.widths, dtype=float)
    return weights, displacements, widths


def _gram_total(weights: np.ndarray, gram: np.ndarray) -> float:
    total = weights.conj() @ gram @ weights
    if total.real < NULL_TOLERANCE:
        raise NullPostSelection("mixture has vanishing normalization")
    return float(total.real)


def mixture_moments(m: PointerMixture) -> dict[Axis, Moments]:
    """Per-axis mean and variance of the pointer density, in closed form.

    Uses the Gaussian product rule: the cross term of branches i and j
    contributes overlap O_ij centred at the midpoint (d_i + d_j)/2 with the
    single-Gaussian variance, so

        mean  = sum_ij conj(w_i) w_j O_ij (d_i + d_j)/2   / Z
        E[x^2] = sum_ij conj(w_i) w_j O_ij [((d_i + d_j)/2)^2 + s^2] / Z

    with Z the Gram sum.  Both are hermitian forms, hence real.
    """
    weights, displacements, widths = _mixture_arrays(m)
    gram = _overlap_matrix(displacements, widths)
    z = _gram_total(weights, gram)
    coeff = np.einsum("i,ij,j->ij", weights.conj(), gram, weights)
    result: dict[Axis, Moments] = {}
    for k, axis in enumerate(m.axes):
        mid = 0.5 * (displacements[:, k][:, None] + displacements[:, k][None, :])
        mean = np.sum(coeff * mid) / z
        second = np.sum(coeff * (mid**2 + widths[k] ** 2)) / z
        assert abs(mean.imag) <= 1e-12 * max(1.0, abs(mean.real))
        assert abs(second.imag) <= 1e-12 * max(1.0, abs(second.real))
        variance = second.real - mean.real**2
        result[axis] = Moments(mean=float(mean.real), variance=float(variance))
    return result


def mixture_density(m: PointerMixture, point) -> float | np.ndarray:
    """Normalized probability density of the pointer readout.

    ``point`` is one displacement-space point of dimension len(axes), or an
    array of shape (..., len(axes)) for batched evaluation.
    """
    weights, displacements, widths = _mixture_arrays(m)
    gram = _overlap_matrix(displacements, widths)
    z = _gram_total(weights, gram)
    points = np.asarray(point, dtype=float)
    batch_shape = points.shape[:-1]
    scalar = points.ndim == 1
    points = points.reshape(-1, points.shape[-1]) if points.ndim > 0 else points
    if points.ndim != 2 or points.shape[-1] != len(m.axes):
        raise ValueError(f"point dimension must be {len(m.axes)}")
    # Gaussian amplitudes per branch: prod_ax (2 pi s^2)^(-1/4) exp(-(x-d)^2/(4 s^2))
    norm_const = float(np.prod((2.0 * np.pi * widths**2) ** -0.25))
    delta = points[..., None, :] - displacements  # (..., branch, axis)
    amps = norm_const * np.exp(-np.sum(delta**2 / (4.0 * widths**2), axis=-1))
    psi = amps @ weights
    density = np.abs(psi) ** 2 / z
    return float(density[0]) if scalar else density.reshape(batch_shape)
