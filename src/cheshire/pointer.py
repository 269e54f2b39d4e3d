"""Exact von Neumann pointer model for weak-through-strong measurements.

A measurement couples the photon to a Gaussian beam-displacement pointer:
the eigenspace with eigenvalue ``a`` displaces the beam by ``coupling * a``
along the pointer's axis.  Because the coupling is diagonal per eigenspace,
the joint state stays a finite sum of (system branch, displacement vector)
terms and the post-selected pointer state is an exact complex-weighted
mixture of displaced Gaussians.  All readout statistics then reduce to
Gaussian overlap (Gram) sums in closed form; no wavepacket grid is evolved.

Each mixture computes these sums once, as its pair expansion
(:attr:`PointerMixture.expansion`); the success probability, the moments,
the density and the readout sampler in ``cheshire.montecarlo`` all read it.

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

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
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


class PairExpansion(NamedTuple):
    """A mixture's density as a signed sum of midpoint Gaussians (see PointerMixture)."""

    weights: np.ndarray  # complex w_i, shape (branches,)
    displacements: np.ndarray  # d_i, shape (branches, axes)
    widths: np.ndarray  # s, shape (axes,)
    total: float  # Z, the Gram sum
    coefficients: np.ndarray  # Re c_ij for i <= j, off-diagonal doubled
    midpoints: np.ndarray  # m_ij, shape (pairs, axes)


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

    @cached_property
    def expansion(self) -> PairExpansion:
        """The density as a signed sum of midpoint Gaussians (Gaussian product rule):

            f(x) = sum_{i<=j} Re(c_ij) N(x; m_ij, s^2),
            c_ij = conj(w_i) w_j O_ij / Z,   m_ij = (d_i + d_j) / 2,

        with O the overlap Gram matrix and Z = sum_ij conj(w_i) w_j O_ij.
        Pairs (i, j) and (j, i) share the midpoint and the real part, so
        off-diagonal coefficients are doubled; pairs are in row-major branch
        order.  Sums run in a fixed order: sampled readouts depend on these
        bits.  Raises NullPostSelection when Z < NULL_TOLERANCE.
        """
        weights = np.asarray(self.weights, dtype=np.complex128)
        displacements = np.asarray(self.displacements, dtype=float).reshape(len(self.weights), len(self.axes))
        widths = np.asarray(self.widths, dtype=float)
        products = (weights.conj()[:, None] * weights[None, :] * _overlap_matrix(displacements, widths)).real
        total = float(products.sum())
        if total < NULL_TOLERANCE:
            raise NullPostSelection("post-selected pointer state has vanishing norm")
        i, j = np.triu_indices(len(weights))
        return PairExpansion(
            weights=weights,
            displacements=displacements,
            widths=widths,
            total=total,
            coefficients=np.where(i == j, 1.0, 2.0) * products[i, j] / total,
            midpoints=0.5 * (displacements[i] + displacements[j]),
        )


class Moments(NamedTuple):
    mean: float
    variance: float


def _overlap_matrix(displacements: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """Gram matrix O_ij = prod_ax exp(-((d_i - d_j) / s)^2 / 8) of displaced Gaussians.

    Dividing by s before squaring keeps the exponent accurate for widths
    whose square is not a normal float64.  An overflowing exponent is a sum
    of squares, so exp(-inf) = 0 is exact and the overflow is not reported.
    """
    diff = displacements[:, None, :] - displacements[None, :, :]
    with np.errstate(over="ignore"):
        return np.exp(-np.sum((diff / widths) ** 2 / 8.0, axis=-1))


def _gaussian_kernels(points: np.ndarray, centres: np.ndarray, widths: np.ndarray, scale: float) -> np.ndarray:
    """exp(-sum_ax (x - c)^2 / (scale s^2)), shape (centres, points).

    Sums run in a fixed order over axes (no BLAS), so a row's value does not
    depend on how many rows are evaluated with it.  Overflowing exponents
    give the exact limit 0, as in :func:`_overlap_matrix`.
    """
    exponent = np.zeros((centres.shape[0], points.shape[0]))
    with np.errstate(over="ignore"):
        for k, width in enumerate(widths.tolist()):
            delta = points[:, k] - centres[:, k, None]
            exponent += delta * delta / (scale * width * width)
        return np.exp(-exponent)


def _gaussian_norm(widths: np.ndarray) -> float:
    """prod_ax 1 / sqrt(2 pi s^2): the peak of a unit-mass Gaussian over the axes."""
    return float(np.prod(1.0 / np.sqrt(2.0 * np.pi * widths**2)))


def branch_overlaps(coupled: CoupledState) -> np.ndarray:
    """Pointer-overlap Gram matrix between the branches of a coupled state."""
    displacements = np.array([d for _, d in coupled.branches], dtype=float).reshape(
        len(coupled.branches), len(coupled.pointers)
    )
    widths = np.array([p.width for p in coupled.pointers], dtype=float)
    return _overlap_matrix(displacements, widths)


def postselect_pointer(coupled: CoupledState, post: Ket) -> tuple[PointerMixture, float]:
    """Project the system on a post-state, leaving the pointers' mixed state.

    Branch i keeps weight <post|branch_i>, and branches of negligible weight
    are dropped.  The success probability is the mixture's Gram sum Z =
    sum_ij conj(w_i) w_j O_ij, which is real and nonnegative.  Raises
    NullPostSelection when it is below NULL_TOLERANCE.
    """
    weights = np.array([inner(post, system) for system, _ in coupled.branches])
    keep = np.abs(weights) > _PRUNE * max(1.0, float(np.max(np.abs(weights))))
    if not keep.any():
        raise NullPostSelection("post-state is orthogonal to every surviving branch")
    mixture = PointerMixture(
        weights=tuple(complex(w) for w, k in zip(weights, keep) if k),
        displacements=tuple(d for (_, d), k in zip(coupled.branches, keep) if k),
        widths=tuple(p.width for p in coupled.pointers),
        axes=coupled.axes(),
    )
    return mixture, mixture.expansion.total


def mixture_moments(m: PointerMixture) -> dict[Axis, Moments]:
    """Per-axis mean and variance of the pointer density, in closed form.

    Each term of the pair expansion (:attr:`PointerMixture.expansion`) is a
    Gaussian of variance s^2 centred at its midpoint m_p, so

        mean   = sum_p c_p m_p
        E[x^2] = sum_p c_p (m_p^2 + s^2)

    with c_p the real pair coefficients, which sum to 1.
    """
    pairs = m.expansion
    coefficients = pairs.coefficients[:, None]
    # Fixed-order sums: symmetric terms cancel exactly, as BLAS may not.
    means = (coefficients * pairs.midpoints).sum(axis=0)
    seconds = (coefficients * (pairs.midpoints**2 + pairs.widths**2)).sum(axis=0)
    return {
        axis: Moments(mean=float(means[k]), variance=float(seconds[k] - means[k] ** 2))
        for k, axis in enumerate(m.axes)
    }


def mixture_density(m: PointerMixture, point) -> float | np.ndarray:
    """Normalized probability density of the pointer readout, |sum_i w_i A_i(x)|^2 / Z.

    A_i is the branch's Gaussian amplitude prod_ax G(x_ax - d_i_ax).
    ``point`` is one displacement-space point of dimension len(axes), or an
    array of shape (..., len(axes)) for batched evaluation.
    """
    pairs = m.expansion
    points = np.asarray(point, dtype=float)
    if points.ndim == 0 or points.shape[-1] != len(m.axes):
        raise ValueError(f"point dimension must be {len(m.axes)}")
    batch_shape = points.shape[:-1]
    flat = points.reshape(math.prod(batch_shape), len(m.axes))
    amps = _gaussian_kernels(flat, pairs.displacements, pairs.widths, 4.0)
    real = (pairs.weights.real[:, None] * amps).sum(axis=0)
    imag = (pairs.weights.imag[:, None] * amps).sum(axis=0)
    density = (_gaussian_norm(pairs.widths) / pairs.total) * (real * real + imag * imag)
    return float(density[0]) if points.ndim == 1 else density.reshape(batch_shape)
