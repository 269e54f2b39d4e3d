"""Exact von Neumann pointer model for weak-through-strong measurements.

A measurement couples the photon to a Gaussian beam-displacement pointer:
the eigenspace with eigenvalue ``a`` displaces the beam by ``coupling * a``
along the pointer's axis.  Because the coupling is diagonal per eigenspace,
the joint state stays a finite sum of (system branch, displacement vector)
terms and the post-selected pointer state is an exact complex-weighted
mixture of displaced Gaussians.  All readout statistics then reduce to
Gaussian overlap (Gram) sums in closed form; no wavepacket grid is evolved.

Branches are array rows, from the branch structure ``cheshire.montecarlo``
builds once per pre-state and set of coupled observables to the sampler.
A mixture forms its pair expansion from the Gram sums once, when it is
built (:class:`PointerMixture`), and a mixture whose post-selection cannot
succeed is never built; the success probability, the moments, the density
and the readout sampler in ``cheshire.montecarlo`` all read that expansion.
Every Gaussian in the package, whether Gram overlap, branch amplitude or
envelope term, is exp of the one exponent ``_gaussian_exponent``, which
returns -sum_ax ((x - c) / s)^2 / scale with the sign already folded in.

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
from enum import Enum
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .qstate import _Frozen

#: Post-selection success probabilities below this are treated as impossible.
NULL_TOLERANCE = 1e-15


class Axis(Enum):
    VERTICAL = "vertical"
    HORIZONTAL = "horizontal"


class DuplicateAxis(ValueError):
    """A pointer axis is already occupied in this experiment."""


class NullPostSelection(ValueError):
    """The post-selection can never succeed for this coupled state."""


class _PointerFields(NamedTuple):
    width: float
    coupling: float
    axis: Axis


class GaussianPointer(_PointerFields):
    """Gaussian beam pointer: ``width`` is the position-density standard
    deviation and ``coupling`` the displacement per unit eigenvalue, both in
    the same length units.  Pointers compare and hash by value."""

    __slots__ = ()

    def __new__(cls, width: float, coupling: float, axis: Axis) -> GaussianPointer:
        if not (math.isfinite(width) and width > 0):
            raise ValueError("pointer width must be positive and finite")
        if not (math.isfinite(coupling) and coupling >= 0):
            raise ValueError("pointer coupling must be nonnegative and finite")
        return super().__new__(cls, width, coupling, axis)

    @classmethod
    def _make(cls, iterable) -> GaussianPointer:
        """Build through ``__new__``'s checks; ``_replace`` calls this, and NamedTuple's own ``_make`` skips them."""
        return cls(*iterable)


def _freeze(values, dtype) -> np.ndarray:
    """A read-only array copy of ``values``, which the caller cannot edit."""
    array = np.array(values, dtype=dtype)
    array.setflags(write=False)
    return array


class PointerMixture(_Frozen):
    """Post-selected pointer state: complex weights on displaced Gaussians.

    ``weights`` (complex, branches), ``displacements`` (branches x axes) and
    ``widths`` (axes) may be any sequences; they are stored as read-only
    array copies.  The unnormalized density is |sum_i w_i prod_ax G(x_ax -
    d_i_ax)|^2, whose norm is the post-selection's success probability.
    Weights and displacements must be finite and widths positive and
    finite, or ValueError is raised.  When built, the mixture also sets its
    pair expansion, the density as a signed sum of midpoint Gaussians
    (Gaussian product rule):

        f(x) = sum_{i<=j} Re(c_ij) N(x; m_ij, s^2),
        c_ij = conj(w_i) w_j O_ij / Z,   m_ij = (d_i + d_j) / 2,

    with O the overlap Gram matrix and ``total`` Z = sum_ij conj(w_i) w_j
    O_ij.  Pairs (i, j) and (j, i) share the midpoint and the real part, so
    off-diagonal ``coefficients`` Re c_ij are doubled; ``midpoints`` m_ij
    has shape (pairs, axes), pairs in row-major branch order.  Sums run in
    a fixed order: sampled readouts depend on these bits.  Both arrays are
    read-only.  A caller that has the Gram matrix of these branches passes
    it as ``_gram``; it is not kept.  Raises NullPostSelection when Z <
    NULL_TOLERANCE.
    """

    def __init__(self, weights, displacements, widths, axes: tuple[Axis, ...], _gram: np.ndarray | None = None) -> None:
        weights = _freeze(weights, np.complex128)
        displacements = _freeze(displacements, float)
        widths = _freeze(widths, float)
        vars(self).update(weights=weights, displacements=displacements, widths=widths, axes=axes)
        if weights.ndim != 1 or not weights.size:
            raise ValueError("mixture needs a 1-d array of at least one weight")
        if displacements.shape != (weights.size, len(axes)):
            raise ValueError("one displacement vector per weight, one entry per axis, required")
        if widths.shape != (len(axes),):
            raise ValueError("one width per axis required")
        # Before the Gram step: a NaN would pass the Z check below, an infinity make the exponent warn.
        # Python floats: for a few branches this is several times faster than np.isfinite.
        if not all(map(math.isfinite, weights.view(float).tolist() + displacements.ravel().tolist())):
            raise ValueError("mixture weights and displacements must be finite")
        if not all(0.0 < width < math.inf for width in widths.tolist()):
            raise ValueError("mixture widths must be positive and finite")
        gram = _overlap_matrix(displacements, widths) if _gram is None else _gram
        products = (weights.conj()[:, None] * weights * gram).real
        total = float(products.sum())
        if total < NULL_TOLERANCE:
            raise NullPostSelection("post-selected pointer state has vanishing norm")
        i, j, doubling = _pairs(len(weights))
        coefficients = doubling * products[i, j] / total
        midpoints = 0.5 * (displacements.take(i, axis=0) + displacements.take(j, axis=0))
        for array in (coefficients, midpoints):
            array.setflags(write=False)
        vars(self).update(total=total, coefficients=coefficients, midpoints=midpoints)


class Moments(NamedTuple):
    mean: float
    variance: float


def _gaussian_exponent(points: np.ndarray, centres: np.ndarray, widths: np.ndarray, scale: float) -> np.ndarray:
    """-sum_ax ((x - c) / s)^2 / scale, shape (centres, points): the one Gaussian exponent, negated.

    The Gram matrix (scale 8), the amplitudes of :func:`mixture_density`
    (scale 4) and the envelopes (scale 2 sigma^2) exponentiate it in place.
    Dividing by s before squaring keeps it accurate for widths whose square
    is not a normal float64.  A power-of-two scale is a multiply by the exact
    -1 / scale, with the bits of the division by -scale other scales get.
    Axes are summed in a fixed order from the first (no BLAS), so a row does
    not depend on the rows evaluated with it.  An overflow is a sum of
    squares: exp(-inf) = 0 is exact, and the overflow is not reported.
    """
    apply, by = (np.multiply, -1.0 / scale) if math.frexp(scale)[0] == 0.5 else (np.divide, -scale)
    exponent = None
    with np.errstate(over="ignore"):
        for k, width in enumerate(widths.tolist()):
            delta = points[:, k] - centres[:, k, None]
            delta /= width
            delta *= delta
            apply(delta, by, out=delta)
            exponent = delta if exponent is None else np.add(exponent, delta, out=exponent)
    return np.zeros((centres.shape[0], points.shape[0])) if exponent is None else exponent


def _overlap_matrix(displacements: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """Gram matrix O_ij = exp(-sum_ax ((d_i - d_j) / s)^2 / 8) of displaced Gaussians."""
    exponent = _gaussian_exponent(displacements, displacements, widths, 8.0)
    return np.exp(exponent, out=exponent)


def _gaussian_norm(widths: np.ndarray) -> float:
    """prod_ax 1 / sqrt(2 pi s^2): the peak of a unit-mass Gaussian over the axes."""
    return math.prod(1.0 / math.sqrt(2.0 * math.pi * (width * width)) for width in widths.tolist())


@lru_cache(maxsize=16)
def _pairs(branches: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row and column of each pair i <= j in row-major order, and its factor: 1 on the diagonal, else 2."""
    i, j = np.triu_indices(branches)
    return i, j, np.where(i == j, 1.0, 2.0)


def mixture_moments(m: PointerMixture) -> dict[Axis, Moments]:
    """Per-axis mean and variance of the pointer density, in closed form.

    Each term of the mixture's pair expansion (:class:`PointerMixture`) is a
    Gaussian of variance s^2 centred at its midpoint m_p, so

        mean   = sum_p c_p m_p
        E[x^2] = sum_p c_p (m_p^2 + s^2)

    with c_p the real pair coefficients, which sum to 1.
    """
    coefficients = m.coefficients[:, None]
    # Fixed-order sums: symmetric terms cancel exactly, as BLAS may not.
    means = (coefficients * m.midpoints).sum(axis=0)
    seconds = (coefficients * (m.midpoints**2 + m.widths**2)).sum(axis=0)
    return {
        axis: Moments(mean=float(means[k]), variance=float(seconds[k] - means[k] ** 2))
        for k, axis in enumerate(m.axes)
    }


def weak_limit_error(m: PointerMixture, couplings, weak_values) -> np.ndarray:
    """|mean / g - Re A_w| per axis, without the cancellation of forming mean / g first.

    Per axis in ``m.axes`` order, ``couplings`` holds the nonzero coupling g
    and ``weak_values`` Re A_w of the observable coupled on it; the weights
    must be those observables' post-selected branches.  With O_ij = 1 +
    expm1(-e_ij), e_ij the Gram exponent, the terms of the 1 sum to 0 exactly
    (they define the weak value), which leaves a sum without cancellation:

        mean / g - Re A_w = sum_ij Re(conj(w_i) w_j) expm1(...) (m_ij / g - Re A_w) / Z.
    """
    d = m.displacements
    exponent = _gaussian_exponent(d, d, m.widths, 8.0)
    factors = (m.weights.conj()[:, None] * m.weights[None, :]).real * np.expm1(exponent, out=exponent)
    deviations = 0.5 * (d[:, None, :] + d[None, :, :]) / np.asarray(couplings) - np.asarray(weak_values)
    return np.abs((factors[:, :, None] * deviations).sum(axis=(0, 1))) / m.total


def mixture_density(m: PointerMixture, point) -> float | np.ndarray:
    """Normalized probability density of the pointer readout, |sum_i w_i A_i(x)|^2 / Z.

    A_i is the branch's Gaussian amplitude prod_ax G(x_ax - d_i_ax).
    ``point`` is one displacement-space point of dimension len(axes), or an
    array of shape (..., len(axes)) for batched evaluation.
    """
    points = np.asarray(point, dtype=float)
    if points.ndim == 0 or points.shape[-1] != len(m.axes):
        raise ValueError(f"point dimension must be {len(m.axes)}")
    batch_shape = points.shape[:-1]
    flat = points.reshape(math.prod(batch_shape), len(m.axes))
    amps = _gaussian_exponent(flat, m.displacements, m.widths, 4.0)
    np.exp(amps, out=amps)
    real = (m.weights.real[:, None] * amps).sum(axis=0)
    density = real * real
    if m.weights.imag.any():  # real weights would add an imaginary part of 0, which changes no bit
        imag = (m.weights.imag[:, None] * amps).sum(axis=0)
        density += imag * imag
    density *= _gaussian_norm(m.widths) / m.total
    return float(density[0]) if points.ndim == 1 else density.reshape(batch_shape)
