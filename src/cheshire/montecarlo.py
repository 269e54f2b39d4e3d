"""Shot-by-shot simulation of the CCD readout experiment.

Each shot sends one photon, prepared in the experiment's pre-state and
coupled to the configured pointers, through the detection chain.  The
detector click is drawn from the exact entangled-state probabilities; shots
that reach D1 (the post-selecting detector) additionally record the pointer
readout, drawn from the post-selected mixture density by rejection sampling.
A :class:`ShotBatch` keeps one readout row per D1 shot, in shot order, so
its detector column alone says which shots have one.  All shots of one
:func:`sample_shots` call are evaluated together as numpy arrays, so its
memory grows with its shot range; a caller that wants bounded memory
shards the range with ``first_shot`` and folds each shard into a
:class:`Tally` (shot and D1 counts, attempts, and each axis's D1 readout
mean and M2), as the CLI does.

An :class:`Experiment` is immutable (its kets and observables are frozen,
and every experiment uses the fixed detection chain), so :func:`analyze`
computes its analysis once and returns the same :class:`ExperimentAnalysis`
on every later call; the analysis is frozen too.

Analyses split in two.  What no coupling g or width s changes is built
once per (pre-state, observables) and kept in a 32-entry
least-recently-used cache (``_structure``): the branch systems, the
eigenvalue pattern v (branch i moves by g_k v_ik on axis k), the
post-selected weights and the D2/D3 cross matrices systems^dag M systems.
The systems are the pre-state projected through each observable's
eigenprojectors in turn by ``postselect._walk``, the walk every ABL table
reads, with near-zero branches then dropped.  The cache is safe: its keys
are the frozen kets and observables themselves, which compare by
identity, and its arrays are read-only.  A build cannot raise, since
:class:`Experiment` refuses a repeated axis (DuplicateAxis) when it is
built.
Each analysis then evaluates one Gram matrix: the D2/D3 probabilities sum
cross * Gram, and the mixture is built from the kept branches' block of
it, which is elementwise and so bit-identical to a new evaluation.

Random stream, ``STREAM_VERSION = 4``
-------------------------------------
Randomness is counter-based: Philox4x64-10 with a two-word key ``[seed,
k1]``, seed in [0, 2**64).  Block ``j`` of a key is the Philox output for
counter ``[j, 0, 0, 0]``: four 64-bit words ``w0 .. w3``.  That is the
``j``-th block of numpy's ``np.random.Philox`` with that key, passed as a
uint64 array (numpy bumps the counter before each block), so its
``random_raw`` is a word-exact oracle.  A word becomes a uniform in [0, 1)
as ``(w >> 11) * 2**-53``, numpy's ``random()`` transform.

- Detector uniforms: one dedicated stream, key ``[seed, 2**64 - 1]``.  The
  detector uniform ``u`` of shot ``i`` is 64-bit word ``i`` of that stream,
  which is word ``i mod 4`` of block ``i // 4 + 1``, so one block serves
  four shots.  ``u`` equals element ``i`` of ``random(i + 1)`` of a numpy
  ``Generator`` on that ``Philox`` stream.  The shot clicks D1 when ``u <
  P(D1)``, D2 when ``u < P(D1) + P(D2)``, D3 otherwise.  Shot ids lie below
  2**63, so no shot owns the key word ``2**64 - 1``.
- Readout attempts: shot ``i`` owns the key ``[seed, i]``.  Block ``k +
  2`` is readout attempt ``k = 0, 1, ...`` of a D1 shot, drawn from the
  mixture's envelope ``E(x) = sum_k a_k N(x; mu_k, (sigma s)^2)`` (below).
  ``w0`` picks the component ``k`` by inverse CDF over the ``a_k``, so a
  one-component envelope ignores it.  ``w1`` and ``w2`` give standard
  normals ``n`` by Box-Muller: ``r = sqrt(-2 ln v)`` with ``v = ((w1 >> 12)
  + 1/2) * 2**-52``, which lies in the open interval (0, 1), and ``theta =
  2 pi (w2 >> 11) * 2**-53``; ``n = (r cos theta, r sin theta)`` over the
  axes in pointer order.  The proposal is ``x = mu_k + sigma s * n``.
  ``w3`` is the accept test: the uniform ``u3`` accepts ``x`` when ``u3 *
  E(x) < f(x)``.  Block 1 of a shot's key is unused.

Records therefore depend only on ``(experiment, seed, shot_id)``: any
sharding of a shot range reproduces the same records bit for bit.  The
Philox words and the detector uniforms are exact integer arithmetic; the
readouts also go through numpy's ``log``, ``cos``, ``sin`` and ``exp``, so
their last bits may differ between numpy builds and CPUs.

Envelopes
---------
A sampler proposes ``x`` from an envelope ``E(x) >= f(x)`` of the
post-selected density and accepts with probability ``f(x) / E(x)``; its
expected acceptance is ``1 / (mass of E)``.  There is one envelope type,
``_Envelope``, the positive Gaussian mixture ``E(x) = sum_k a_k N(x; mu_k,
(sigma s)^2)``, built two ways.  Each mixture gets the construction of
strictly higher expected acceptance (the midpoint one on a tie), built
once, on first use, as ``ExperimentAnalysis.envelope``.

- Midpoint.  The mixture's pair expansion (``PointerMixture``) writes the
  density as a signed sum of midpoint Gaussians, ``f(x) = sum_{i<=j}
  Re(c_ij) N(x; m_ij, s^2)``.  Dropping the negative terms leaves ``a`` =
  the positive ``Re c_ij``, ``mu`` = their midpoints and ``sigma = 1``.
  Acceptance is ``1 / sum a``: 1 for a single post-selected branch, about 1
  in the strong regime, but 0.400 for weak-cheshire, whose large positive
  and negative terms nearly cancel.
- Centre.  One component ``a = [M]``, ``mu = [c]``, ``sigma = sigma' > 1``
  around the centre ``c = sum_i |w_i| d_i / sum_i |w_i|``.  ``M`` is a
  proven bound on ``sup f / q`` for ``q(x) = N(x; c, (sigma' s)^2)``, from
  the amplitude form (``_centre_log_bounds``), minimised over a grid of
  ``sigma'``.  Acceptance is ``1 / M``: 0.976 for weak-cheshire and 0.990
  for smile-only at g/s = 0.01, near 0 in the strong regime.

``f`` is evaluated in its amplitude form ``|sum_i w_i A_i(x)|^2 / Z`` by
``pointer.mixture_density``, and envelope domination is asserted on every
proposal in debug mode.  Runs whose expected acceptance is below
``MIN_ACCEPTANCE`` (near-null post-selection) raise LowAcceptance before
drawing anything.
"""

from __future__ import annotations

import math
from contextlib import suppress
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Mapping, NamedTuple

import numpy as np

from .optics import Detector, detector_projectors, postselected_state
from .pointer import (
    Axis,
    DuplicateAxis,
    GaussianPointer,
    NullPostSelection,
    PointerMixture,
    _gaussian_exponent,
    _gaussian_norm,
    _overlap_matrix,
    mixture_density,
)
from .postselect import _walk
from .qstate import ATOL, Ket, SpectralObservable, _Frozen

#: Version of the shot-stream layout described in the module docstring.
STREAM_VERSION = 4

#: Runs whose expected readout acceptance is below this raise LowAcceptance.
MIN_ACCEPTANCE = 1e-3

#: Branches with system norm or post-selected weight below this are dropped.
_PRUNE = 1e-14

_MASK64 = (1 << 64) - 1
#: Second key word of the detector stream; shot ids are below 2**63.
_DETECTOR_KEY = _MASK64
#: Readout attempts evaluated together once few shots are left pending.
_PASS_ROWS = 1 << 12
#: A pass gives a pending shot no more attempts than leave it still pending
#: with probability below this (see ``_attempt_cap``).
_PASS_MISS = 1e-3
#: ``ShotBatch.detector`` code of a D1 click (D2 and D3 are 2 and 3).
_D1 = 1
#: Candidate proposal scales sigma' = 1 + eps of the centre envelope, a
#: quarter decade apart.  A coarse grid over r picks the best candidate, and
#: the fine one gives M for it and its two neighbours; the smallest is used.
_CENTRE_EPS = 10.0 ** np.linspace(-9.0, 1.0, 41)
#: Grids over r / R on which the centre envelope's bound is taken: 0, then
#: geometric cells.
_CENTRE_COARSE_GRID = np.concatenate([[0.0], np.geomspace(1e-4, 1.0, 32)])
_CENTRE_GRID = np.concatenate([[0.0], np.geomspace(1e-4, 1.0, 256)])
#: The grid reaches at least R = _CENTRE_TAIL / sqrt(k), where the proposal's
#: relative tail exp(-k R^2) is below e^-9 (see ``_centre_log_bounds``).
_CENTRE_TAIL = 3.0


def _word(value: int) -> np.ndarray:
    """``value`` as a 0-d uint64 array: numpy applies it to an array faster than a ``np.uint64`` scalar."""
    return np.array(value, dtype=np.uint64)


_U32 = _word(0xFFFFFFFF)
_S32 = _word(32)
_S11 = _word(11)
_S12 = _word(12)
#: The two Philox multipliers, each as (low 32 bits, high 32 bits, whole).
_PHILOX_M = tuple(
    (_word(m & 0xFFFFFFFF), _word(m >> 32), _word(m)) for m in (0xD2E7470EE14C6C93, 0xCA5A826395121157)
)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
#: Per-round bump of the second key word.
_PHILOX_BUMP = _word(_PHILOX_W[1])
_PHILOX_ROUNDS = 10


class InsufficientData(ValueError):
    """Too few post-selected shots for a standard error."""


class LowAcceptance(ValueError):
    """The readout sampler's expected acceptance is below MIN_ACCEPTANCE."""


class Experiment(_Frozen):
    """Pre-state and pointer couplings (applied in order) ahead of the fixed detection chain.

    Raises ValueError unless the pre-state's squared norm lies within ``ATOL``
    of 1, and DuplicateAxis if two pointers share an axis.
    """

    def __init__(self, pre: Ket, couplings: tuple[tuple[SpectralObservable, GaussianPointer], ...]) -> None:
        total = float(np.vdot(pre.amps, pre.amps).real)
        if not abs(total - 1.0) <= ATOL:
            raise ValueError(f"pre-state squared amplitudes must sum to 1, got {total!r}")
        vars(self).update(pre=pre, couplings=couplings)
        if len(set(self.axes())) != len(couplings):
            raise DuplicateAxis("each pointer axis may be used at most once")

    def pointers(self) -> tuple[GaussianPointer, ...]:
        return tuple(pointer for _, pointer in self.couplings)

    def axes(self) -> tuple[Axis, ...]:
        return tuple(pointer.axis for pointer in self.pointers())

    @cached_property
    def _analysis(self) -> ExperimentAnalysis:
        return _analyze(self)


class ShotBatch(_Frozen):
    """Shot records as arrays: ``shot_id`` and ``detector`` one row per shot, ``readout`` one row per D1 shot.

    ``shot_id`` is non-negative int64; ``detector`` is uint8 with 1, 2, 3
    for D1, D2, D3, and is the only record of which shots reached D1;
    ``readout`` is float64 of shape (D1 shots, axes), the readouts of the
    D1 shots in shot order, one column per pointer axis in experiment
    order, none of them NaN.  ``attempts`` counts the readout proposals
    drawn for the batch.
    """

    def __init__(self, shot_id: np.ndarray, detector: np.ndarray, readout: np.ndarray, attempts: int = 0) -> None:
        vars(self).update(shot_id=shot_id, detector=detector, readout=readout, attempts=attempts)
        n = shot_id.shape[0]
        if shot_id.dtype != np.int64 or detector.dtype != np.uint8:
            raise ValueError("shot_id must be int64 and detector uint8")
        if detector.shape != (n,):
            raise ValueError("shot_id and detector rows must agree")
        if n and not (shot_id.min() >= 0 and detector.min() >= 1 and detector.max() <= 3):
            raise ValueError("shot ids must be non-negative and detector codes 1, 2 or 3")
        if readout.ndim != 2 or readout.shape[0] != np.count_nonzero(detector == _D1) or np.isnan(readout).any():
            raise ValueError("readout must hold one row per D1 shot and no NaN")

    def __len__(self) -> int:
        return self.shot_id.shape[0]


class ExperimentAnalysis(_Frozen):
    """Analytic quantities a run is sampled from (and later checked against).

    ``detector_probabilities`` is a read-only mapping.
    """

    def __init__(self, detector_probabilities: Mapping[Detector, float], mixture: PointerMixture | None) -> None:
        vars(self).update(detector_probabilities=detector_probabilities, mixture=mixture)

    @cached_property
    def envelope(self) -> _Envelope | None:
        """The readout sampler of the mixture (module docstring), built on first use."""
        return None if self.mixture is None else _select_envelope(self.mixture)


def analyze(experiment: Experiment) -> ExperimentAnalysis:
    """Exact detector distribution and post-selected pointer mixture.

    Detector probabilities come from the full entangled state: P(detector) =
    sum_ij <b_i| M |b_j> O_ij with M the detector's traced-back projector
    and O the pointer overlap Gram matrix, so measurement disturbance is
    included; P(D1) is the post-selected mixture's normalisation Z.  A
    post-selection that can never succeed yields mixture None and P(D1) = 0
    rather than an exception.  Computed once per experiment, from one Gram
    matrix and a structure cached per (pre-state, couplings) (module docstring).
    """
    return experiment._analysis


class _Structure(NamedTuple):
    """The part of an analysis that no coupling g or width s changes (module docstring); arrays read-only."""

    pattern: np.ndarray  # v, (branches, axes): branch i's displacement on axis k is g_k v_ik
    cross: tuple[np.ndarray, np.ndarray]  # systems^dag M systems of D2 and D3, (branches, branches)
    kept: np.ndarray  # indices of the branches whose post-selected weight is not negligible
    weights: np.ndarray  # post-selected weights of the kept branches


@lru_cache(maxsize=32)
def _structure(pre: Ket, observables: tuple[SpectralObservable, ...]) -> _Structure:
    """The structure of ``pre`` coupled to ``observables`` in order, pattern column k for coupling k.

    Each coupling splits every branch per eigenspace (``postselect._walk``):
    the projected system gains the eigenvalue as its pattern entry on the
    new axis.  Branches projected to (near) zero are dropped once, after the
    walk; a projection never increases a norm, so that keeps the branches
    that dropping them after every coupling would.
    """
    systems, pattern, weights = _walk(pre, observables, postselected_state())
    keep = np.sum(systems.real**2 + systems.imag**2, axis=1) >= _PRUNE**2
    systems, pattern, weights = systems[keep], pattern[keep], weights[keep]
    projectors = detector_projectors()
    cross = tuple(systems.conj() @ projectors[detector] @ systems.T for detector in (Detector.D2, Detector.D3))
    magnitudes = np.abs(weights)
    kept = np.flatnonzero(magnitudes > _PRUNE * max(1.0, float(magnitudes.max())))
    weights = weights[kept]
    for array in (pattern, *cross, kept, weights):
        array.setflags(write=False)
    return _Structure(pattern, cross, kept, weights)


def _analyze(experiment: Experiment) -> ExperimentAnalysis:
    pointers = experiment.pointers()
    structure = _structure(experiment.pre, tuple(obs for obs, _ in experiment.couplings))
    widths = np.array([pointer.width for pointer in pointers], dtype=float)
    displacements = structure.pattern * np.array([pointer.coupling for pointer in pointers], dtype=float)
    gram = _overlap_matrix(displacements, widths)
    mixture, kept = None, structure.kept
    if kept.size:
        kept_gram = gram.take(kept, axis=0).take(kept, axis=1)
        with suppress(NullPostSelection):
            mixture = PointerMixture(structure.weights, displacements[kept], widths, experiment.axes(), _gram=kept_gram)
    probabilities = {Detector.D1: 0.0 if mixture is None else mixture.total}
    for detector, cross in zip((Detector.D2, Detector.D3), structure.cross):
        probabilities[detector] = min(1.0, max(0.0, float((cross * gram).sum().real)))
    return ExperimentAnalysis(detector_probabilities=MappingProxyType(probabilities), mixture=mixture)


def _mulhilo(a: np.ndarray, multiplier: tuple[np.ndarray, np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Low and high 64-bit halves of ``a * m``, the high half from 32-bit limbs.

    ``multiplier`` is ``m``'s entry of ``_PHILOX_M``.  With a = a_hi 2^32 +
    a_lo and m likewise, no partial sum below exceeds 2^64 - 1.  Updates are
    in place to spare allocations.
    """
    m_lo, m_hi, m = multiplier
    a_lo, a_hi = a & _U32, a >> _S32
    carry = a_lo * m_lo
    carry >>= _S32
    carry += a_hi * m_lo  # a_hi m_lo + (a_lo m_lo >> 32)
    middle = carry & _U32
    middle += a_lo * m_hi
    carry >>= _S32
    middle >>= _S32
    a_hi *= m_hi
    a_hi += carry
    a_hi += middle
    return a * m, a_hi


def _philox(seed: int, keys: np.ndarray, block) -> np.ndarray:
    """Block ``block`` (one number, or one per row) of the streams with keys ``[seed, keys[row]]``.

    Returns the Philox4x64-10 words, shape (rows, 4).
    """
    n = keys.shape[0]
    key = keys.astype(np.uint64)
    c0 = np.empty(n, dtype=np.uint64)
    c0[:] = block
    c1, c2, c3 = np.zeros(n, dtype=np.uint64), np.zeros(n, dtype=np.uint64), np.zeros(n, dtype=np.uint64)
    for round_ in range(_PHILOX_ROUNDS):
        seed_key = _word((seed + round_ * _PHILOX_W[0]) & _MASK64)
        if round_:
            key += _PHILOX_BUMP
        lo0, hi0 = _mulhilo(c0, _PHILOX_M[0])
        lo1, hi1 = _mulhilo(c2, _PHILOX_M[1])
        hi1 ^= c1
        hi1 ^= seed_key
        hi0 ^= c3
        hi0 ^= key
        c0, c1, c2, c3 = hi1, lo1, hi0, lo0
    return np.stack([c0, c1, c2, c3], axis=1)


def _uniform(words: np.ndarray) -> np.ndarray:
    return (words >> _S11) * 2.0**-53


def _detector_uniforms(seed: int, first_shot: int, n: int) -> np.ndarray:
    """Words ``first_shot .. first_shot + n - 1`` of the detector stream, as uniforms."""
    skip = first_shot % 4
    blocks = np.arange(first_shot // 4 + 1, (first_shot + n - 1) // 4 + 2, dtype=np.uint64)
    words = _philox(seed, np.full(blocks.shape[0], _DETECTOR_KEY, dtype=np.uint64), blocks)
    return _uniform(words.ravel()[skip : skip + n])


def _normals(words: np.ndarray, axes: int) -> np.ndarray:
    """Box-Muller standard normals from words 1 and 2, shape (rows, axes) for 0-2 axes.

    Only the returned columns are computed: the cosine one, then the sine one.
    """
    radius = np.sqrt(-2.0 * np.log(((words[:, 1] >> _S12) + 0.5) * 2.0**-52))
    theta = (2.0 * np.pi) * _uniform(words[:, 2])
    normals = np.empty((words.shape[0], axes))
    for k, trig in enumerate((np.cos, np.sin)[:axes]):
        np.multiply(radius, trig(theta), out=normals[:, k])
    return normals


class _Envelope:
    """The readout rejection sampler E(x) = sum_k a_k N(x; mu_k, (sigma s)^2) >= f(x).

    Built by :meth:`midpoint` or :meth:`centre` (module docstring), which
    also give its expected ``acceptance``, the share of accepted proposals.
    """

    def __init__(self, name: str, mixture: PointerMixture, weights, means, sigma: float, acceptance: float) -> None:
        self.name, self.mixture, self.sigma, self.acceptance = name, mixture, sigma, acceptance
        self.weights = weights  # a_k
        self.means = means  # mu_k, shape (components, axes)
        self.widths = mixture.widths
        # Inverse-CDF breakpoints between components, none for a single one,
        # so an infinite a_0 (acceptance 0) needs no division of inf by inf.
        self._cdf = np.cumsum(self.weights[:-1]) / self.weights.sum()
        self._peak = _gaussian_norm(self.widths) / self.sigma ** self.widths.shape[0]

    @classmethod
    def midpoint(cls, mixture: PointerMixture) -> _Envelope:
        """The positive midpoint terms of the pair expansion: a = max(Re c_ij, 0), mu = m_ij, sigma = 1."""
        keep = mixture.coefficients > 0
        weights = mixture.coefficients[keep]
        acceptance = min(1.0, 1.0 / float(weights.sum()))
        return cls("midpoint", mixture, weights, mixture.midpoints[keep], 1.0, acceptance)

    @classmethod
    def centre(cls, mixture: PointerMixture) -> _Envelope:
        """One Gaussian around the centre c: a = [M], mu = [c], sigma = sigma' (``_centre_log_bounds``)."""
        scaled = mixture.displacements / mixture.widths
        magnitudes = np.abs(mixture.weights)
        centre = (magnitudes[:, None] * scaled).sum(axis=0) / magnitudes.sum()
        with np.errstate(over="ignore"):  # an infinite offset gives acceptance 0
            offsets = np.sqrt(((scaled - centre) ** 2).sum(axis=1))
        best = int(np.argmin(_centre_log_bounds(mixture, offsets, _CENTRE_EPS, _CENTRE_COARSE_GRID)))
        eps = _CENTRE_EPS[max(best - 1, 0) : best + 2]
        log_bounds = _centre_log_bounds(mixture, offsets, eps, _CENTRE_GRID)
        best = int(np.argmin(log_bounds))
        with np.errstate(over="ignore"):
            bound = np.array([np.exp(log_bounds[best])])
        acceptance = min(1.0, float(np.exp(-log_bounds[best])))
        sigma = 1.0 + float(eps[best])
        return cls("centre", mixture, bound, (centre * mixture.widths)[None, :], sigma, acceptance)

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """E(x) at points of shape (n, axes)."""
        exponent = _gaussian_exponent(points, self.means, self.widths, 2.0 * self.sigma**2)
        return self._peak * (self.weights[:, None] * np.exp(exponent, out=exponent)).sum(axis=0)

    def _attempt(self, words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Proposals and accept flags of one attempt per row of Philox words."""
        component = np.searchsorted(self._cdf, _uniform(words[:, 0]), side="right")
        steps = (self.sigma * self.widths) * _normals(words, self.widths.shape[0])
        points = self.means.take(component, axis=0) + steps  # take: faster than fancy indexing
        target, envelope = mixture_density(self.mixture, points), self.evaluate(points)
        assert np.all(target <= envelope * (1.0 + 1e-9)), "rejection envelope violated"
        return points, _uniform(words[:, 3]) * envelope < target

    def sample(self, seed: int, shot_ids: np.ndarray) -> tuple[np.ndarray, int]:
        """One accepted readout per shot id (stream blocks 2, 3, ...), and the attempts used.

        Each pass evaluates the next ``per_shot`` attempts of every pending
        shot and keeps the first accepted one, so the records match
        one-attempt-at-a-time sampling.  ``per_shot`` grows as shots finish
        to keep the number of passes small, up to ``_attempt_cap`` of the
        expected acceptance: beyond that cap a shot is still pending with
        probability below ``_PASS_MISS``, so further attempts in the same
        pass would mostly be evaluated and discarded.
        """
        readout = np.empty((shot_ids.shape[0], self.widths.shape[0]))
        pending = np.arange(shot_ids.shape[0])
        attempts, block = 0, 2
        cap = _attempt_cap(self.acceptance)
        while pending.size:
            per_shot = min(cap, max(1, _PASS_ROWS // pending.size))
            blocks = block + np.tile(np.arange(per_shot), pending.size)
            points, accepted = self._attempt(_philox(seed, np.repeat(shot_ids[pending], per_shot), blocks))
            accepted = accepted.reshape(pending.size, per_shot)
            done = accepted.any(axis=1)
            first = accepted.argmax(axis=1)
            points = points.reshape(pending.size, per_shot, -1)
            readout[pending[done]] = points[done, first[done]]
            attempts += int(np.where(done, first + 1, per_shot).sum())
            pending = pending[~done]
            block += per_shot
        return readout, attempts


def _centre_log_bounds(
    mixture: PointerMixture, offsets: np.ndarray, eps: np.ndarray, grid: np.ndarray
) -> np.ndarray:
    """log M for each proposal scale sigma' = 1 + eps: a proven bound on sup f / q.

    In width units u = (x - c) / s, r = |u|, e_i = (d_i - c) / s and
    delta_i = |e_i| (``offsets``), the amplitude form gives f(x) <= N(x; c,
    s^2) H(r)^2 / Z with H(r) = |W| + sum_i |w_i| b_i e^(b_i), W = sum_i w_i
    and b_i = r delta_i / 2 + delta_i^2 / 4 (|e^a - 1| <= |a| e^|a| and |a_i|
    <= b_i for a_i = u.e_i / 2 - delta_i^2 / 4).  So f / q <= B(r) =
    sigma'^D exp(-k r^2) H(r)^2 / Z with q(x) = N(x; c, (sigma' s)^2), k =
    (1 - 1 / sigma'^2) / 2 and D the axis count.  exp(-k r^2) falls and H
    rises with r, so on a grid cell [r_j, r_j+1] B is below sigma'^D exp(-k
    r_j^2) H(r_j+1)^2 / Z.  Beyond the last grid point R, H(r) <= (alpha +
    beta r) e^(r Delta / 2 + Delta^2 / 4) with Delta = max delta_i, alpha =
    |W| + sum |w_i| delta_i^2 / 4 and beta = sum |w_i| delta_i / 2, and the
    log of that tail bound has derivative at most 2 / r - 2 k r + Delta,
    which is <= 0 from R >= (Delta + sqrt(Delta^2 + 16 k)) / (4 k): it is
    largest at R.  Overflows give an infinite bound, that is acceptance 0.
    """
    magnitudes = np.abs(mixture.weights)
    size = abs(mixture.weights.sum())  # |W|
    reach = float(offsets.max())
    alpha = size + float((magnitudes * offsets**2).sum()) / 4.0
    beta = float((magnitudes * offsets).sum()) / 2.0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        k = eps * (2.0 + eps) / (2.0 * (1.0 + eps) ** 2)  # (1 - 1/sigma'^2) / 2 without cancellation
        tail = np.maximum((reach + np.sqrt(reach**2 + 16.0 * k)) / (4.0 * k), _CENTRE_TAIL / np.sqrt(k))
        r = tail[:, None] * grid  # (eps, points)
        b = r[:, :, None] * (offsets / 2.0) + offsets**2 / 4.0
        h = size + (magnitudes * b * np.exp(b)).sum(axis=2)
        cells = (-k[:, None] * r[:, :-1] ** 2 + 2.0 * np.log(h[:, 1:])).max(axis=1)
        beyond = 2.0 * np.log(alpha + beta * tail) - k * tail**2 + reach * tail + reach**2 / 2.0
        log_bounds = mixture.widths.shape[0] * np.log1p(eps) - math.log(mixture.total)
        log_bounds = log_bounds + np.maximum(cells, beyond)
    return np.where(np.isnan(log_bounds), np.inf, log_bounds)


def _select_envelope(mixture: PointerMixture) -> _Envelope:
    """The envelope of strictly higher expected acceptance; the midpoint one on a tie."""
    midpoint = _Envelope.midpoint(mixture)
    if midpoint.acceptance >= 1.0:  # nothing accepts more: skip building the other
        return midpoint
    centre = _Envelope.centre(mixture)
    return centre if centre.acceptance > midpoint.acceptance else midpoint


def _attempt_cap(acceptance: float) -> int:
    """Attempts after which a shot is still pending with probability below ``_PASS_MISS``.

    The smallest k with (1 - acceptance)**k < _PASS_MISS: 14 at acceptance
    0.400, 1 at acceptance 1.
    """
    if acceptance >= 1.0:
        return 1
    return max(1, math.ceil(math.log(_PASS_MISS) / math.log1p(-acceptance)))


def sample_shots(
    experiment: Experiment,
    n: int,
    seed: int,
    first_shot: int = 0,
) -> ShotBatch:
    """Simulate shots ``first_shot .. first_shot + n - 1``.

    Identical (experiment, seed, shot id) always reproduces a record
    bit-identically, so ``sample_shots(e, n, s)`` equals the concatenation
    of any sharding of the same range (pass ``first_shot`` per shard).  A
    post-selection that can never succeed is not an error here: every shot
    is simply rejected to D2/D3.  A near-null one, whose expected readout
    acceptance is below MIN_ACCEPTANCE, raises LowAcceptance before any
    shot is drawn.  The batch's readout holds the D1 shots' rows only, in
    shot order (``ShotBatch``).  The whole range is held at once; the
    readout sampler sets the peak, 53 (which-path) to 92 (joint-strong)
    traced bytes a shot at 65,536 shots.  Shard a large range to bound
    memory.
    """
    if n < 1:
        raise ValueError("need at least one shot")
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    if first_shot < 0 or first_shot + n > 2**63:
        raise ValueError("shot ids must lie in [0, 2**63)")
    analysis = analyze(experiment)
    p_d1 = analysis.detector_probabilities[Detector.D1]
    p_d12 = p_d1 + analysis.detector_probabilities[Detector.D2]
    sampler = analysis.envelope
    if sampler is not None:
        if sampler.acceptance < MIN_ACCEPTANCE:
            raise LowAcceptance(
                f"expected readout acceptance {sampler.acceptance:.3g} is below "
                f"{MIN_ACCEPTANCE:g} (near-null post-selection)"
            )
    shot_id = np.arange(first_shot, first_shot + n, dtype=np.int64)
    u = _detector_uniforms(seed, first_shot, n)
    # Code 3 - [u < p_d1] - [u < p_d12]: 1 (D1), 2 (D2) or 3 (D3), since
    # p_d1 <= p_d12; summed in place as uint8 with no wider temporaries.
    detector = (u < p_d1).view(np.uint8)
    detector += (u < p_d12).view(np.uint8)
    np.subtract(3, detector, out=detector)
    readout, attempts = np.empty((0, len(experiment.couplings))), 0
    d1 = np.flatnonzero(detector == _D1)
    if sampler is not None and d1.size:
        readout, attempts = sampler.sample(seed, shot_id[d1].astype(np.uint64))
    return ShotBatch(shot_id=shot_id, detector=detector, readout=readout, attempts=attempts)


class Tally:
    """Running statistics of shot batches: shot and D1 counts, attempts, and each axis's D1 readout mean and M2.

    :meth:`add` folds one batch in, and raises ValueError unless the batch
    has one readout column per tally axis.  A batch's mean and M2 (sum of
    squared deviations from its mean) are numpy's pairwise reductions over
    each readout column, the ones ``np.mean`` and ``np.std`` make, and
    batches merge in the order they are added by Chan, Golub and LeVeque's
    update (1979).  One batch therefore gives ``np.mean`` and ``np.std(ddof=1)``
    (``sqrt(m2 / (d1_count - 1))``) bit for bit, and any sharding of a run
    agrees with them to rounding.  ``cli.estimated_summary`` forms a run's
    estimates from these fields.
    """

    def __init__(self, axes: int) -> None:
        self.n_shots = 0
        self.d1_count = 0
        self.attempts = 0
        self.means = [0.0] * axes
        self.m2 = [0.0] * axes

    def add(self, batch: ShotBatch) -> None:
        if batch.readout.shape[1] != len(self.means):
            raise ValueError(f"batch has {batch.readout.shape[1]} readout axes, the tally {len(self.means)}")
        count = batch.readout.shape[0]
        self.n_shots += len(batch)
        self.attempts += batch.attempts
        if not count:
            return
        total = self.d1_count + count
        share = count / total  # exactly 1 for the first readouts, so they are kept as they are
        for k in range(len(self.means)):
            values = batch.readout[:, k]
            mean = float(values.mean())
            deviations = values - mean
            delta = mean - self.means[k]
            self.means[k] += delta * share
            self.m2[k] += float((deviations * deviations).sum()) + delta * delta * self.d1_count * share
        self.d1_count = total
