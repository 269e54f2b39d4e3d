"""Shot-by-shot simulation of the CCD readout experiment.

Each shot sends one photon, prepared in the experiment's pre-state and
coupled to the configured pointers, through the detection chain.  The
detector click is drawn from the exact entangled-state probabilities; shots
that reach D1 (the post-selecting detector) additionally record the pointer
readout, drawn from the post-selected mixture density by rejection sampling.
All shots of a run are evaluated together as numpy arrays, in blocks of
``_BLOCK_SHOTS`` shots so that transient arrays stay bounded.

Random stream, ``STREAM_VERSION = 2``
-------------------------------------
Randomness is counter-based.  Shot ``i`` of a run with seed ``seed`` (both in
[0, 2**64)) owns the Philox4x64-10 key ``[seed, i]``.  Block ``j`` of the
shot is the Philox output for counter ``[j, 0, 0, 0]``: four 64-bit words
``w0 .. w3``.  That is the ``j``-th block of numpy's
``np.random.Philox(key=[seed, i])`` (numpy bumps the counter before each
block), so its ``random_raw`` is a word-exact oracle.  A word becomes a
uniform in [0, 1) as ``(w >> 11) * 2**-53``, numpy's ``random()`` transform.

- Block 1, word 0: the detector uniform ``u``.  The shot clicks D1 when
  ``u < P(D1)``, D2 when ``u < P(D1) + P(D2)``, D3 otherwise.  ``u`` equals
  ``shot_generator(seed, i).random()`` bit for bit, as in stream v1, so the
  detector column did not change between the versions.
- Block ``k + 2``: readout attempt ``k = 0, 1, ...`` of a D1 shot.  ``w0``
  picks the envelope pair (below) by inverse CDF.  ``w1`` and ``w2`` give
  standard normals by Box-Muller: ``r = sqrt(-2 ln v)`` with
  ``v = ((w1 >> 12) + 1/2) * 2**-52``, which lies in the open interval
  (0, 1), and ``theta = 2 pi (w2 >> 11) * 2**-53``; the proposal is
  ``m + s * (r cos theta, r sin theta)`` over the axes in pointer order.
  ``w3`` is the accept test: the uniform ``u3`` accepts when
  ``u3 * E(x) < f(x)``.

Records therefore depend only on ``(experiment, seed, shot_id)``: any
sharding of a shot range reproduces the same records bit for bit.  The
Philox words and the detector uniforms are exact integer arithmetic; the
readouts also go through numpy's ``log``, ``cos``, ``sin`` and ``exp``, so
their last bits may differ between numpy builds and CPUs.

Envelope
--------
The sampler reads the mixture's pair expansion (``PointerMixture.expansion``),
which writes the post-selected density as a signed sum of midpoint Gaussians,
``f(x) = sum_{i<=j} Re(c_ij) N(x; m_ij, s^2)``.  Dropping the negative
terms gives the envelope ``E(x) = sum max(Re c_ij, 0) N(x; m_ij, s^2)
>= f(x)``, which dominates termwise and has mass ``sum max(Re c_ij, 0) >= 1``.
An attempt picks a pair of positive weight with probability proportional to
that weight, draws ``x ~ N(m_ij, s^2)`` and accepts with probability
``f(x) / E(x)``, so the expected acceptance is ``1 / sum max(Re c_ij, 0)``:
0.400 for the weak-cheshire preset, 1 for a single post-selected branch.
``f`` is evaluated in its amplitude form ``|sum_i w_i A_i(x)|^2 / Z`` by
``pointer.mixture_density``, and envelope domination is asserted on every
proposal in debug mode.  Runs whose expected acceptance is below
``MIN_ACCEPTANCE`` (near-null post-selection) raise LowAcceptance before
drawing anything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .optics import Circuit, Detector, detector_projectors, postselected_state, standard_circuit
from .pointer import (
    Axis,
    CoupledState,
    GaussianPointer,
    NullPostSelection,
    PointerMixture,
    _gaussian_kernels,
    _gaussian_norm,
    branch_overlaps,
    couple,
    mixture_density,
    postselect_pointer,
)
from .qstate import Ket, SpectralObservable

#: Version of the shot-stream layout described in the module docstring.
STREAM_VERSION = 2

#: Runs whose expected readout acceptance is below this raise LowAcceptance.
MIN_ACCEPTANCE = 1e-3

_MASK64 = (1 << 64) - 1
#: Shots evaluated together; bounds the size of transient arrays.
_BLOCK_SHOTS = 1 << 16
#: Readout attempts evaluated together once few shots are left pending.
_PASS_ROWS = 1 << 12
#: A pass gives a pending shot no more attempts than leave it still pending
#: with probability below this (see ``_attempt_cap``).
_PASS_MISS = 1e-3
#: ``ShotBatch.detector`` code of a D1 click (D2 and D3 are 2 and 3).
_D1 = 1

_U32 = np.uint64(0xFFFFFFFF)
_S32 = np.uint64(32)
_S11 = np.uint64(11)
_S12 = np.uint64(12)
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10


class InsufficientData(ValueError):
    """Too few post-selected shots to form an estimate."""


class LowAcceptance(ValueError):
    """The readout sampler's expected acceptance is below MIN_ACCEPTANCE."""


@dataclass(frozen=True)
class Experiment:
    """Pre-state, pointer couplings (applied in order), and detection chain."""

    pre: Ket
    couplings: tuple[tuple[SpectralObservable, GaussianPointer], ...]
    circuit: Circuit = field(default_factory=standard_circuit)

    def pointers(self) -> tuple[GaussianPointer, ...]:
        return tuple(pointer for _, pointer in self.couplings)

    def axes(self) -> tuple[Axis, ...]:
        return tuple(pointer.axis for pointer in self.pointers())


@dataclass(frozen=True, eq=False)
class ShotBatch:
    """Shot records as arrays, one row per shot.

    ``shot_id`` is int64; ``detector`` is uint8 with 1, 2, 3 for D1, D2, D3;
    ``readout`` is float64 of shape (shots, axes), one column per pointer
    axis in experiment order, NaN exactly on the rows that are not D1.
    ``attempts`` counts the readout proposals drawn for the batch.
    """

    shot_id: np.ndarray
    detector: np.ndarray
    readout: np.ndarray
    attempts: int = 0

    def __post_init__(self) -> None:
        n = self.shot_id.shape[0]
        if self.shot_id.dtype != np.int64 or self.detector.dtype != np.uint8:
            raise ValueError("shot_id must be int64 and detector uint8")
        if self.detector.shape != (n,) or self.readout.ndim != 2 or self.readout.shape[0] != n:
            raise ValueError("shot_id, detector and readout rows must agree")
        if n and not (self.detector.min() >= 1 and self.detector.max() <= 3):
            raise ValueError("detector codes must be 1, 2 or 3")
        missing = np.isnan(self.readout)
        off_d1 = self.detector != _D1
        if self.readout.shape[1] and not (
            np.array_equal(missing.all(axis=1), off_d1) and np.array_equal(missing.any(axis=1), off_d1)
        ):
            raise ValueError("readout must be present exactly for D1 shots")

    def __len__(self) -> int:
        return self.shot_id.shape[0]


@dataclass(frozen=True)
class ExperimentAnalysis:
    """Analytic quantities a run is sampled from (and later checked against)."""

    coupled: CoupledState
    detector_probabilities: dict[Detector, float]
    mixture: PointerMixture | None
    success_probability: float


def analyze(experiment: Experiment) -> ExperimentAnalysis:
    """Exact detector distribution and post-selected pointer mixture.

    Detector probabilities come from the full entangled state: P(detector) =
    sum_ij <b_i| M |b_j> O_ij with M the detector's traced-back projector
    and O the pointer overlap Gram matrix, so measurement disturbance is
    included.  A post-selection that can never succeed yields mixture None
    and success probability 0 rather than an exception.
    """
    coupled: Ket | CoupledState = experiment.pre
    for obs, pointer in experiment.couplings:
        coupled = couple(coupled, obs, pointer)
    if isinstance(coupled, Ket):
        coupled = CoupledState(branches=((coupled, ()),), pointers=())
    try:
        mixture, success = postselect_pointer(coupled, postselected_state(experiment.circuit))
    except NullPostSelection:
        mixture, success = None, 0.0
    systems = np.array([system.amps for system, _ in coupled.branches])
    gram = branch_overlaps(coupled)
    probabilities: dict[Detector, float] = {}
    for detector, projector in detector_projectors(experiment.circuit).items():
        cross = systems.conj() @ projector @ systems.T
        probabilities[detector] = min(1.0, max(0.0, float(np.sum(cross * gram).real)))
    probabilities[Detector.D1] = success
    return ExperimentAnalysis(
        coupled=coupled,
        detector_probabilities=probabilities,
        mixture=mixture,
        success_probability=success,
    )


def shot_generator(seed: int, shot_id: int) -> np.random.Generator:
    """Numpy generator on the stream of one shot: its first ``random()`` is the detector uniform."""
    key = np.array([seed & _MASK64, shot_id & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _mulhilo(a: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Low and high 64-bit halves of ``a * m``, the high half from 32-bit limbs.

    With a = a_hi 2^32 + a_lo and m likewise, no partial sum below exceeds
    2^64 - 1.  Updates are in place to spare allocations.
    """
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
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
    return a * np.uint64(m), a_hi


def _philox(seed: int, shot_ids: np.ndarray, block) -> np.ndarray:
    """Block ``block`` (one number, or one per shot) of each shot's stream.

    Returns the Philox4x64-10 words, shape (shots, 4).
    """
    n = shot_ids.shape[0]
    key = shot_ids.astype(np.uint64)
    c0 = np.empty(n, dtype=np.uint64)
    c0[:] = block
    c1, c2, c3 = np.zeros(n, dtype=np.uint64), np.zeros(n, dtype=np.uint64), np.zeros(n, dtype=np.uint64)
    for round_ in range(_PHILOX_ROUNDS):
        seed_key = np.uint64((seed + round_ * _PHILOX_W[0]) & _MASK64)
        if round_:
            key += np.uint64(_PHILOX_W[1])
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


class _MidpointEnvelope:
    """Rejection sampler for a post-selected pointer mixture (module docstring)."""

    def __init__(self, mixture: PointerMixture) -> None:
        pairs = mixture.expansion
        keep = pairs.coefficients > 0
        self.mixture = mixture
        self.widths = pairs.widths
        self.pair_weights = pairs.coefficients[keep]
        self.midpoints = pairs.midpoints[keep]
        total = float(self.pair_weights.sum())
        self.pair_cdf = np.cumsum(self.pair_weights) / total
        self.acceptance = min(1.0, 1.0 / total)

    def envelope(self, points: np.ndarray) -> np.ndarray:
        """E(x) = sum over kept pairs of max(Re c_ij, 0) N(x; m_ij, s^2), points (n, axes)."""
        terms = _gaussian_kernels(points, self.midpoints, self.widths, 2.0)
        return _gaussian_norm(self.widths) * (self.pair_weights[:, None] * terms).sum(axis=0)

    def _attempt(self, words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Proposals and accept flags of one attempt per row of Philox words."""
        pair = np.searchsorted(self.pair_cdf, _uniform(words[:, 0]), side="right")
        pair = np.minimum(pair, len(self.pair_cdf) - 1)
        radius = np.sqrt(-2.0 * np.log(((words[:, 1] >> _S12) + 0.5) * 2.0**-52))
        theta = (2.0 * np.pi) * _uniform(words[:, 2])
        normals = np.stack([radius * np.cos(theta), radius * np.sin(theta)], axis=1)
        points = self.midpoints[pair] + self.widths * normals[:, : self.widths.shape[0]]
        target, envelope = mixture_density(self.mixture, points), self.envelope(points)
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


def _attempt_cap(acceptance: float) -> int:
    """Attempts after which a shot is still pending with probability below ``_PASS_MISS``.

    The smallest k with (1 - acceptance)**k < _PASS_MISS: 14 at acceptance
    0.400, 1 at acceptance 1.
    """
    if acceptance >= 1.0:
        return 1
    return max(1, math.ceil(math.log(_PASS_MISS) / math.log1p(-acceptance)))


def readout_acceptance(mixture: PointerMixture) -> float:
    """Expected acceptance of the readout sampler: Z / sum_ij max(Re conj(w_i) w_j O_ij, 0)."""
    return _MidpointEnvelope(mixture).acceptance


def sample_shots(
    experiment: Experiment,
    n: int,
    seed: int,
    first_shot: int = 0,
    *,
    analysis: ExperimentAnalysis | None = None,
) -> ShotBatch:
    """Simulate shots ``first_shot .. first_shot + n - 1``.

    Identical (experiment, seed, shot id) always reproduces a record
    bit-identically, so ``sample_shots(e, n, s)`` equals the concatenation
    of any sharding of the same range (pass ``first_shot`` per shard).  A
    post-selection that can never succeed is not an error here: every shot
    is simply rejected to D2/D3.  A near-null one, whose expected readout
    acceptance is below MIN_ACCEPTANCE, raises LowAcceptance before any
    shot is drawn.  ``analysis`` defaults to ``analyze(experiment)``.
    """
    if n < 1:
        raise ValueError("need at least one shot")
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    if first_shot < 0 or first_shot + n > 2**63:
        raise ValueError("shot ids must lie in [0, 2**63)")
    if analysis is None:
        analysis = analyze(experiment)
    p_d1 = analysis.detector_probabilities[Detector.D1]
    p_d12 = p_d1 + analysis.detector_probabilities[Detector.D2]
    sampler = None
    if analysis.mixture is not None:
        sampler = _MidpointEnvelope(analysis.mixture)
        if sampler.acceptance < MIN_ACCEPTANCE:
            raise LowAcceptance(
                f"expected readout acceptance {sampler.acceptance:.3g} is below "
                f"{MIN_ACCEPTANCE:g} (near-null post-selection)"
            )
    shot_id = np.arange(first_shot, first_shot + n, dtype=np.int64)
    detector = np.empty(n, dtype=np.uint8)
    readout = np.full((n, len(experiment.couplings)), np.nan)
    attempts = 0
    for start in range(0, n, _BLOCK_SHOTS):
        rows = slice(start, start + _BLOCK_SHOTS)
        ids = shot_id[rows].astype(np.uint64)
        u = _uniform(_philox(seed, ids, 1)[:, 0])
        codes = np.where(u < p_d1, _D1, np.where(u < p_d12, 2, 3))
        detector[rows] = codes
        d1 = np.flatnonzero(codes == _D1)
        if sampler is not None and d1.size:
            values, used = sampler.sample(seed, ids[d1])
            readout[start + d1] = values
            attempts += used
    return ShotBatch(shot_id=shot_id, detector=detector, readout=readout, attempts=attempts)


@dataclass(frozen=True)
class AxisEstimate:
    """Sample statistics of the D1 readouts along one pointer axis."""

    mean: float
    stderr: float
    mean_over_coupling: float | None  # None when the coupling is zero


@dataclass(frozen=True)
class SummaryStats:
    n_shots: int
    d1_count: int
    post_rate: float
    axes: dict[Axis, AxisEstimate]
    config: dict


def estimate(batch: ShotBatch, experiment: Experiment) -> SummaryStats:
    """Aggregate shot records into post-selection rate and per-axis estimates.

    Raises InsufficientData when fewer than two D1 readouts exist: a
    standard error needs at least two samples.
    """
    n = len(batch)
    if n == 0:
        raise ValueError("batch must be non-empty")
    readouts = batch.readout[batch.detector == _D1]
    d1_count = readouts.shape[0]
    post_rate = d1_count / n
    if d1_count < 2:
        raise InsufficientData(f"only {d1_count} post-selected shots; need at least 2")
    axes: dict[Axis, AxisEstimate] = {}
    for k, pointer in enumerate(experiment.pointers()):
        values = readouts[:, k]
        mean = float(values.mean())
        stderr = float(values.std(ddof=1) / np.sqrt(d1_count))
        ratio = mean / pointer.coupling if pointer.coupling > 0 else None
        axes[pointer.axis] = AxisEstimate(mean=mean, stderr=stderr, mean_over_coupling=ratio)
    config = {
        "n_shots": n,
        "pointers": {
            pointer.axis.value: {"coupling": pointer.coupling, "width": pointer.width}
            for pointer in experiment.pointers()
        },
    }
    return SummaryStats(
        n_shots=n, d1_count=d1_count, post_rate=post_rate, axes=axes, config=config
    )
