import numpy as np
import pytest

from cheshire import (
    Axis,
    Detector,
    Experiment,
    GaussianPointer,
    InsufficientData,
    LowAcceptance,
    ShotBatch,
    analyze,
    canonical_observables,
    canonical_states,
    estimate,
    ket,
    mixture_moments,
    normalize,
    run_interferometer,
    sample_shots,
    shot_generator,
)
from cheshire import montecarlo
from cheshire.montecarlo import STREAM_VERSION, _philox, _uniform

OBS = canonical_observables()
PRE, POST = canonical_states()


def cheshire_experiment(g=1e-2, h=1e-2, s=1.0):
    return Experiment(
        pre=PRE,
        couplings=(
            (OBS["photon_in_arm1"], GaussianPointer(width=s, coupling=g, axis=Axis.VERTICAL)),
            (OBS["angular_momentum_arm2"], GaussianPointer(width=s, coupling=h, axis=Axis.HORIZONTAL)),
        ),
    )


def single_probe_experiment(name, g, axis=Axis.HORIZONTAL, s=1.0):
    return Experiment(
        pre=PRE, couplings=((OBS[name], GaussianPointer(width=s, coupling=g, axis=axis)),)
    )


# --- randomness contract (stream v2) ------------------------------------------


def concatenate(batches) -> ShotBatch:
    batches = list(batches)
    return ShotBatch(
        shot_id=np.concatenate([b.shot_id for b in batches]),
        detector=np.concatenate([b.detector for b in batches]),
        readout=np.concatenate([b.readout for b in batches]),
        attempts=sum(b.attempts for b in batches),
    )


def assert_batches_equal(first: ShotBatch, second: ShotBatch) -> None:
    assert np.array_equal(first.shot_id, second.shot_id)
    assert np.array_equal(first.detector, second.detector)
    assert np.array_equal(first.readout, second.readout, equal_nan=True)
    assert first.attempts == second.attempts


def test_same_seed_is_bit_identical():
    experiment = cheshire_experiment()
    assert_batches_equal(sample_shots(experiment, 3000, seed=11), sample_shots(experiment, 3000, seed=11))


def test_different_seeds_differ():
    experiment = cheshire_experiment()
    first, second = sample_shots(experiment, 500, seed=0), sample_shots(experiment, 500, seed=1)
    assert not np.array_equal(first.readout, second.readout, equal_nan=True)


@pytest.mark.parametrize("shards", [1, 4, 16])
def test_shard_invariance(shards):
    experiment = cheshire_experiment()
    n = 1600
    baseline = sample_shots(experiment, n, seed=5)
    chunk = n // shards
    resampled = concatenate(
        sample_shots(experiment, chunk, seed=5, first_shot=k * chunk) for k in range(shards)
    )
    assert_batches_equal(resampled, baseline)


def test_evaluation_grouping_leaves_records_unchanged(monkeypatch):
    # Shot blocks of 7, one readout attempt per pass, and the per-pass
    # attempt cap at 1 or binding at its derived value give the same records.
    experiment = cheshire_experiment()
    baseline = sample_shots(experiment, 300, seed=13)
    assert montecarlo._attempt_cap(montecarlo.readout_acceptance(analyze(experiment).mixture)) == 14
    assert montecarlo._attempt_cap(1.0) == 1
    with monkeypatch.context() as patch:
        patch.setattr(montecarlo, "_PASS_ROWS", 1 << 20)  # the cap binds on every pass
        assert_batches_equal(sample_shots(experiment, 300, seed=13), baseline)
    with monkeypatch.context() as patch:
        patch.setattr(montecarlo, "_attempt_cap", lambda acceptance: 1)
        assert_batches_equal(sample_shots(experiment, 300, seed=13), baseline)
    monkeypatch.setattr(montecarlo, "_BLOCK_SHOTS", 7)
    monkeypatch.setattr(montecarlo, "_PASS_ROWS", 1)
    assert_batches_equal(sample_shots(experiment, 300, seed=13), baseline)


def test_philox_blocks_match_numpy_random_raw():
    # Block j of shot i is numpy's j-th Philox block under key [seed, i].
    ids = np.array([0, 1, 17, 2**40, 2**64 - 1], dtype=np.uint64)
    for seed in (0, 1, 987654321, 2**64 - 1):
        for block in (1, 2, 7):
            words = _philox(seed, ids, block)
            for row, shot_id in zip(words, ids):
                bit_generator = np.random.Philox(key=np.array([seed, shot_id], dtype=np.uint64))
                assert row.tolist() == bit_generator.random_raw(4 * block)[-4:].tolist()


def test_detector_uniform_equals_shot_generator():
    # Unchanged from stream v1: the detector column of shots.csv is the same.
    seed = 2**64 - 1
    ids = np.arange(2000, dtype=np.uint64)
    uniforms = _uniform(_philox(seed, ids, 1)[:, 0]).tolist()
    assert uniforms == [shot_generator(seed, int(i)).random() for i in ids]
    experiment = cheshire_experiment()
    probabilities = analyze(experiment).detector_probabilities
    p_d1, p_d2 = probabilities[Detector.D1], probabilities[Detector.D2]
    expected = [1 if u < p_d1 else 2 if u < p_d1 + p_d2 else 3 for u in uniforms]
    assert sample_shots(experiment, 2000, seed=seed).detector.tolist() == expected


# Stream v2 records of weak-cheshire shots 2**40 .. 2**40 + 23 at seed 2**63 + 12345.
GOLDEN_DETECTORS = [2, 2, 1, 1, 2, 1, 2, 1, 3, 2, 2, 2, 3, 2, 2, 2, 3, 2, 2, 1, 2, 3, 2, 2]
GOLDEN_ATTEMPTS = 12
GOLDEN_READOUTS = {  # shot offset -> (vertical, horizontal)
    2: (-0.4935069912506649, -0.5197836397846228),
    3: (0.4642296465045257, 0.441115557606227),
    5: (1.3191625388176211, 1.2517272764323497),
    7: (-0.05004707425807678, 1.051130150461994),
    19: (0.1468724824922454, 1.1675233712703355),
}


def test_stream_v2_golden_vector():
    # Any change to the stream layout changes these records; bump
    # STREAM_VERSION and re-pin them together.  Readouts go through numpy's
    # transcendental functions, whose last bits may vary by CPU, hence rtol.
    assert STREAM_VERSION == 2
    batch = sample_shots(cheshire_experiment(), 24, seed=2**63 + 12345, first_shot=2**40)
    assert batch.detector.tolist() == GOLDEN_DETECTORS
    assert batch.attempts == GOLDEN_ATTEMPTS
    d1 = np.flatnonzero(batch.detector == 1)
    assert d1.tolist() == sorted(GOLDEN_READOUTS)
    expected = np.array([GOLDEN_READOUTS[k] for k in d1.tolist()])
    np.testing.assert_allclose(batch.readout[d1], expected, rtol=1e-12, atol=0)


def test_shot_ids_are_contiguous_from_first_shot():
    experiment = cheshire_experiment()
    batch = sample_shots(experiment, 10, seed=0, first_shot=40)
    assert batch.shot_id.dtype == np.int64
    assert batch.shot_id.tolist() == list(range(40, 50))


@pytest.mark.parametrize(
    "seed, first_shot", [(-1, 0), (2**64, 0), (0, -1), (0, 2**63)]
)
def test_sample_shots_rejects_out_of_range_keys(seed, first_shot):
    with pytest.raises(ValueError):
        sample_shots(cheshire_experiment(), 1, seed=seed, first_shot=first_shot)


def test_near_null_postselection_fails_fast():
    # Arm-1 and arm-2 amplitudes toward the post-state nearly cancel: the
    # success probability is ~1e-5 and the expected acceptance ~1.5e-5.
    arm1 = [p for value, p in OBS["photon_in_arm1"].branches if value == 1.0][0]
    amps = arm1 @ POST.amps - (np.eye(4) - arm1) @ POST.amps + 1e-3 * POST.amps
    experiment = Experiment(
        pre=normalize(ket(amps)),
        couplings=((OBS["photon_in_arm1"], GaussianPointer(width=1.0, coupling=1e-2, axis=Axis.VERTICAL)),),
    )
    analysis = analyze(experiment)
    assert 0.0 < analysis.success_probability < 1e-4
    with pytest.raises(LowAcceptance, match="near-null"):
        sample_shots(experiment, 10, seed=0, analysis=analysis)


# --- analysis ----------------------------------------------------------------


def test_detector_probabilities_sum_to_one():
    for experiment in (cheshire_experiment(), single_probe_experiment("angular_momentum_arm2", 2.0)):
        analysis = analyze(experiment)
        assert sum(analysis.detector_probabilities.values()) == pytest.approx(1.0, abs=1e-12)
        assert analysis.detector_probabilities[Detector.D1] == pytest.approx(
            analysis.success_probability, abs=1e-12
        )


def test_zero_coupling_reproduces_bare_optics():
    experiment = cheshire_experiment(g=0.0, h=0.0)
    analysis = analyze(experiment)
    bare = run_interferometer(PRE).probabilities
    for detector in Detector:
        assert analysis.detector_probabilities[detector] == pytest.approx(
            bare[detector], abs=1e-12
        )


def test_experiment_without_pointers_samples_detectors_only():
    batch = sample_shots(Experiment(pre=PRE, couplings=()), 400, seed=3)
    assert batch.readout.shape == (400, 0)
    # One branch: its single pair accepts every proposal.
    assert batch.attempts == np.count_nonzero(batch.detector == 1) > 0


def test_impossible_postselection_rejects_every_shot():
    # Arm-1 V-polarised light never reaches D1; all shots land on D2/D3.
    pre = normalize(ket([1, -1, 0, 0]))
    experiment = Experiment(
        pre=pre,
        couplings=((OBS["photon_in_arm1"], GaussianPointer(width=1.0, coupling=0.1, axis=Axis.VERTICAL)),),
    )
    analysis = analyze(experiment)
    assert analysis.mixture is None
    assert analysis.success_probability == 0.0
    batch = sample_shots(experiment, 400, seed=2)
    assert not (batch.detector == 1).any()
    assert np.isnan(batch.readout).all()
    assert batch.attempts == 0
    with pytest.raises(InsufficientData):
        estimate(batch, experiment)


# --- shot records and estimates -----------------------------------------------


def test_readout_present_exactly_for_d1():
    experiment = cheshire_experiment()
    batch = sample_shots(experiment, 2000, seed=3)
    assert batch.readout.shape == (2000, 2)
    assert np.array_equal(np.isnan(batch.readout).any(axis=1), batch.detector != 1)
    assert np.isfinite(batch.readout[batch.detector == 1]).all()
    ids = np.zeros(1, dtype=np.int64)
    with pytest.raises(ValueError):
        ShotBatch(ids, np.array([2], dtype=np.uint8), np.array([[0.1, 0.2]]))
    with pytest.raises(ValueError):
        ShotBatch(ids, np.array([1], dtype=np.uint8), np.array([[np.nan, np.nan]]))
    with pytest.raises(ValueError):
        ShotBatch(ids, np.array([1], dtype=np.uint8), np.array([[0.1, np.nan]]))
    for code in (0, 4, 255):
        with pytest.raises(ValueError, match="detector codes"):
            ShotBatch(ids, np.array([code], dtype=np.uint8), np.array([[np.nan, np.nan]]))


def test_sample_shots_rejects_empty_run():
    with pytest.raises(ValueError):
        sample_shots(cheshire_experiment(), 0, seed=0)


def test_detector_rates_track_analysis():
    experiment = cheshire_experiment()
    n = 20000
    batch = sample_shots(experiment, n, seed=14)
    analysis = analyze(experiment)
    for code, detector in enumerate(Detector, start=1):
        p = analysis.detector_probabilities[detector]
        count = int(np.sum(batch.detector == code))
        sigma = np.sqrt(p * (1 - p) / n)
        assert abs(count / n - p) < 4 * sigma


def test_estimate_interface():
    experiment = cheshire_experiment()
    batch = sample_shots(experiment, 5000, seed=8)
    stats = estimate(batch, experiment)
    assert stats.n_shots == 5000
    assert stats.d1_count == int(np.sum(batch.detector == 1))
    assert stats.post_rate == stats.d1_count / 5000
    assert set(stats.axes) == {Axis.VERTICAL, Axis.HORIZONTAL}
    for est in stats.axes.values():
        assert est.stderr > 0
        assert est.mean_over_coupling == pytest.approx(est.mean / 1e-2)
    assert stats.config["n_shots"] == 5000
    assert stats.config["pointers"]["vertical"] == {"coupling": 1e-2, "width": 1.0}
    empty = ShotBatch(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint8), np.empty((0, 2)))
    with pytest.raises(ValueError):
        estimate(empty, experiment)


def test_estimate_requires_two_d1_shots():
    experiment = cheshire_experiment()
    detector = np.full(51, 2, dtype=np.uint8)
    detector[50] = 1
    readout = np.full((51, 2), np.nan)
    readout[50] = 0.0
    batch = ShotBatch(np.arange(51, dtype=np.int64), detector, readout)
    with pytest.raises(InsufficientData):
        estimate(batch, experiment)


def test_zero_coupling_mean_is_statistically_zero():
    experiment = cheshire_experiment(g=0.0, h=0.0)
    stats = estimate(sample_shots(experiment, 5000, seed=21), experiment)
    for est in stats.axes.values():
        assert abs(est.mean) < 4 * est.stderr
        assert est.mean_over_coupling is None


def test_strong_probe_mean_matches_closed_form():
    # coupling/width = 10: sampled mean against the analytic mixture mean.
    experiment = single_probe_experiment("photon_in_arm1", 10.0, axis=Axis.VERTICAL)
    stats = estimate(sample_shots(experiment, 4000, seed=12), experiment)
    analysis = analyze(experiment)
    expected = mixture_moments(analysis.mixture)[Axis.VERTICAL].mean
    assert expected == pytest.approx(10.0, abs=1e-12)  # single displaced Gaussian
    est = stats.axes[Axis.VERTICAL]
    assert abs(est.mean - expected) < 4 * est.stderr


def test_interference_regime_sampling_respects_envelope():
    # coupling ~ width maximises the cross terms; the envelope assertion
    # inside the sampler runs on every draw under pytest (__debug__).
    experiment = single_probe_experiment("angular_momentum_arm2", 1.0)
    stats = estimate(sample_shots(experiment, 3000, seed=9), experiment)
    analysis = analyze(experiment)
    expected = mixture_moments(analysis.mixture)[Axis.HORIZONTAL]
    est = stats.axes[Axis.HORIZONTAL]
    assert abs(est.mean - expected.mean) < 4 * est.stderr


@pytest.mark.slow
def test_estimator_consistency_over_many_seeds():
    # 100 independent seeds at 10^4 shots: at least 95 land within 4
    # standard errors of the analytic mean on both axes.
    experiment = cheshire_experiment()
    analysis = analyze(experiment)
    moments = mixture_moments(analysis.mixture)
    hits = 0
    for seed in range(100):
        stats = estimate(sample_shots(experiment, 10_000, seed=seed), experiment)
        ok = all(
            abs(stats.axes[axis].mean - moments[axis].mean) <= 4 * stats.axes[axis].stderr
            for axis in (Axis.VERTICAL, Axis.HORIZONTAL)
        )
        hits += ok
    assert hits >= 95
