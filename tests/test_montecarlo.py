import numpy as np
import pytest

from cheshire import (
    Axis,
    Detector,
    DuplicateAxis,
    Experiment,
    GaussianPointer,
    InsufficientData,
    LowAcceptance,
    NullPostSelection,
    PointerMixture,
    ShotBatch,
    SpectralObservable,
    Tally,
    abl_distribution,
    analyze,
    canonical_observables,
    canonical_states,
    mixture_density,
    mixture_moments,
    sample_shots,
    sequential_distribution,
)
from cheshire import cli, montecarlo
from cheshire.optics import detector_projectors, postselected_state
from cheshire.montecarlo import STREAM_VERSION, _detector_uniforms, _philox
from cheshire.pointer import _overlap_matrix
from cheshire.qstate import Ket, normalize
from oracles import bin_masses, detector_uniforms, loop_branches, postselected_weights

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


def single_probe_experiment(name, g, axis=Axis.HORIZONTAL, s=1.0, pre=PRE):
    return Experiment(
        pre=pre, couplings=((OBS[name], GaussianPointer(width=s, coupling=g, axis=axis)),)
    )


# --- randomness contract (stream v4) ------------------------------------------


def concatenate(batches) -> ShotBatch:
    """One batch of consecutive shot ranges: each batch must start where the previous one ended."""
    batches = list(batches)
    for previous, batch in zip(batches, batches[1:]):
        assert batch.first_shot == previous.first_shot + len(previous)
    return ShotBatch(
        first_shot=batches[0].first_shot,
        detector=np.concatenate([b.detector for b in batches]),
        readout=np.concatenate([b.readout for b in batches]),
        attempts=sum(b.attempts for b in batches),
    )


def sharded(experiment, n: int, seed: int, size: int, first_shot: int = 0) -> ShotBatch:
    """Shots ``first_shot .. first_shot + n - 1`` drawn in shards of ``size`` shots."""
    return concatenate(
        sample_shots(experiment, min(size, n - k), seed=seed, first_shot=first_shot + k) for k in range(0, n, size)
    )


def assert_batches_equal(first: ShotBatch, second: ShotBatch) -> None:
    assert (first.first_shot, len(first)) == (second.first_shot, len(second))
    assert np.array_equal(first.detector, second.detector)
    assert np.array_equal(first.readout, second.readout)
    assert first.attempts == second.attempts


def test_same_seed_is_bit_identical():
    experiment = cheshire_experiment()
    assert_batches_equal(sample_shots(experiment, 3000, seed=11), sample_shots(experiment, 3000, seed=11))


def test_different_seeds_differ():
    experiment = cheshire_experiment()
    first, second = sample_shots(experiment, 500, seed=0), sample_shots(experiment, 500, seed=1)
    assert not np.array_equal(first.readout, second.readout)


@pytest.mark.parametrize(
    "sizes",
    [
        pytest.param([1600], id="1"),
        pytest.param([400] * 4, id="4"),
        pytest.param([100] * 16, id="16"),
        # Uneven shards start at every offset mod 4 within a detector block.
        pytest.param([1, 3, 7] * 20 + [1380], id="1-3-7"),
        pytest.param([7, 1, 1589, 3], id="7-1-1589-3"),
    ],
)
def test_shard_invariance(sizes):
    experiment = cheshire_experiment()
    n = sum(sizes)
    baseline = sample_shots(experiment, n, seed=5)
    starts = np.cumsum([0] + sizes[:-1]).tolist()
    resampled = concatenate(
        sample_shots(experiment, size, seed=5, first_shot=start) for start, size in zip(starts, sizes)
    )
    assert_batches_equal(resampled, baseline)


def test_evaluation_grouping_leaves_records_unchanged(monkeypatch):
    # Shards of 7 shots, one readout attempt per pass, and the per-pass
    # attempt cap at 1 or binding at its derived value give the same
    # records, under the centre envelope (weak-cheshire) and the midpoint one
    # (g/s = 1).  A 300-shot batch never makes a single-attempt pass by default.
    assert montecarlo._attempt_cap(0.4) == 14
    assert montecarlo._attempt_cap(1.0) == 1
    for ratio, envelope in ((1e-2, "centre"), (1.0, "midpoint")):
        experiment = cheshire_experiment(ratio, ratio)
        assert analyze(experiment).envelope.name == envelope
        assert montecarlo._attempt_cap(analyze(experiment).envelope.acceptance) > 1
        baseline = sample_shots(experiment, 300, seed=13)
        with monkeypatch.context() as patch:
            patch.setattr(montecarlo, "_PASS_ROWS", 1 << 20)  # the cap binds on every pass
            assert_batches_equal(sample_shots(experiment, 300, seed=13), baseline)
        with monkeypatch.context() as patch:
            patch.setattr(montecarlo, "_attempt_cap", lambda acceptance: 1)
            assert_batches_equal(sample_shots(experiment, 300, seed=13), baseline)
        with monkeypatch.context() as patch:
            patch.setattr(montecarlo, "_PASS_ROWS", 1)
            assert_batches_equal(sharded(experiment, 300, 13, 7), baseline)
    # A batch with more D1 shots than half of _PASS_ROWS makes a
    # single-attempt first pass by default, then multi-attempt ones; one
    # attempt per pass throughout, and the cap binding on every pass, agree.
    # That first pass writes every pending row's proposal, so the rows it
    # rejects (attempts exceed the D1 shots) must be overwritten by later
    # passes: multi-attempt ones under weak-cheshire (acceptance 0.976) and
    # by default, single-attempt ones under _attempt_cap = 1, and more often
    # under the midpoint envelope at g/s = 1.
    for ratio, shots in ((1e-2, 10_000), (1.0, 12_000)):
        experiment = cheshire_experiment(ratio, ratio)
        baseline = sample_shots(experiment, shots, seed=13)
        d1 = np.count_nonzero(baseline.detector == 1)
        assert d1 > montecarlo._PASS_ROWS // 2 and baseline.attempts > d1
        for name, value in (("_attempt_cap", lambda acceptance: 1), ("_PASS_ROWS", 1 << 20)):
            with monkeypatch.context() as patch:
                patch.setattr(montecarlo, name, value)
                assert_batches_equal(sample_shots(experiment, shots, seed=13), baseline)


def test_one_component_envelope_ignores_word_0():
    # Stream v3: the centre envelope has one component, so its attempts read
    # only w1-w3 and any w0 gives the same proposals and accept flags.
    envelope = analyze(cheshire_experiment()).envelope
    assert envelope.name == "centre" and envelope.weights.shape == (1,)
    words = [word.ravel() for word in _philox(2**64 - 1, np.arange(500)[:, None], np.arange(2, 6))]
    points, accepted = envelope._attempt(words)
    assert 0 < accepted.sum() < accepted.size
    rng = np.random.default_rng(0)
    for w0 in (0, 2**64 - 1, 2**63, rng.integers(0, 2**64, words[0].shape, dtype=np.uint64)):
        replaced = [np.full(words[0].shape, w0, dtype=np.uint64), *words[1:]]
        other_points, other_accepted = envelope._attempt(replaced)
        assert np.array_equal(other_points, points)
        assert np.array_equal(other_accepted, accepted)


def numpy_block(seed: int, key: int, block: int) -> list[int]:
    """Words w0 .. w3 of block ``block`` of numpy's Philox stream on the key [seed, key]."""
    bit_generator = np.random.Philox(key=np.array([seed, key], dtype=np.uint64))
    return bit_generator.random_raw(4 * block)[-4:].tolist()


def test_philox_blocks_match_numpy_random_raw():
    # Block j under key [seed, k1] is numpy's j-th Philox block: k1 is a shot id,
    # or 2**64 - 1 for the detector stream.  Keys and blocks broadcast, each
    # word is its own array, and a shared key or block may be one number.
    ids = np.array([0, 1, 17, 2**40, 2**64 - 1], dtype=np.uint64)
    blocks = np.array([1, 2, 7], dtype=np.uint64)
    for seed in (0, 1, 987654321, 2**64 - 1):
        for block in blocks.tolist():  # a key array against one block: a single-attempt pass
            words = _philox(seed, ids, block)
            assert all(word.shape == ids.shape for word in words)
            for row, shot_id in enumerate(ids.tolist()):
                assert [word[row] for word in words] == numpy_block(seed, shot_id, block)
        for shot_id in ids.tolist():  # one key against a block array: the detector stream
            words = _philox(seed, shot_id, blocks)
            assert all(word.shape == blocks.shape for word in words)
            for row, block in enumerate(blocks.tolist()):
                assert [word[row] for word in words] == numpy_block(seed, shot_id, block)
        words = _philox(seed, ids[:, None], blocks)  # keys (n, 1) against blocks (p,): a multi-attempt pass
        assert all(word.shape == (ids.size, blocks.size) and word.flags.c_contiguous for word in words)
        for row, shot_id in enumerate(ids.tolist()):
            for column, block in enumerate(blocks.tolist()):
                assert [word[row, column] for word in words] == numpy_block(seed, shot_id, block)


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_detector_column_equals_numpy_philox_stream(seed):
    # Stream v4: the detector uniform of shot i is numpy's random() number i
    # on the key [seed, 2**64 - 1], whatever the first shot's offset mod 4,
    # up to the last shot ids, and under any sharding.
    n = 300
    experiment = cheshire_experiment()
    probabilities = analyze(experiment).detector_probabilities
    p_d1, p_d2 = probabilities[Detector.D1], probabilities[Detector.D2]
    key = np.array([seed, 2**64 - 1], dtype=np.uint64)
    stream = np.random.Generator(np.random.Philox(key=key)).random(4001 + n)
    for first_shot in (0, 1, 2, 3, 4001, 2**40 + 2, 2**63 - n - 1, 2**63 - n):
        uniforms = detector_uniforms(seed, first_shot, n).tolist()
        if first_shot <= 4001:  # the oracle's block skip against the plain stream
            assert uniforms == stream[first_shot : first_shot + n].tolist()
        assert _detector_uniforms(seed, first_shot, n).tolist() == uniforms
        expected = [1 if u < p_d1 else 2 if u < p_d1 + p_d2 else 3 for u in uniforms]
        assert sample_shots(experiment, n, seed=seed, first_shot=first_shot).detector.tolist() == expected
        assert sharded(experiment, n, seed, 7, first_shot).detector.tolist() == expected


# Stream v4 records of shots 2**40 .. 2**40 + 23 at seed 2**63 + 12345:
# weak-cheshire (centre envelope), and weak-cheshire at g/s = 1 (midpoint
# envelope).  Readout attempts are as in stream v3, so shot 4, D1 under both
# versions at g/s = 1, keeps its stream v3 readout.
GOLDEN_DETECTORS = [1, 2, 2, 3, 1, 3, 2, 3, 3, 2, 3, 2, 1, 3, 1, 1, 3, 2, 1, 3, 3, 2, 1, 1]
GOLDEN_ATTEMPTS = 8
GOLDEN_READOUTS = {  # shot offset -> (vertical, horizontal)
    0: (-0.9020056157306583, 0.47180791911177783),
    4: (-1.2986138923205126, 0.6230628501189321),
    12: (0.7178327218293802, -1.3446568507461634),
    14: (-2.1250498828714717, -1.0222704581148778),
    15: (1.0647255917638967, -0.18530308395726744),
    18: (0.8724347852360005, -0.2869961131569175),
    22: (-0.7470954841929839, 1.2617765220423274),
    23: (0.16570818510283436, 0.7943200358324017),
}
GOLDEN_MIDPOINT_DETECTORS = [1, 2, 2, 2, 1, 2, 2, 2, 2, 2, 3, 2, 1, 3, 1, 1, 3, 2, 1, 3, 3, 2, 1, 1]
GOLDEN_MIDPOINT_ATTEMPTS = 12
GOLDEN_MIDPOINT_READOUTS = {
    0: (-1.404927406632817, 3.294601153343479),
    4: (-0.2963241260513132, 0.6195787030297176),
    12: (1.7088465845522425, -1.33713757359519),
    14: (0.4503490095084572, -0.4095072681702424),
    15: (2.413035613057935, 1.2914533820962901),
    18: (1.3625841182744147, 0.21460875972561866),
    22: (-0.2478897908322545, 1.7547207089800114),
    23: (0.6598095101854771, 1.2898782241592746),
}


def test_stream_v4_golden_vector():
    # Any change to the stream layout changes these records; bump
    # STREAM_VERSION and re-pin them together.  Readouts go through numpy's
    # transcendental functions, whose last bits may vary by CPU, hence rtol.
    assert STREAM_VERSION == 4
    goldens = (
        (1e-2, "centre", GOLDEN_DETECTORS, GOLDEN_ATTEMPTS, GOLDEN_READOUTS),
        (1.0, "midpoint", GOLDEN_MIDPOINT_DETECTORS, GOLDEN_MIDPOINT_ATTEMPTS, GOLDEN_MIDPOINT_READOUTS),
    )
    for ratio, envelope, detectors, attempts, readouts in goldens:
        experiment = cheshire_experiment(ratio, ratio)
        assert analyze(experiment).envelope.name == envelope
        batch = sample_shots(experiment, 24, seed=2**63 + 12345, first_shot=2**40)
        assert batch.detector.tolist() == detectors
        assert batch.attempts == attempts
        d1 = np.flatnonzero(batch.detector == 1)
        assert d1.tolist() == sorted(readouts)
        expected = np.array([readouts[k] for k in d1.tolist()])
        assert batch.readout.shape == expected.shape
        np.testing.assert_allclose(batch.readout, expected, rtol=1e-12, atol=0)


def test_shot_ids_are_contiguous_from_first_shot():
    experiment = cheshire_experiment()
    batch = sample_shots(experiment, 10, seed=0, first_shot=40)
    assert type(batch.first_shot) is int
    assert (batch.first_shot, len(batch), batch.detector.shape) == (40, 10, (10,))
    # The range's records are those shots' records in a run from shot 0.
    assert np.array_equal(batch.detector, sample_shots(experiment, 50, seed=0).detector[40:])


@pytest.mark.parametrize(
    "seed, first_shot", [(-1, 0), (2**64, 0), (0, -1), (0, 2**63)]
)
def test_sample_shots_rejects_out_of_range_keys(seed, first_shot):
    with pytest.raises(ValueError):
        sample_shots(cheshire_experiment(), 1, seed=seed, first_shot=first_shot)


def test_numpy_integer_first_shots_give_the_same_records(monkeypatch):
    # A numpy first_shot, count or seed is taken as the Python int it
    # equals: the readout keys of shots above 2**53 stay exact (an int64 id
    # plus a uint64 is a float64), a numpy seed draws the Python int's
    # stream rather than overflowing in the Philox arithmetic, and a range
    # past 2**63 - 1 is refused rather than wrapped, whether its first shot
    # or its count is the numpy integer.
    experiment = cheshire_experiment()
    for first_shot in (2**60, 2**63 - 64):
        reference = sample_shots(experiment, 64, seed=7, first_shot=first_shot)
        assert np.count_nonzero(reference.detector == 1) > 0
        for kind in (np.int64, np.uint64):
            assert_batches_equal(sample_shots(experiment, 64, seed=7, first_shot=kind(first_shot)), reference)
            assert_batches_equal(sample_shots(experiment, kind(64), seed=kind(7), first_shot=first_shot), reference)
    for seed, kinds in ((5, (np.int64, np.uint64)), (2**64 - 1, (np.uint64,))):
        reference = sample_shots(experiment, 64, seed=seed)
        for kind in kinds:
            assert_batches_equal(sample_shots(experiment, 64, seed=kind(seed)), reference)
    for kind in (int, np.int64, np.uint64):
        with pytest.raises(ValueError, match=r"must lie in \[0, 2\*\*63\)"):
            sample_shots(experiment, 5, seed=7, first_shot=kind(2**63 - 1))
        with pytest.raises(ValueError, match=r"must lie in \[0, 2\*\*63\)"):
            sample_shots(experiment, kind(10), seed=7, first_shot=2**63 - 5)
    # A float count, seed or first shot raises before any draw.
    monkeypatch.setattr(montecarlo, "_detector_uniforms", lambda *args: pytest.fail("drawn"))
    for floats in ({"n": 5.0}, {"seed": 7.0}, {"first_shot": 1.0}):
        with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
            sample_shots(experiment, **({"n": 5, "seed": 7} | floats))


def test_near_null_postselection_fails_fast():
    # Second-order cancellation: the angular-momentum branches +1, -1 and 0
    # have weights a, a, -2a, so both the weights and their first moment sum
    # to 0, and the density is O(g^4) while the envelope bounds keep O(g^2).
    experiment = Experiment(
        pre=normalize(Ket([-1, -1, 1, -1])),
        couplings=(
            (OBS["angular_momentum_arm2"], GaussianPointer(width=1.0, coupling=1e-2, axis=Axis.HORIZONTAL)),
        ),
    )
    analysis = analyze(experiment)
    assert 0.0 < analysis.detector_probabilities[Detector.D1] < 1e-4
    assert analysis.envelope.acceptance < montecarlo.MIN_ACCEPTANCE
    with pytest.raises(LowAcceptance, match="near-null"):
        sample_shots(experiment, 10, seed=0)


def test_first_order_near_null_postselection_samples():
    # Arm-1 and arm-2 amplitudes toward the post-state nearly cancel: the
    # success probability is ~7e-6.  The midpoint envelope accepts ~1.5e-5
    # of its proposals; the centre envelope ~0.37, as the weights still sum
    # to ~1e-3 of their magnitudes, so the run samples and matches the
    # closed form.
    arm1 = [p for value, p in OBS["photon_in_arm1"].branches if value == 1.0][0]
    amps = arm1 @ POST.amps - (np.eye(4) - arm1) @ POST.amps + 1e-3 * POST.amps
    experiment = Experiment(
        pre=normalize(Ket(amps)),
        couplings=((OBS["photon_in_arm1"], GaussianPointer(width=1.0, coupling=1e-2, axis=Axis.VERTICAL)),),
    )
    analysis = analyze(experiment)
    assert 0.0 < analysis.detector_probabilities[Detector.D1] < 1e-4
    assert montecarlo._Envelope.midpoint(analysis.mixture).acceptance < montecarlo.MIN_ACCEPTANCE
    assert analysis.envelope.name == "centre" and analysis.envelope.acceptance > 0.3
    readouts, _ = analysis.envelope.sample(7, np.arange(20_000, dtype=np.uint64))
    moments = mixture_moments(analysis.mixture)[Axis.VERTICAL]
    z = (readouts[:, 0].mean() - moments.mean) / np.sqrt(moments.variance / readouts.shape[0])
    assert abs(z) < 5
    assert len(sample_shots(experiment, 1000, seed=0)) == 1000  # no LowAcceptance


def null_norm_experiment(post_share):
    """An arm-1 probe at g = 0 on the pre-state's part orthogonal to the post-state, plus ``post_share`` of that."""
    orth = normalize(Ket(PRE.amps - np.vdot(POST.amps, PRE.amps) * POST.amps))
    pre = normalize(Ket(orth.amps + post_share * POST.amps))
    return single_probe_experiment("photon_in_arm1", 0.0, axis=Axis.VERTICAL, pre=pre)


def test_analysis_falls_back_when_kept_branches_have_a_null_norm():
    # The branches survive pruning, but their Gram sum Z ~ 1e-16 is below NULL_TOLERANCE.
    experiment = null_norm_experiment(1e-8)
    analysis = analyze(experiment)
    probabilities = analysis.detector_probabilities
    assert analysis.mixture is None and analysis.envelope is None
    assert probabilities[Detector.D1] == 0.0
    assert probabilities[Detector.D2] + probabilities[Detector.D3] == pytest.approx(1.0, abs=1e-12)
    batch = sample_shots(experiment, 1000, seed=0)
    assert not (batch.detector == 1).any() and batch.attempts == 0
    # Ten times the post-state share gives Z ~ 1e-14, and the mixture exists.
    analysis = analyze(null_norm_experiment(1e-7))
    assert analysis.mixture is not None
    assert analysis.detector_probabilities[Detector.D1] == pytest.approx(1e-14, rel=0.1)


# --- analysis ----------------------------------------------------------------


def test_detector_probabilities_sum_to_one():
    for experiment in (cheshire_experiment(), single_probe_experiment("angular_momentum_arm2", 2.0)):
        analysis = analyze(experiment)
        assert sum(analysis.detector_probabilities.values()) == pytest.approx(1.0, abs=1e-12)
        assert analysis.detector_probabilities[Detector.D1] == pytest.approx(
            analysis.mixture.total, abs=1e-12
        )


def test_analysis_is_memoised_per_experiment_and_read_only():
    experiment = cheshire_experiment()
    analysis = analyze(experiment)
    assert analyze(experiment) is analysis
    with pytest.raises(TypeError):
        analysis.detector_probabilities[Detector.D1] = 0.0
    with pytest.raises(ValueError):
        analysis.mixture.coefficients[:] = 0.0
    with pytest.raises(ValueError):
        analysis.mixture.midpoints[:] = 0.0
    other = cheshire_experiment()
    assert analyze(other) is not analysis
    assert dict(analyze(other).detector_probabilities) == dict(analysis.detector_probabilities)


def test_observables_and_experiments_compare_by_identity():
    # Equal content does not make equal objects, as with the per-instance analysis memo.
    obs = OBS["photon_in_arm1"]
    twin_obs = SpectralObservable(obs.branches)
    experiment, twin = cheshire_experiment(), cheshire_experiment()
    assert twin_obs != obs and twin_obs == twin_obs
    assert twin != experiment and twin == twin
    assert len({obs, twin_obs, experiment, twin}) == 4


def test_result_objects_hash_by_identity():
    # Frozen results holding dicts or mappingproxies compare and hash by identity.
    experiment = cheshire_experiment()
    results = (
        analyze(experiment),
        abl_distribution(OBS["photon_in_arm1"], PRE, POST),
    )
    for result in results:
        assert hash(result) == hash(result) and result == result
    assert len(set(results)) == 2


def test_records_refuse_attribute_assignment():
    experiment = cheshire_experiment()
    analysis = analyze(experiment)
    config = cli.parse_config([])
    records = {
        PRE: "amps",
        experiment: "pre",
        analysis: "mixture",
        analysis.mixture: "total",
        experiment.pointers()[0]: "width",
        config: "seed",
    }
    for record, field in records.items():
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            setattr(record, "extra", None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    # Value records compare and hash by value.
    assert config == cli.parse_config([]) and hash(config) == hash(cli.parse_config([]))
    assert experiment.pointers() == cheshire_experiment().pointers()


def test_zero_coupling_reproduces_bare_optics():
    experiment = cheshire_experiment(g=0.0, h=0.0)
    analysis = analyze(experiment)
    bare = analyze(Experiment(pre=PRE, couplings=())).detector_probabilities
    for detector in Detector:
        assert analysis.detector_probabilities[detector] == pytest.approx(
            bare[detector], abs=1e-12
        )


def test_experiment_without_pointers_samples_detectors_only():
    batch = sample_shots(Experiment(pre=PRE, couplings=()), 400, seed=3)
    # One readout row of no columns per D1 shot.
    assert batch.readout.shape == (np.count_nonzero(batch.detector == 1), 0)
    # One branch: its single pair accepts every proposal.
    assert batch.attempts == np.count_nonzero(batch.detector == 1) > 0


def test_impossible_postselection_rejects_every_shot():
    # Arm-1 V-polarised light never reaches D1; all shots land on D2/D3.
    pre = normalize(Ket([1, -1, 0, 0]))
    experiment = Experiment(
        pre=pre,
        couplings=((OBS["photon_in_arm1"], GaussianPointer(width=1.0, coupling=0.1, axis=Axis.VERTICAL)),),
    )
    analysis = analyze(experiment)
    assert analysis.mixture is None
    assert analysis.detector_probabilities[Detector.D1] == 0.0
    batch = sample_shots(experiment, 400, seed=2)
    assert not (batch.detector == 1).any()
    assert batch.readout.shape == (0, 1)
    assert batch.attempts == 0
    tally = Tally(1)
    tally.add(batch)
    with pytest.raises(InsufficientData):
        cli.estimated_summary(tally, experiment)


# --- the per-structure analysis ----------------------------------------------

#: (observable, axis) couplings of the four single-run presets; joint-strong shares weak-cheshire's.
PRESET_COUPLINGS = {
    preset: tuple((OBS[name], axis) for name, axis in config.couplings) for preset, config in cli.PRESETS.items()
}
RATIOS = np.logspace(-3.0, 2.0, 64)


def oracle_analysis(pre, couplings):
    """Detector probabilities and mixture from the per-branch oracle's systems, displacements and weights."""
    branches = loop_branches(pre, [(obs, pointer.coupling) for obs, pointer in couplings])
    systems = np.array([amps for amps, _ in branches])
    displacements = np.array([shifts for _, shifts in branches], dtype=float).reshape(len(branches), len(couplings))
    widths = np.array([pointer.width for _, pointer in couplings])
    weights, keep = postselected_weights(branches, postselected_state())
    keep = np.array(keep)
    mixture, success = None, 0.0
    if keep.any():
        try:
            axes = tuple(pointer.axis for _, pointer in couplings)
            mixture = PointerMixture(np.array(weights)[keep], displacements[keep], widths, axes)
            success = mixture.total
        except NullPostSelection:
            pass
    gram = _overlap_matrix(displacements, widths)
    probabilities = {Detector.D1: success}
    for detector in (Detector.D2, Detector.D3):
        cross = systems.conj() @ detector_projectors()[detector] @ systems.T
        probabilities[detector] = min(1.0, max(0.0, float(np.sum(cross * gram).real)))
    return probabilities, mixture


def assert_close(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("preset", sorted(PRESET_COUPLINGS))
def test_analysis_matches_the_public_chain(preset):
    # Unequal couplings per axis, and one run with the first coupling zero.
    width = 0.5
    scales = [(0.0, 1.0)] + [(ratio, 0.6 * ratio) for ratio in RATIOS]
    for scale in scales:
        couplings = tuple(
            (obs, GaussianPointer(width=width, coupling=factor * width, axis=axis))
            for (obs, axis), factor in zip(PRESET_COUPLINGS[preset], scale)
        )
        analysis = analyze(Experiment(pre=PRE, couplings=couplings))
        probabilities, mixture = oracle_analysis(PRE, couplings)
        for detector in Detector:
            assert_close(analysis.detector_probabilities[detector], probabilities[detector])
        got, want = analysis.mixture, mixture
        assert got.axes == want.axes
        for name in ("weights", "displacements", "widths"):
            assert_close(getattr(got, name), getattr(want, name))
        for name in ("total", "coefficients", "midpoints"):
            assert_close(getattr(got, name), getattr(want, name))


def test_a_copy_of_an_analysed_mixture_evaluates_its_own_gram():
    # The analysis passes its Gram block as ``_gram`` and the mixture keeps
    # none of it: a copy built from the fields evaluates its own Gram matrix,
    # with the same bits, and a moved copy gets the total of its own branches.
    mixture = analyze(cheshire_experiment(g=0.5, h=0.5)).mixture
    assert set(vars(mixture)) == {"weights", "displacements", "widths", "axes", "total", "coefficients", "midpoints"}
    copy = PointerMixture(mixture.weights, mixture.displacements, mixture.widths, mixture.axes)
    for name in ("total", "coefficients", "midpoints"):
        assert np.array_equal(getattr(copy, name), getattr(mixture, name))
    moved = PointerMixture(mixture.weights, 3.0 * mixture.displacements, mixture.widths, mixture.axes)
    gram = _overlap_matrix(moved.displacements, moved.widths)
    assert moved.total == float((moved.weights.conj()[:, None] * moved.weights * gram).real.sum()) != mixture.total


def test_experiments_with_equal_inputs_share_one_structure():
    pre = Ket(np.full(4, 0.5))  # a new key: no earlier test built its structure
    couplings = cheshire_experiment().couplings
    misses = montecarlo._structure.cache_info().misses
    first = analyze(Experiment(pre=pre, couplings=couplings))
    second = analyze(Experiment(pre=pre, couplings=couplings))
    assert montecarlo._structure.cache_info().misses == misses + 1
    assert second is not first
    assert dict(second.detector_probabilities) == dict(first.detector_probabilities)


def test_a_new_observable_with_equal_projectors_gives_equal_results():
    obs = OBS["angular_momentum_arm2"]
    twin = SpectralObservable(obs.branches)
    pointer = GaussianPointer(width=1.0, coupling=0.3, axis=Axis.HORIZONTAL)
    analysis = analyze(Experiment(pre=PRE, couplings=((obs, pointer),)))
    other = analyze(Experiment(pre=PRE, couplings=((twin, pointer),)))
    assert dict(other.detector_probabilities) == dict(analysis.detector_probabilities)
    for name in ("total", "coefficients", "midpoints"):
        assert np.array_equal(getattr(other.mixture, name), getattr(analysis.mixture, name))


def test_invalid_inputs_never_reach_an_analysis():
    # An invalid observable cannot be built, so it never reaches an analysis.
    with pytest.raises(ValueError, match="invalid spectral observable"):
        SpectralObservable(((1.0, 2.0 * np.eye(4)),))
    # Nor can an experiment with a repeated axis, so no structure is built for it.
    pointer = GaussianPointer(width=1.0, coupling=0.1, axis=Axis.VERTICAL)
    before = montecarlo._structure.cache_info()
    with pytest.raises(DuplicateAxis):
        Experiment(pre=PRE, couplings=((OBS["photon_in_arm1"], pointer), (OBS["angular_momentum_arm2"], pointer)))
    after = montecarlo._structure.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)


def test_joint_strong_structure_rows_are_the_sequential_table():
    # The sampler's kept branches and the joint ABL table come from one walk:
    # the same outcome rows, in the same order, with the same bits.
    observables = tuple(obs for obs, _ in PRESET_COUPLINGS["joint-strong"])
    structure = montecarlo._structure(PRE, observables)
    numerators = [abs(weight) ** 2 for weight in structure.weights.tolist()]
    total = 0.0
    for numerator in numerators:
        total += numerator
    table = sequential_distribution(list(observables), PRE, POST)
    assert table.outcomes == {(1.0, 0.0): 2 / 3, (0.0, 1.0): 1 / 6, (0.0, -1.0): 1 / 6}
    assert [tuple(row) for row in structure.pattern[structure.kept].tolist()] == list(table.outcomes)
    assert [numerator / total for numerator in numerators] == list(table.outcomes.values())
    assert total == table.success_probability == 0.375


def test_structure_arrays_are_read_only():
    structure = montecarlo._structure(PRE, tuple(obs for obs, _ in PRESET_COUPLINGS["weak-cheshire"]))
    for array in (structure.pattern, *structure.cross, structure.kept, structure.weights):
        assert not array.flags.writeable


def test_structure_cache_stays_bounded():
    bound = montecarlo._structure.cache_info().maxsize
    for k in range(bound + 3):
        pre = normalize(Ket([1.0, 1.0, 1.0, 1.0 + k]))
        analyze(single_probe_experiment("photon_in_arm1", 0.1, pre=pre))
    assert montecarlo._structure.cache_info().currsize <= bound


# --- shot records and estimates -----------------------------------------------


def test_readout_present_exactly_for_d1():
    # One finite readout row per D1 shot, in shot order: row j is the
    # readout of the j-th D1 shot, as that shot draws it alone.
    experiment = cheshire_experiment()
    batch = sample_shots(experiment, 2000, seed=3)
    d1 = np.flatnonzero(batch.detector == 1)
    assert batch.readout.shape == (d1.size, 2)
    assert np.isfinite(batch.readout).all()
    for row in (0, d1.size // 2, d1.size - 1):
        alone = sample_shots(experiment, 1, seed=3, first_shot=int(d1[row]))
        assert np.array_equal(alone.readout[0], batch.readout[row])
    with pytest.raises(ValueError, match="one row per D1 shot"):
        ShotBatch(0, np.array([2], dtype=np.uint8), np.array([[0.1, 0.2]]))
    with pytest.raises(ValueError, match="one row per D1 shot"):
        ShotBatch(0, np.array([1], dtype=np.uint8), np.array([[np.nan, np.nan]]))
    with pytest.raises(ValueError, match="one row per D1 shot"):
        ShotBatch(0, np.array([1], dtype=np.uint8), np.array([[0.1, np.nan]]))
    for code in (0, 4, 255):
        with pytest.raises(ValueError, match="detector codes"):
            ShotBatch(0, np.array([code], dtype=np.uint8), np.empty((0, 2)))
    d2, off_d1 = np.array([2], dtype=np.uint8), np.empty((0, 2))
    for detector in (d2.astype(np.int64), d2.astype(np.int8), np.repeat(d2, 2)[None, :], d2[0]):
        with pytest.raises(ValueError, match="1-d uint8"):
            ShotBatch(0, detector, off_d1)


#: Shots D1, D2, D1 from shot 0, which take exactly two readout rows.
ONE_D2_BETWEEN_D1 = (0, np.array([1, 2, 1], dtype=np.uint8))


def test_shot_batch_takes_one_readout_row_per_d1_shot():
    readout = np.array([[0.1, 0.2], [0.3, 0.4]])
    assert ShotBatch(*ONE_D2_BETWEEN_D1, readout, attempts=2).readout is readout
    # A pointer-free experiment's readout has one row of no columns per D1 shot.
    assert ShotBatch(*ONE_D2_BETWEEN_D1, np.empty((2, 0)), attempts=2).readout.shape == (2, 0)


@pytest.mark.parametrize(
    "readout",
    [
        pytest.param(np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]]), id="one-row-more"),
        pytest.param(np.array([[0.1, 0.2]]), id="one-row-fewer"),
        pytest.param(np.array([[0.1, 0.2], [np.nan, np.nan], [0.3, 0.4]]), id="nan-padded-row-per-shot"),
        pytest.param(np.array([[0.1, 0.2], [0.3, np.nan]]), id="nan-in-one-column"),
        pytest.param(np.array([0.1, 0.2]), id="1-d"),
        pytest.param(np.empty((1, 0)), id="pointer-free-one-row-fewer"),
        pytest.param(np.empty((3, 0)), id="pointer-free-one-row-more"),
    ],
)
def test_shot_batch_rejects_a_readout_not_one_finite_row_per_d1_shot(readout):
    with pytest.raises(ValueError, match="one row per D1 shot and no NaN"):
        ShotBatch(*ONE_D2_BETWEEN_D1, readout)


def test_shot_batch_rejects_negative_shot_ids():
    # The CSV writer formats ids as unsigned digits; sample_shots never makes a
    # negative one, and a hand-built batch with one cannot be built.
    detector = np.array([2, 3], dtype=np.uint8)
    for first_shot in (-1, -2, np.int64(-1)):
        with pytest.raises(ValueError, match=r"must lie in \[0, 2\*\*63\)"):
            ShotBatch(first_shot=first_shot, detector=detector, readout=np.empty((0, 1)))
    empty = ShotBatch(0, np.zeros(0, dtype=np.uint8), np.zeros((0, 1)))
    assert len(empty) == 0


def test_shot_batch_ids_end_below_2_to_63():
    # Shots first_shot .. first_shot + n - 1 must all lie below 2**63, the
    # rule sample_shots applies: the last accepted range ends at 2**63 - 1.
    detector = np.array([2, 3, 2], dtype=np.uint8)
    for first_shot in (2**63 - 3, np.int64(2**63 - 3), np.uint64(2**63 - 3)):
        batch = ShotBatch(first_shot, detector, np.empty((0, 2)))
        assert (type(batch.first_shot), batch.first_shot) == (int, 2**63 - 3)
    for first_shot in (2**63 - 2, 2**63, 2**64 + 1, np.uint64(2**63 - 2)):
        with pytest.raises(ValueError, match=r"must lie in \[0, 2\*\*63\)"):
            ShotBatch(first_shot, detector, np.empty((0, 2)))
    assert len(ShotBatch(2**63, np.zeros(0, dtype=np.uint8), np.empty((0, 2)))) == 0


@pytest.mark.parametrize("first_shot", [0.0, 1.5, "0", None, np.float64(0.0), np.array([0])])
def test_shot_batch_rejects_a_non_integer_first_shot(first_shot):
    with pytest.raises(TypeError, match="integer"):
        ShotBatch(first_shot, *ONE_D2_BETWEEN_D1[1:], np.zeros((2, 2)))


def test_shot_batch_takes_a_nonnegative_integer_attempt_count():
    # Tally adds a batch's attempts into the run's count, which the summary
    # reports as diagnostics.sampler: a negative or fractional count is refused,
    # and so is one below the readout rows, since each readout took a proposal.
    assert ShotBatch(0, np.array([2, 3], dtype=np.uint8), np.empty((0, 1))).attempts == 0
    for attempts in (2, 5, np.int64(5), np.uint8(2)):
        batch = ShotBatch(*ONE_D2_BETWEEN_D1, np.zeros((2, 1)), attempts=attempts)
        assert (type(batch.attempts), batch.attempts) == (int, int(attempts))
    for attempts in (-1, -3, np.int64(-1)):
        with pytest.raises(ValueError, match="attempts must be nonnegative"):
            ShotBatch(*ONE_D2_BETWEEN_D1, np.zeros((2, 1)), attempts=attempts)
    # The default of 0 attempts holds only for a batch without readouts.
    for attempts in ({}, {"attempts": 0}, {"attempts": 1}, {"attempts": np.uint8(1)}):
        with pytest.raises(ValueError, match="attempts must be at least the 2 readout rows"):
            ShotBatch(*ONE_D2_BETWEEN_D1, np.zeros((2, 1)), **attempts)
    for attempts in (1.5, 2.0, "3", None, np.float64(2.0)):
        with pytest.raises(TypeError, match="integer"):
            ShotBatch(*ONE_D2_BETWEEN_D1, np.zeros((2, 1)), attempts=attempts)


@pytest.mark.parametrize("dtype", [np.float32, ">f8", np.float16, np.int64, np.complex128])
def test_shot_batch_rejects_readouts_not_native_float64(dtype):
    # The CSV formatter reads the readouts' float64 bits as they are, so a
    # batch holds no other precision or byte order.
    readout = np.array([[0.1, 0.2], [0.3, 0.4]]).astype(dtype)
    with pytest.raises(ValueError, match="native float64"):
        ShotBatch(*ONE_D2_BETWEEN_D1, readout)


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
    tally = Tally(2)
    tally.add(batch)
    estimated = cli.estimated_summary(tally, experiment)
    assert tally.n_shots == 5000
    assert estimated["d1_count"] == tally.d1_count == int(np.sum(batch.detector == 1))
    assert estimated["post_rate"] == estimated["d1_count"] / 5000
    assert list(estimated["means"]) == ["vertical", "horizontal"]
    for axis, mean in estimated["means"].items():
        assert estimated["standard_errors"][axis] > 0
        assert estimated["mean_over_coupling"][axis] == pytest.approx(mean / 1e-2)
    empty = Tally(2)
    empty.add(ShotBatch(0, np.empty(0, dtype=np.uint8), np.empty((0, 2))))
    with pytest.raises(ValueError, match="no shots"):
        cli.estimated_summary(empty, experiment)


def test_tally_rejects_a_batch_of_another_width():
    # A weak-cheshire batch has two readout columns; a tally of one or three axes must not fold it.
    batch = sample_shots(cheshire_experiment(), 200, seed=8)
    for axes in (1, 3):
        tally = Tally(axes)
        with pytest.raises(ValueError, match=f"batch has 2 readout axes, the tally {axes}"):
            tally.add(batch)
        assert (tally.n_shots, tally.d1_count, tally.attempts) == (0, 0, 0)


@pytest.mark.parametrize(
    "sizes",
    [
        pytest.param([6000], id="1"),
        pytest.param([1, 3, 7, 2989, 3000], id="1-3-7-2989-3000"),
        pytest.param([5, 1000] * 5 + [970], id="5-1000"),
    ],
)
def test_merged_tally_matches_numpy_over_the_whole_run(sizes):
    # Chan-Golub-LeVeque merges of uneven shards against numpy's reductions
    # of all readouts: bit for bit for one shard, to rounding otherwise.
    experiment = cheshire_experiment(0.5, 0.5)
    n = sum(sizes)
    batch = sample_shots(experiment, n, seed=4)
    readouts = batch.readout
    assert readouts.shape == (np.count_nonzero(batch.detector == 1), 2)
    tally = Tally(2)
    for start, size in zip(np.cumsum([0] + sizes[:-1]).tolist(), sizes):
        tally.add(sample_shots(experiment, size, seed=4, first_shot=start))
    estimated = cli.estimated_summary(tally, experiment)
    d1_count = estimated["d1_count"]
    assert (tally.n_shots, d1_count, tally.attempts) == (n, readouts.shape[0], batch.attempts)
    for k, axis in enumerate(estimated["means"]):
        mean, std = float(np.mean(readouts[:, k])), float(np.std(readouts[:, k], ddof=1))
        est_mean, stderr = estimated["means"][axis], estimated["standard_errors"][axis]
        if len(sizes) == 1:
            assert (est_mean, stderr) == (mean, std / np.sqrt(d1_count))
        assert est_mean == pytest.approx(mean, rel=1e-12, abs=0)
        assert stderr * np.sqrt(d1_count) == pytest.approx(std, rel=1e-12, abs=0)


def test_estimate_requires_two_d1_shots():
    experiment = cheshire_experiment()
    detector = np.full(51, 2, dtype=np.uint8)
    detector[50] = 1
    tally = Tally(2)
    tally.add(ShotBatch(0, detector, np.zeros((1, 2)), attempts=1))
    assert (tally.n_shots, tally.d1_count) == (51, 1)
    with pytest.raises(InsufficientData):
        cli.estimated_summary(tally, experiment)


def test_zero_coupling_mean_is_statistically_zero():
    experiment = cheshire_experiment(g=0.0, h=0.0)
    tally = Tally(2)
    tally.add(sample_shots(experiment, 5000, seed=21))
    estimated = cli.estimated_summary(tally, experiment)
    for axis, mean in estimated["means"].items():
        assert abs(mean) < 4 * estimated["standard_errors"][axis]
        assert estimated["mean_over_coupling"][axis] is None


def test_strong_probe_mean_matches_closed_form():
    # coupling/width = 10: sampled mean against the analytic mixture mean.
    experiment = single_probe_experiment("photon_in_arm1", 10.0, axis=Axis.VERTICAL)
    tally = Tally(1)
    tally.add(sample_shots(experiment, 4000, seed=12))
    estimated = cli.estimated_summary(tally, experiment)
    analysis = analyze(experiment)
    expected = mixture_moments(analysis.mixture)[Axis.VERTICAL].mean
    assert expected == pytest.approx(10.0, abs=1e-12)  # single displaced Gaussian
    assert abs(estimated["means"]["vertical"] - expected) < 4 * estimated["standard_errors"]["vertical"]


def test_interference_regime_sampling_respects_envelope():
    # coupling ~ width maximises the cross terms; the envelope assertion
    # inside the sampler runs on every draw under pytest (__debug__).
    experiment = single_probe_experiment("angular_momentum_arm2", 1.0)
    tally = Tally(1)
    tally.add(sample_shots(experiment, 3000, seed=9))
    estimated = cli.estimated_summary(tally, experiment)
    analysis = analyze(experiment)
    expected = mixture_moments(analysis.mixture)[Axis.HORIZONTAL]
    assert abs(estimated["means"]["horizontal"] - expected.mean) < 4 * estimated["standard_errors"]["horizontal"]


@pytest.mark.slow
def test_estimator_consistency_over_many_seeds():
    # 100 independent seeds at 10^4 shots: at least 95 land within 4
    # standard errors of the analytic mean on both axes.
    experiment = cheshire_experiment()
    analysis = analyze(experiment)
    moments = mixture_moments(analysis.mixture)
    hits = 0
    for seed in range(100):
        tally = Tally(2)
        tally.add(sample_shots(experiment, 10_000, seed=seed))
        estimated = cli.estimated_summary(tally, experiment)
        ok = all(
            abs(estimated["means"][axis.value] - moments[axis].mean) <= 4 * estimated["standard_errors"][axis.value]
            for axis in (Axis.VERTICAL, Axis.HORIZONTAL)
        )
        hits += ok
    assert hits >= 95


def chi_square_z(observed, expected):
    """Wilson-Hilferty normal score of Pearson's chi-square with len - 1 degrees of freedom."""
    k = observed.size - 1
    chi2 = float(np.sum((observed - expected) ** 2 / expected))
    return ((chi2 / k) ** (1 / 3) - (1 - 2 / (9 * k))) / np.sqrt(2 / (9 * k))


@pytest.mark.slow
@pytest.mark.parametrize("experiment", [cheshire_experiment(), single_probe_experiment("angular_momentum_arm2", 1e-2)])
def test_readout_histogram_matches_quadrature_density(experiment):
    # 10^6 readouts in 20 cells per axis over +-4 s around the mean; cells
    # expecting fewer than 20 readouts join one cell for the rest.  A shape
    # error that keeps the moments shows here.
    analysis = analyze(experiment)
    assert analysis.envelope.name == "centre"
    n, chunk, bins = 10**6, 1 << 17, 20
    readouts = np.concatenate(
        [
            analysis.envelope.sample(3, np.arange(start, min(start + chunk, n), dtype=np.uint64))[0]
            for start in range(0, n, chunk)
        ]
    )
    mixture = analysis.mixture
    means = np.array([mixture_moments(mixture)[axis].mean for axis in mixture.axes])
    lo, hi = means - 4 * mixture.widths, means + 4 * mixture.widths
    masses = bin_masses(lambda points: mixture_density(mixture, points), lo, hi, bins)
    inside = np.all((readouts >= lo) & (readouts < hi), axis=1)
    cells = np.minimum(np.floor((readouts[inside] - lo) / (hi - lo) * bins).astype(int), bins - 1)
    counts = np.bincount(np.ravel_multi_index(cells.T, masses.shape), minlength=masses.size)
    expected = n * masses.ravel()
    kept = expected >= 20
    observed = np.append(counts[kept], n - counts[kept].sum())
    expected = np.append(expected[kept], n - expected[kept].sum())
    assert kept.sum() >= bins and expected[-1] >= 20
    assert abs(chi_square_z(observed, expected)) < 5
