"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 1-8 are analytic or property-based and run in the default tier;
criterion 9 is the statistical tier (10^6 shots) behind --runslow.
"""

import numpy as np
import pytest

from cheshire import (
    Axis,
    Detector,
    Experiment,
    GaussianPointer,
    Tally,
    abl_distribution,
    analyze,
    canonical_observables,
    canonical_states,
    mixture_density,
    mixture_moments,
    observable_operator,
    sample_shots,
    sequential_distribution,
    weak_value,
)
from cheshire.cli import estimated_summary, write_shots_csv
from cheshire.qstate import Ket, inner, normalize
from oracles import collapse_chain_distribution, lobe_masses, quadrature_moments

PRE, POST = canonical_states()
OBS = canonical_observables()


def postselected_mixture(*couplings):
    """The D1 pointer mixture of the canonical pre-state coupled to (observable, pointer) pairs in order."""
    return analyze(Experiment(pre=PRE, couplings=couplings)).mixture


def report(number: int, ok: bool, detail: str) -> None:
    print(f"acceptance criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_weak_values_exact():
    expected = {
        "photon_in_arm1": 1.0,
        "photon_in_arm2": 0.0,
        "angular_momentum_arm1": 0.0,
        "angular_momentum_arm2": 1.0,
    }
    values = {
        name: weak_value(observable_operator(OBS[name]), PRE, POST) for name in expected
    }
    ok = all(abs(values[name] - expected[name]) <= 1e-12 for name in expected)
    report(1, ok, f"weak values {{arm1, arm2, angmom arm1, angmom arm2}} = "
                  f"{[values[n].real for n in expected]}")


def test_criterion_2_certain_path():
    single = abl_distribution(OBS["photon_in_arm1"], PRE, POST)
    both = sequential_distribution(
        [OBS["photon_in_arm1"], OBS["photon_in_arm2"]], PRE, POST
    )
    ok = (
        abs(single.outcomes[1.0] - 1.0) <= 1e-12
        and abs(single.outcomes[0.0]) <= 1e-12
        and set(both.outcomes) == {(1.0, 0.0)}
        and abs(both.outcomes[(1.0, 0.0)] - 1.0) <= 1e-12
    )
    report(2, ok, f"arm-1 probe {single.outcomes}, probes in both arms {both.outcomes}")


def test_criterion_3_smile_in_arm_2():
    dist = abl_distribution(OBS["angular_momentum_arm2"], PRE, POST)
    oracle, _ = collapse_chain_distribution([OBS["angular_momentum_arm2"]], PRE, POST)
    expected = {1.0: 1 / 6, -1.0: 1 / 6, 0.0: 2 / 3}
    ok = all(abs(dist.outcomes[v] - p) <= 1e-12 for v, p in expected.items()) and all(
        abs(dist.outcomes[v] - oracle.get((v,), 0.0)) <= 1e-12 for v in dist.outcomes
    )
    report(3, ok, f"conditional angular momentum in arm 2: {dist.outcomes}")


def test_criterion_4_paradox_dissolves_under_joint_probes():
    dist = sequential_distribution(
        [OBS["angular_momentum_arm2"], OBS["photon_in_arm1"], OBS["photon_in_arm2"]],
        PRE,
        POST,
    )
    offending = {
        outcome: prob
        for outcome, prob in dist.outcomes.items()
        if outcome[0] != 0.0 and outcome[1] == 1.0
    }
    ok = all(prob <= 1e-12 for prob in offending.values())
    report(4, ok, f"momentum-in-arm-2 & photon-in-arm-1 outcomes: {offending or 'none'}")


def test_criterion_5_postselection_equivalence():
    rng = np.random.default_rng(20260810)
    worst = 0.0
    for _ in range(120):
        amps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        state = normalize(Ket(amps))
        p_d1 = analyze(Experiment(pre=state, couplings=())).detector_probabilities[Detector.D1]
        worst = max(worst, abs(p_d1 - abs(inner(POST, state)) ** 2))
    overlap = abs(inner(POST, PRE)) ** 2
    ok = worst <= 1e-12 and abs(overlap - 0.25) <= 1e-12
    report(5, ok, f"max |P(D1) - |<post|s>|^2| = {worst:.2e}, |<post|pre>|^2 = {overlap}")


def test_criterion_6_weak_limit_convergence():
    errors = []
    quad_ok = True
    for g in (1e-1, 1e-2, 1e-3):
        probe = GaussianPointer(width=1.0, coupling=g, axis=Axis.HORIZONTAL)
        mixture = postselected_mixture((OBS["angular_momentum_arm2"], probe))
        mean = mixture_moments(mixture)[Axis.HORIZONTAL].mean
        errors.append(abs(mean / g - 1.0))
        _, (quad_mean,), (quad_var,) = quadrature_moments(
            mixture, lambda pts: mixture_density(mixture, pts)
        )
        moments = mixture_moments(mixture)[Axis.HORIZONTAL]
        quad_ok &= abs(moments.mean - quad_mean) <= 1e-9 * max(abs(quad_mean), 1e-30)
        quad_ok &= abs(moments.variance - quad_var) <= 1e-9 * abs(quad_var)
    ratios = [errors[0] / errors[1], errors[1] / errors[2]]
    ok = all(50 <= r <= 200 for r in ratios) and quad_ok
    report(6, ok, f"errors {errors}, per-decade ratios {ratios}, quadrature agreement {quad_ok}")


def test_criterion_7_strong_limit_matches_conditional_probabilities():
    g = 1e3
    probe = GaussianPointer(width=1.0, coupling=g, axis=Axis.HORIZONTAL)
    mixture = postselected_mixture((OBS["angular_momentum_arm2"], probe))
    abl = abl_distribution(OBS["angular_momentum_arm2"], PRE, POST).outcomes
    masses = lobe_masses(
        mixture, lambda pts: mixture_density(mixture, pts), [g * v for v in abl]
    )
    deviation = max(abs(mass - prob) for mass, prob in zip(masses, abl.values()))
    ok = deviation <= 1e-6
    report(7, ok, f"lobe masses {masses} vs conditional probabilities {list(abl.values())}")


def test_criterion_8_simultaneous_cheshire_cat():
    g = h = 1e-2
    mixture = postselected_mixture(
        (OBS["photon_in_arm1"], GaussianPointer(width=1.0, coupling=g, axis=Axis.VERTICAL)),
        (OBS["angular_momentum_arm2"], GaussianPointer(width=1.0, coupling=h, axis=Axis.HORIZONTAL)),
    )
    moments = mixture_moments(mixture)
    ratio_v = moments[Axis.VERTICAL].mean / g
    ratio_h = moments[Axis.HORIZONTAL].mean / h
    ok = abs(ratio_v - 1.0) <= 1e-3 and abs(ratio_h - 1.0) <= 1e-3
    report(8, ok, f"cat (arm 1) mean/g = {ratio_v}, smile (arm 2) mean/h = {ratio_h}")


@pytest.mark.slow
def test_criterion_9_monte_carlo_statistical_tier(tmp_path):
    n = 1_000_000
    experiment = Experiment(
        pre=PRE,
        couplings=(
            (OBS["photon_in_arm1"], GaussianPointer(width=1.0, coupling=1e-2, axis=Axis.VERTICAL)),
            (OBS["angular_momentum_arm2"], GaussianPointer(width=1.0, coupling=1e-2, axis=Axis.HORIZONTAL)),
        ),
    )
    batch = sample_shots(experiment, n, seed=0)
    tally = Tally(2)
    tally.add(batch)
    estimated = estimated_summary(tally, experiment)
    binom_sigma = np.sqrt(0.25 * 0.75 / n)
    rate_ok = abs(estimated["post_rate"] - 0.25) <= 3 * binom_sigma
    mean_ok = all(
        abs(ratio - 1.0) <= 4 * estimated["standard_errors"][axis] / 1e-2
        for axis, ratio in estimated["mean_over_coupling"].items()
    )

    first_csv = tmp_path / "first.csv"
    second_csv = tmp_path / "second.csv"
    for path, records in ((first_csv, batch), (second_csv, sample_shots(experiment, n, seed=0))):
        with open(path, "wb") as fh:
            write_shots_csv(fh, records, experiment)
    csv_ok = first_csv.read_bytes() == second_csv.read_bytes()

    shard_ok = True
    for shards in (4, 16):
        chunk = n // shards
        shards_run = [
            sample_shots(experiment, chunk, seed=0, first_shot=k * chunk) for k in range(shards)
        ]
        shard_ok &= (
            [(s.first_shot, len(s)) for s in shards_run] == [(k * chunk, chunk) for k in range(shards)]
            and np.array_equal(np.concatenate([s.detector for s in shards_run]), batch.detector)
            and np.array_equal(np.concatenate([s.readout for s in shards_run]), batch.readout)
            and sum(s.attempts for s in shards_run) == batch.attempts
        )

    ok = rate_ok and mean_ok and csv_ok and shard_ok
    report(
        9,
        ok,
        f"post_rate {estimated['post_rate']} (3 sigma band {3 * binom_sigma:.2e}), "
        f"mean/coupling {list(estimated['mean_over_coupling'].values())}, "
        f"byte-identical csv {csv_ok}, shard invariance {shard_ok}",
    )
