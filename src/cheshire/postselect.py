"""Statistics of pre- and post-selected ensembles.

Everything here conditions on both the prepared state and a later successful
post-selection.  Strong (projective) intermediate measurements follow the
two-step collapse rule: outcome a of an observable with eigenspace projector
P_a, between pre-state psi and post-state phi, has conditional probability

    prob(a | psi, phi)  propto  |<phi| P_a |psi>|^2

normalized over outcomes (the ABL rule); sequences of measurements chain the
projectors in time order.  Weakly coupled pointers instead read out the weak
value <phi|A|psi> / <phi|psi>, which needs no collapse at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Sequence

import numpy as np

from .qstate import ATOL, Ket, SpectralObservable, apply, inner, normalize


class OrthogonalSelection(ValueError):
    """Pre- and post-states are orthogonal: no weak value exists."""


class NoValidHistory(ValueError):
    """Every measurement history is incompatible with the post-selection."""


class ImpossibleOutcome(ValueError):
    """The requested outcome has no support in the given state."""


@dataclass(frozen=True, eq=False)
class ConditionalDistribution:
    """Outcome probabilities conditioned on successful post-selection.

    ``success_probability`` is the unconditioned probability that the
    post-selection succeeds after the measurement(s) were performed.
    """

    outcomes: dict[Hashable, float]
    success_probability: float


def weak_value(op: np.ndarray, pre: Ket, post: Ket) -> complex:
    """Weak value <post|op|pre> / <post|pre> of an operator.

    Raises OrthogonalSelection when the overlap <post|pre> vanishes; such a
    pre/post pair admits no weak value.
    """
    overlap = inner(post, pre)
    if abs(overlap) < ATOL:
        raise OrthogonalSelection("pre- and post-states are orthogonal within tolerance")
    return inner(post, apply(op, pre)) / overlap


def abl_distribution(obs: SpectralObservable, pre: Ket, post: Ket) -> ConditionalDistribution:
    """Conditional outcome distribution of one projective measurement.

    All eigenvalues appear as keys, including those with probability zero.
    Raises NoValidHistory when every outcome is incompatible with the
    post-selection (it can then never succeed).
    """
    numerators = {
        value: abs(inner(post, apply(proj, pre))) ** 2 for value, proj in obs.branches
    }
    total = sum(numerators.values())
    if total < ATOL**2:
        raise NoValidHistory("post-selection cannot succeed through this measurement")
    return ConditionalDistribution(
        outcomes={value: num / total for value, num in numerators.items()},
        success_probability=float(total),
    )


def sequential_distribution(
    obs_list: Sequence[SpectralObservable], pre: Ket, post: Ket
) -> ConditionalDistribution:
    """Joint conditional distribution of a time-ordered measurement sequence.

    Outcome tuple (a_1, ..., a_k) gets probability proportional to
    |<post| P_{a_k} ... P_{a_1} |pre>|^2.  Order matters when the
    observables do not commute.  Tuples whose conditional probability is at
    or below ``ATOL`` are omitted; for a single observable this reduces to
    the part of :func:`abl_distribution` above ``ATOL``.
    """
    if not obs_list:
        raise ValueError("obs_list must contain at least one observable")
    numerators: dict[tuple[float, ...], float] = {}
    post_amps = post.amps

    def walk(step: int, outcome_prefix: tuple[float, ...], vec: np.ndarray) -> None:
        if step == len(obs_list):
            numerators[outcome_prefix] = abs(np.vdot(post_amps, vec)) ** 2
            return
        for value, proj in obs_list[step].branches:
            walk(step + 1, outcome_prefix + (value,), proj @ vec)

    walk(0, (), pre.amps)
    total = sum(numerators.values())
    if total < ATOL**2:
        raise NoValidHistory("post-selection cannot succeed through this measurement sequence")
    outcomes = {
        tup: float(num / total) for tup, num in numerators.items() if num / total > ATOL
    }
    return ConditionalDistribution(outcomes=outcomes, success_probability=float(total))


def collapse(obs: SpectralObservable, outcome: float, state: Ket) -> Ket:
    """State after a projective measurement yielded ``outcome``.

    Raises ImpossibleOutcome when the state has no support in the outcome's
    eigenspace, and ValueError when ``outcome`` is not an eigenvalue at all.
    """
    projected = apply(obs.projector(outcome), state)
    if projected.norm() < ATOL:
        raise ImpossibleOutcome(f"state has no component with outcome {outcome}")
    return normalize(projected)
