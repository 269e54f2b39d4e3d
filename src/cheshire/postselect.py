"""Statistics of pre- and post-selected ensembles.

Everything here conditions on both the prepared state and a later successful
post-selection.  Strong (projective) intermediate measurements follow the
two-step collapse rule: outcome a of an observable with eigenspace projector
P_a, between pre-state psi and post-state phi, has conditional probability

    prob(a | psi, phi)  propto  |<phi| P_a |psi>|^2

normalized over outcomes (the ABL rule); sequences of measurements chain the
projectors in time order.  Weakly coupled pointers instead read out the weak
value <phi|A|psi> / <phi|psi>, which needs no collapse at all.

Both the ABL tables here and the branch structure the Monte Carlo sampler
draws from (``montecarlo._structure``) read one projection of the pre-state
through the observables' eigenprojectors, :func:`_walk`.
"""

from __future__ import annotations

from itertools import product
from typing import Hashable, Sequence

import numpy as np

from .qstate import ATOL, DIM, Ket, SpectralObservable, _Frozen, apply, inner


class OrthogonalSelection(ValueError):
    """Pre- and post-states are orthogonal: no weak value exists."""


class NoValidHistory(ValueError):
    """Every measurement history is incompatible with the post-selection."""


class ConditionalDistribution(_Frozen):
    """Outcome probabilities conditioned on successful post-selection.

    ``success_probability`` is the unconditioned probability that the
    post-selection succeeds after the measurement(s) were performed.
    """

    def __init__(self, outcomes: dict[Hashable, float], success_probability: float) -> None:
        vars(self).update(outcomes=outcomes, success_probability=success_probability)


def weak_value(op: np.ndarray, pre: Ket, post: Ket) -> complex:
    """Weak value <post|op|pre> / <post|pre> of an operator.

    Raises OrthogonalSelection when the overlap <post|pre> vanishes; such a
    pre/post pair admits no weak value.
    """
    overlap = inner(post, pre)
    if abs(overlap) < ATOL:
        raise OrthogonalSelection("pre- and post-states are orthogonal within tolerance")
    return inner(post, apply(op, pre)) / overlap


def _walk(pre: Ket, obs_list: Sequence[SpectralObservable], post: Ket) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Project ``pre`` through each observable's eigenprojectors in turn.

    Returns the projected systems P_{a_k} ... P_{a_1}|pre>, shape (rows,
    DIM); the eigenvalue pattern, row i holding its outcome tuple (a_1, ...,
    a_k); and each row's amplitude <post|system>.  Rows are in row-major
    order, the last observable's branch varying fastest, and none is
    dropped, not even a zero one.
    """
    systems = pre.amps[None, :]
    for obs in obs_list:
        # Row (b, e) in row-major order is branch b projected on eigenspace e.
        systems = np.einsum("eij,bj->bei", np.stack([proj for _, proj in obs.branches]), systems).reshape(-1, DIM)
    # product's order is that row order; with no observable it gives one empty row.
    pattern = np.array(list(product(*([value for value, _ in obs.branches] for obs in obs_list))))
    return systems, pattern, systems @ post.amps.conj()


def _histories(obs_list: Sequence[SpectralObservable], pre: Ket, post: Ket) -> tuple[dict[tuple, float], float]:
    """Map each outcome tuple (a_1, ..., a_k) to |<post| P_{a_k} ... P_{a_1} |pre>|^2, and their sum.

    Tuples come in :func:`_walk`'s row order, and the sum adds them left to
    right in that order.  Raises NoValidHistory when the sum is below
    ``ATOL**2``: the post-selection can then never succeed.
    """
    _, pattern, amplitudes = _walk(pre, obs_list, post)
    numerators = {tuple(row): abs(amplitude) ** 2 for row, amplitude in zip(pattern.tolist(), amplitudes.tolist())}
    total = 0.0
    for numerator in numerators.values():  # not sum(): Python 3.12 made it compensated, which moves the bits
        total += numerator
    if total < ATOL**2:
        raise NoValidHistory("post-selection cannot succeed through any measurement history")
    return numerators, total


def abl_distribution(obs: SpectralObservable, pre: Ket, post: Ket) -> ConditionalDistribution:
    """Conditional outcome distribution of one projective measurement.

    All eigenvalues appear as keys, including those with probability zero.
    Raises NoValidHistory when every outcome is incompatible with the
    post-selection (it can then never succeed).
    """
    numerators, total = _histories((obs,), pre, post)
    return ConditionalDistribution(
        outcomes={value: num / total for (value,), num in numerators.items()},
        success_probability=total,
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
    numerators, total = _histories(obs_list, pre, post)
    outcomes = {history: num / total for history, num in numerators.items() if num / total > ATOL}
    return ConditionalDistribution(outcomes=outcomes, success_probability=total)
