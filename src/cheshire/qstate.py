"""Single-photon Hilbert space: interferometer arm x circular polarisation.

The space is four-dimensional.  Basis states are ordered

    (arm 1, +), (arm 1, -), (arm 2, +), (arm 2, -)

where ``+``/``-`` are the two circular polarisations (angular momentum
eigenvalues +1/-1).  Linear polarisations follow the real convention

    H = (+  +  -) / sqrt(2),        V = (+  -  -) / sqrt(2)

so every canonical state and observable in this package has real
coefficients in the canonical basis.

Operators are plain 4x4 complex numpy arrays.  A ket need not have unit
norm: intermediate results of projections are left unnormalized.

Kets and spectral observables freeze their arrays read-only, so the
canonical states and observables are built once per process (the
observables come in a new dict on each call).  A spectral observable checks
its invariants when it is built and raises ValueError if they fail, so no
later caller checks it again.
"""

from __future__ import annotations

from functools import cache

import numpy as np

DIM = 4

# Absolute tolerance for algebraic identities.  The space is 4-dimensional
# and dominated by exactly representable values, so this is not generous.
ATOL = 1e-12


class _Frozen:
    """Base of the package's immutable classes, which compare and hash by identity.

    ``__init__`` sets the fields through ``vars(self)``, as ``cached_property``
    does; assigning or deleting an attribute raises AttributeError.
    """

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Ket(_Frozen):
    """State vector over the canonical basis.

    ``amps`` is a read-only complex copy of the 4 amplitudes given.
    """

    def __init__(self, amps) -> None:
        amps = np.array(amps, dtype=np.complex128)
        if amps.shape != (DIM,):
            raise ValueError(f"ket must have {DIM} amplitudes, got shape {amps.shape}")
        if not np.all(np.isfinite(amps.view(np.float64))):
            raise ValueError("ket amplitudes must be finite")
        amps.setflags(write=False)
        vars(self)["amps"] = amps

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))


def normalize(state: Ket) -> Ket:
    """Rescale to unit norm; rejects (near-)zero vectors."""
    n = state.norm()
    if n < ATOL:
        raise ValueError("cannot normalize a zero ket")
    return Ket(state.amps / n)


def inner(bra: Ket, ket: Ket) -> complex:
    """Inner product <bra|ket>, conjugate-linear in the first argument."""
    return complex(np.vdot(bra.amps, ket.amps))


def apply(op: np.ndarray, state: Ket) -> Ket:
    """Matrix-vector product ``op @ state``, left unnormalized."""
    op = np.asarray(op, dtype=np.complex128)
    if op.shape != (DIM, DIM):
        raise ValueError(f"operator must be {DIM}x{DIM}, got shape {op.shape}")
    return Ket(op @ state.amps)


def identity() -> np.ndarray:
    return np.eye(DIM, dtype=np.complex128)


class SpectralObservable(_Frozen):
    """Observable given by its spectral data: (eigenvalue, eigenspace projector) pairs.

    Degenerate eigenspaces are kept as single higher-rank projectors; the
    conditional-probability rules only ever need the projectors.

    The branches are frozen and checked when the observable is built, in
    order: every eigenvalue is finite and every projector is a finite 4x4
    projector (hermitian and idempotent), projectors are pairwise orthogonal,
    they sum to the identity, and eigenvalues are pairwise distinct.  The
    first violation raises ValueError naming it, so every observable that
    exists is valid.
    """

    def __init__(self, branches) -> None:
        frozen = []
        for value, proj in branches:
            proj = np.asarray(proj, dtype=np.complex128).copy()
            proj.setflags(write=False)
            frozen.append((float(value), proj))
        branches = tuple(frozen)
        reason, residual = _spectral_violation(branches)
        if reason is not None:
            raise ValueError(f"invalid spectral observable: {reason} (max entrywise residual {residual:.3e})")
        vars(self)["branches"] = branches


def observable_operator(obs: SpectralObservable) -> np.ndarray:
    """The operator sum_a a * P_a of a spectral observable."""
    total = np.zeros((DIM, DIM), dtype=np.complex128)
    for value, proj in obs.branches:
        total += value * proj
    return total


def _spectral_violation(branches) -> tuple[str | None, float]:
    """The first spectral invariant ``branches`` violate and its residual; (None, 0.0) when valid."""
    if not branches:
        return "observable has no branches", 0.0
    for value, proj in branches:
        if proj.shape != (DIM, DIM):
            return f"projector for eigenvalue {value} has shape {proj.shape}", 0.0
        # The residual tests below reject a non-finite projector too, but as
        # "not hermitian" with a NaN residual; this names the cause.  A
        # non-finite eigenvalue enters no residual, so only this check sees it.
        if not (np.isfinite(value) and np.all(np.isfinite(proj))):
            return f"eigenvalue {value} or its projector is not finite", 0.0
        res = float(np.max(np.abs(proj - proj.conj().T)))
        if not res <= ATOL:
            return f"projector for eigenvalue {value} is not hermitian", res
        res = float(np.max(np.abs(proj @ proj - proj)))
        if not res <= ATOL:
            return f"projector for eigenvalue {value} is not idempotent", res
    for i in range(len(branches)):
        for j in range(i + 1, len(branches)):
            res = float(np.max(np.abs(branches[i][1] @ branches[j][1])))
            if not res <= ATOL:
                return f"projectors for eigenvalues {branches[i][0]} and {branches[j][0]} are not orthogonal", res
    total = sum(proj for _, proj in branches)
    res = float(np.max(np.abs(total - identity())))
    if not res <= ATOL:
        return "projectors do not sum to the identity", res
    for i in range(len(branches)):
        for j in range(i + 1, len(branches)):
            if abs(branches[i][0] - branches[j][0]) <= ATOL:
                return f"duplicate eigenvalue {branches[i][0]}", 0.0
    return None, 0.0


def _diag_projector(diagonal) -> np.ndarray:
    return np.diag(np.asarray(diagonal, dtype=np.complex128))


@cache
def canonical_states() -> tuple[Ket, Ket]:
    """The pre- and post-selected states of the experiment.

    pre  = (|1> + |2>)(|+> + |->)/2            -- arms superposed, H polarised
    post = (|1>(|+> + |->) + |2>(|+> - |->))/2 -- H in arm 1, V in arm 2

    Built once per process; Kets are immutable, and so is the tuple.
    """
    pre = Ket(np.full(DIM, 0.5))
    post = Ket([0.5, 0.5, 0.5, -0.5])
    return pre, post


def canonical_observables() -> dict[str, SpectralObservable]:
    """The experiment's observables, all diagonal in the canonical basis.

    - ``photon_in_arm1`` / ``photon_in_arm2``: non-demolition presence
      detectors, eigenvalues {1, 0}.
    - ``angular_momentum``: circular polarisation +/-1, each eigenvalue
      doubly degenerate across the two arms (rank-2 projectors).
    - ``angular_momentum_arm1`` / ``angular_momentum_arm2``: polarisation
      detector restricted to one arm; eigenvalues {+1, -1, 0} with the 0
      eigenspace spanned by both polarisations of the other arm.

    The observables are built once per process; each call returns a new
    dict of them, so a caller that edits the dict cannot change the next.
    """
    return dict(_canonical_observables())


@cache
def _canonical_observables() -> dict[str, SpectralObservable]:
    arm1 = _diag_projector([1, 1, 0, 0])
    arm2 = _diag_projector([0, 0, 1, 1])
    plus = _diag_projector([1, 0, 1, 0])
    minus = _diag_projector([0, 1, 0, 1])
    return {
        "photon_in_arm1": SpectralObservable(((1.0, arm1), (0.0, arm2))),
        "photon_in_arm2": SpectralObservable(((1.0, arm2), (0.0, arm1))),
        "angular_momentum": SpectralObservable(((+1.0, plus), (-1.0, minus))),
        "angular_momentum_arm1": SpectralObservable(
            ((+1.0, _diag_projector([1, 0, 0, 0])), (-1.0, _diag_projector([0, 1, 0, 0])), (0.0, arm2))
        ),
        "angular_momentum_arm2": SpectralObservable(
            ((+1.0, _diag_projector([0, 0, 1, 0])), (-1.0, _diag_projector([0, 0, 0, 1])), (0.0, arm1))
        ),
    }
