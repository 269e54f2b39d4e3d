"""Independent brute-force oracles used to cross-check closed-form code paths.

These deliberately avoid the library's conditional-probability and moment
formulas: measurement sequences are simulated by explicit normalize-
project-renormalize steps with Born factors, the von Neumann branch
structure by splitting one branch at a time, pointer moments come from
trapezoid quadrature of the density on a fine grid, the weak-limit error
from the plain Gram sums at 50 decimal digits, and detector uniforms from
numpy's own Philox generator.  The plain Gaussian kernel below is the other
kind: the pointer formulas written in their first, unfused form, which the
package's in-place kernel must match bit for bit.
"""

import math

import mpmath
import numpy as np


def collapse_chain_distribution(obs_list, pre, post):
    """Enumerate outcome tuples by explicit step-by-step collapse.

    For each tuple: multiply the Born probability of every step (projecting
    and renormalizing the state as a real measurement would), then the final
    post-selection probability.  Returns (dict tuple -> conditional
    probability, success probability); zero-probability tuples are omitted.
    """
    chains = {}

    def walk(step, outcome_prefix, state, prob_so_far):
        if prob_so_far == 0.0:
            return
        if step == len(obs_list):
            final = prob_so_far * abs(np.vdot(post.amps, state)) ** 2
            if final > 0.0:
                chains[outcome_prefix] = final
            return
        for value, proj in obs_list[step].branches:
            projected = proj @ state
            born = float(np.vdot(projected, projected).real)
            if born <= 0.0:
                continue
            walk(step + 1, outcome_prefix + (value,), projected / np.sqrt(born), prob_so_far * born)

    walk(0, (), pre.amps, 1.0)
    success = sum(chains.values())
    return {tup: p / success for tup, p in chains.items()}, success


def loop_couple(branches, obs, coupling):
    """Split each (system amplitudes, displacement tuple) branch per eigenspace of ``obs``.

    The projected branch gains ``coupling * eigenvalue`` as its displacement
    on the new axis; projections of norm below 1e-14 are dropped.
    """
    split = []
    for amps, shifts in branches:
        for value, proj in obs.branches:
            projected = proj @ amps
            if np.linalg.norm(projected) >= 1e-14:
                split.append((projected, shifts + (coupling * value,)))
    return split


def loop_branches(pre, couplings):
    """``loop_couple`` over (observable, coupling) pairs in order, from the one branch ``pre``."""
    branches = [(pre.amps, ())]
    for obs, coupling in couplings:
        branches = loop_couple(branches, obs, coupling)
    return branches


def postselected_weights(branches, post):
    """Weights <post|branch> of the branches, and which to keep: those above 1e-14 max(1, largest |weight|)."""
    weights = [np.vdot(post.amps, amps) for amps, _ in branches]
    bound = 1e-14 * max(1.0, max(map(abs, weights)))
    return weights, [abs(w) > bound for w in weights]


def quadrature_grid(mixture, points_per_width=50, padding=8.0):
    """Per-axis trapezoid grids covering [min d - 8s, max d + 8s] at step s/50."""
    grids = []
    displacements = np.asarray(mixture.displacements, dtype=float).reshape(
        len(mixture.weights), len(mixture.axes)
    )
    for k, width in enumerate(mixture.widths):
        lo = displacements[:, k].min() - padding * width
        hi = displacements[:, k].max() + padding * width
        n = int(np.ceil((hi - lo) / (width / points_per_width))) + 1
        grids.append(np.linspace(lo, hi, n))
    return grids


def quadrature_moments(mixture, density, points_per_width=50):
    """Mass, per-axis mean and variance of ``density`` by trapezoid quadrature.

    ``density`` is a callable on (..., n_axes) arrays, normally the library's
    mixture density; only the *moments* are computed independently here.
    """
    grids = quadrature_grid(mixture, points_per_width)
    if len(grids) == 1:
        (xs,) = grids
        dens = density(xs[:, None])
        mass = np.trapezoid(dens, xs)
        mean = np.trapezoid(dens * xs, xs) / mass
        var = np.trapezoid(dens * xs**2, xs) / mass - mean**2
        return float(mass), [float(mean)], [float(var)]
    if len(grids) == 2:
        xs, ys = grids
        mesh = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1)
        dens = density(mesh)
        mass = np.trapezoid(np.trapezoid(dens, ys, axis=1), xs)
        means, variances = [], []
        for axis_values, axis in ((xs, 0), (ys, 1)):
            marginal = np.trapezoid(dens, grids[1 - axis], axis=1 - axis)
            mean = np.trapezoid(marginal * axis_values, axis_values) / mass
            var = np.trapezoid(marginal * axis_values**2, axis_values) / mass - mean**2
            means.append(float(mean))
            variances.append(float(var))
        return float(mass), means, variances
    raise NotImplementedError("quadrature oracle supports 1 or 2 axes")


def lobe_masses(mixture, density, centers, half_width=12.0):
    """Integrated density mass in a window around each center (1-axis only)."""
    (xs,) = quadrature_grid(mixture)
    dens = density(xs[:, None])
    masses = []
    width = mixture.widths[0]
    for center in centers:
        window = (xs >= center - half_width * width) & (xs <= center + half_width * width)
        masses.append(float(np.trapezoid(dens[window], xs[window])))
    return masses


def weak_limit_error(mixture, axis, coupling, weak_value, digits=50):
    """|mean / coupling - weak_value| on pointer axis index ``axis``, at ``digits`` decimal digits.

    The mean is the plain Gram-sum ratio sum_ij Re(conj(w_i) w_j O_ij) m_ij /
    sum_ij Re(conj(w_i) w_j O_ij) over the mixture's float inputs, taken
    exactly; the ~(g/s)^2 difference keeps far more than float64's digits.
    """
    with mpmath.workdps(digits):
        weights = [mpmath.mpc(complex(w)) for w in mixture.weights]
        displacements = [[mpmath.mpf(float(x)) for x in row] for row in mixture.displacements]
        widths = [mpmath.mpf(float(s)) for s in mixture.widths]
        total = first = mpmath.mpf(0)
        for wi, di in zip(weights, displacements):
            for wj, dj in zip(weights, displacements):
                distance = sum(((a - b) / s) ** 2 for a, b, s in zip(di, dj, widths))
                product = mpmath.re(mpmath.conj(wi) * wj) * mpmath.exp(-distance / 8)
                total += product
                first += product * (di[axis] + dj[axis]) / 2
        return float(abs(first / total / mpmath.mpf(coupling) - mpmath.mpf(weak_value)))


def detector_uniforms(seed, first_shot, n):
    """numpy's ``random()`` values ``first_shot .. first_shot + n - 1`` on the Philox key [seed, 2**64 - 1].

    Equal to ``Generator(Philox(key)).random(first_shot + n)[first_shot:]``;
    ``advance`` skips whole four-word blocks first, so shot ids near 2**63
    need no 2**63 draws.
    """
    bit_generator = np.random.Philox(key=np.array([seed, 2**64 - 1], dtype=np.uint64))
    bit_generator.advance(first_shot // 4)
    skip = first_shot % 4
    return np.random.Generator(bit_generator).random(skip + n)[skip:]


def bin_masses(density, lo, hi, bins, points_per_bin=16):
    """Mass of ``density`` in each cell of ``bins`` equal cells per axis of the box [lo, hi].

    ``lo`` and ``hi`` hold one bound per axis; the result has one dimension
    of length ``bins`` per axis.  Each cell is integrated by the trapezoid
    rule on ``points_per_bin`` sub-intervals per axis.
    """
    grids = [np.linspace(a, b, bins * points_per_bin + 1) for a, b in zip(lo, hi)]
    values = density(np.stack(np.meshgrid(*grids, indexing="ij"), axis=-1))
    for k, xs in enumerate(grids):
        along = np.moveaxis(values, k, 0)
        sums = along[:-1].reshape(bins, points_per_bin, *along.shape[1:]).sum(axis=1)
        edges = along[::points_per_bin]
        cells = (xs[1] - xs[0]) * (sums - edges[:-1] / 2 + edges[1:] / 2)
        values = np.moveaxis(cells, 0, k)
    return values


def ks_normal(samples):
    """Kolmogorov-Smirnov statistic D of ``samples`` against N(0, 1).

    D is the largest distance between the empirical CDF, on either side of
    each step, and Phi(x) = (1 + erf(x / sqrt 2)) / 2.  Plain code, since
    scipy is not a dependency.
    """
    xs = sorted(samples)
    m = len(xs)
    distance = 0.0
    for i, x in enumerate(xs):
        cdf = 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))
        distance = max(distance, cdf - i / m, (i + 1) / m - cdf)
    return distance


def plain_gaussian_exponent(points, centres, widths, scale):
    """sum_ax ((x - c) / s)^2 / scale, shape (centres, points), summed onto zeros one axis at a time."""
    exponent = np.zeros((centres.shape[0], points.shape[0]))
    with np.errstate(over="ignore"):
        for k, width in enumerate(np.asarray(widths, dtype=float).tolist()):
            delta = (points[:, k] - centres[:, k, None]) / width
            exponent += delta * delta / scale
    return exponent


def plain_gaussian_norm(widths):
    return float(np.prod(1.0 / np.sqrt(2.0 * np.pi * np.asarray(widths) ** 2)))


def plain_overlap_matrix(displacements, widths):
    return np.exp(-plain_gaussian_exponent(displacements, displacements, widths, 8.0))


def plain_mixture_density(mixture, points):
    """|sum_i w_i A_i(x)|^2 / Z at points of shape (n, axes), with both the real and the imaginary pass."""
    amps = np.exp(-plain_gaussian_exponent(points, mixture.displacements, mixture.widths, 4.0))
    real = (mixture.weights.real[:, None] * amps).sum(axis=0)
    imag = (mixture.weights.imag[:, None] * amps).sum(axis=0)
    return (plain_gaussian_norm(mixture.widths) / mixture.total) * (real * real + imag * imag)


def plain_envelope(envelope, points):
    """sum_k a_k N(x; mu_k, (sigma s)^2) of a readout envelope at points of shape (n, axes)."""
    widths = envelope.mixture.widths
    exponent = plain_gaussian_exponent(points, envelope.means, widths, 2.0 * envelope.sigma**2)
    peak = plain_gaussian_norm(widths) / envelope.sigma ** widths.shape[0]
    return peak * (envelope.weights[:, None] * np.exp(-exponent)).sum(axis=0)


def plain_weak_limit_error(mixture, couplings, weak_values):
    """sum_ij Re(conj(w_i) w_j) expm1(-e_ij) (m_ij / g - Re A_w) / Z per axis, in absolute value."""
    d = mixture.displacements
    overlap_minus_1 = np.expm1(-plain_gaussian_exponent(d, d, mixture.widths, 8.0))
    factors = (mixture.weights.conj()[:, None] * mixture.weights[None, :]).real * overlap_minus_1
    deviations = 0.5 * (d[:, None, :] + d[None, :, :]) / np.asarray(couplings) - np.asarray(weak_values)
    return np.abs((factors[:, :, None] * deviations).sum(axis=(0, 1))) / mixture.total
