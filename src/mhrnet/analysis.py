"""Derived constants, coupling thresholds, gap measurement, and rate fitting.

Everything here is a pure function of its arguments.  The constants follow
the dissipativity and synchronization estimates: the quasi-norm obeys a
Gronwall envelope with rate ``lam`` and asymptote ``M |Omega| / (lam *
min(C1, 1))``, and pairwise gaps decay exponentially at rate ``kappa`` once
the coupling strengths exceed (Pmin, Qmin).
"""

import math
from dataclasses import asdict, dataclass

import numpy as np

from .grid import (
    SEED_MAX,
    _check_field,
    _integral,
    integer,
    norm_l2,
    norm_l4,
    seminorm_h1,
    smooth_field,
    uniform,
)

__all__ = [
    "DerivedConstants",
    "FitResult",
    "EnvelopeCheck",
    "FitWindowError",
    "compute_constants",
    "pairwise_gap",
    "fit_decay_rate",
    "estimate_async_degree",
    "check_absorbing_envelope",
    "estimate_gn_constant",
]

class FitWindowError(ValueError):
    """Too few usable samples remain after transient and floor trimming."""


@dataclass(frozen=True)
class DerivedConstants:
    """All constants computed from Parameters, |Omega| and C*."""

    C1: float
    C2: float
    lam: float
    M: float
    K: float
    Cmult: float
    Pmin: float
    Qmin: float
    xi: float
    kappa: float         # None when P <= Pmin (xi <= 0): no rate is guaranteed
    cstar: float
    omega_measure: float

    @property
    def envelope_asymptote(self):
        return self.M * self.omega_measure / (self.lam * min(self.C1, 1.0))

    @property
    def envelope_prefactor(self):
        return max(self.C1, 1.0) / min(self.C1, 1.0)

    def as_dict(self):
        return dict(asdict(self), envelope_asymptote=self.envelope_asymptote)


def compute_constants(p, omega_measure, cstar=1.0):
    """Evaluate every derived constant and both coupling thresholds.

    cstar is the interpolation-inequality constant of the domain; it has no
    closed form, so it is an input (see estimate_gn_constant for an
    empirical lower bound).
    """
    if not omega_measure > 0:
        raise ValueError("omega_measure must be positive")
    if not (cstar > 0 and math.isfinite(cstar)):
        raise ValueError("cstar must be positive and finite")
    b, r, k2, beta, delta = p.b, p.r, p.k2, p.beta, p.delta
    gam, k1, m = p.gamma, p.k1, p.m

    C1 = (beta ** 2 / 2.0 + 1.0 / (2.0 * k2 ** 3) + 4.0) / b
    lam = 0.5 * min(1.0, r, k2)
    C2 = 0.25 * (C1 * k1 * (abs(p.c) + gam ** 2 / delta) + 0.25) ** 2
    M = m * (
        C2
        + (C1 * p.a) ** 4
        + C1 * p.Je ** 2
        + (C1 ** 2 * (2.0 + 1.0 / r) + C1) ** 2
        + 2.0 * p.alpha ** 2
        + p.q ** 2 * p.ue ** 2 / r
        + p.q ** 4 / r ** 2
    )
    base = M / (lam * min(C1, 1.0))
    K = (base + math.sqrt(base)) * omega_measure + 1.0

    Cmult = 8.0 * beta ** 2 / b
    Pmin = (
        4.0 * p.a ** 2 / b
        + Cmult * (1.0 + 1.0 / r)
        + (1.0 / (2.0 * Cmult)) * (1.0 + p.q ** 2 / r)
        + k1 * (abs(p.c) + gam ** 2 / (4.0 * delta))
    ) / m
    Qmin = (
        (1.0 + 32.0 * beta ** 2 * k1 ** 2 * gam ** 2 / b ** 2)
        + (K ** 2 / (8.0 * p.eta2 ** 3))
        * (64.0 * beta ** 2 * cstar * k1 ** 2 * delta ** 2 / b ** 2) ** 4
    ) / (2.0 * m)
    xi = 2.0 * (m * p.P - m * Pmin)
    # the rate bound holds only above the threshold, where xi > 0
    kappa = min(xi, 1.0, r / 2.0, 2.0 * k2) if xi > 0 else None
    return DerivedConstants(
        C1=C1, C2=C2, lam=lam, M=M, K=K, Cmult=Cmult,
        Pmin=Pmin, Qmin=Qmin, xi=xi, kappa=kappa,
        cstar=cstar, omega_measure=omega_measure,
    )


def pairwise_gap(x, g):
    """Squared distances of all neuron pairs i < j.

    Each gap is ||u_i-u_j||^2 + ||v_i-v_j||^2 + ||w_i-w_j||^2 +
    ||rho_i-rho_j||^2, every norm L2, rho's too.  It is the squared
    distance, not the distance, so a rate fitted to it (fit_decay_rate) is
    twice the decay rate of the distance.

    x is a (B, m, 4, *cells) batch, which gives one list per replicate in
    the order (0, 1), (0, 2), ..., (1, 2), ....  Neuron i is subtracted
    from all later neurons of every replicate at once, and each pair's four
    integrals are summed with math.fsum, as in grid.energy_functional, so a
    replicate's gaps do not depend on the rest of its batch.
    """
    x = _check_field(x, g)
    if x.ndim != 3 + g.dim:
        raise ValueError("expected a batch (B, m, 4, *cells), got shape %s" % (x.shape,))
    if x.shape[1] < 2:
        raise ValueError("pairwise gaps need at least two neurons")
    gaps = [[] for _ in x]
    for i in range(x.shape[1] - 1):
        d = x[:, i, None] - x[:, i + 1:]
        d *= d
        for row, sums in zip(gaps, _integral(d, g).tolist()):
            row += [math.fsum(s) for s in sums]
    return gaps


@dataclass(frozen=True)
class FitResult:
    rate: float
    window: tuple        # (t_start, t_end) actually used by the fit
    n_samples: int
    residual: float      # rms residual of log(gap) about the fitted line
    decayed: bool        # False when the fitted slope was nonnegative


def fit_decay_rate(times, gaps, floor=1e-20, transient_fraction=0.3):
    """Least-squares exponential rates of the nonnegative gap series in the columns of gaps.

    gaps has shape (samples, k), one row per time, and the result is a
    list of k, each the FitResult or the FitWindowError of that column.
    A pairwise_gap column is a squared distance, so its rate is twice the
    decay rate of the distance.  Each fit discards the leading
    transient_fraction of samples (a stand-in for the finite settling time
    of the estimates) and everything from the first sample below `floor`
    or equal to zero on (squared norms bottom out near round-off).  A
    negative sample raises ValueError.  A nondecaying series is reported
    as rate 0 with decayed=False rather than as an error; an identically
    zero series, or too few samples, gives a FitWindowError.  Each
    column's line is fitted in closed form over its own contiguous row, so
    its rate and residual are bitwise those of its one-column fit.
    """
    times = np.asarray(times, dtype=float)
    cols = np.asarray(gaps, dtype=float)
    if times.ndim != 1 or cols.ndim != 2 or len(cols) != times.size:
        raise ValueError("times must be a 1-d array and gaps (samples, k), one row per time")
    if np.any(cols < 0):
        raise ValueError("gaps must be nonnegative")
    zero = ~cols.any(axis=0)
    short = (FitWindowError("need at least 40 samples, got %d" % times.size)
             if times.size < 40 else None)
    out = [FitWindowError("gap identically zero") if z else short for z in zero]
    start = int(math.floor(transient_fraction * times.size))
    below = (cols[start:] < floor) | (cols[start:] == 0.0)
    ends = np.where(below.any(axis=0), start + below.argmax(axis=0), times.size).tolist()
    for end in sorted(set(ends)):
        idx = [c for c, e in enumerate(ends) if e == end and out[c] is None]
        if not idx:
            continue
        if end - start < 20:
            err = FitWindowError(
                "only %d usable samples between transient and floor" % (end - start))
            for c in idx:
                out[c] = err
            continue
        t = times[start:end]
        window = (float(t[0]), float(t[-1]))
        # one contiguous row per column, so every reduction along a row
        # adds that column's terms in the order of its one-column fit
        y = np.log(cols[start:end, idx].T, order="C")
        dt = t - t.mean()
        dy = y - y.mean(axis=1, keepdims=True)
        slope = np.add.reduce(dy * dt, axis=1) / np.add.reduce(dt * dt)
        resid = np.sqrt(np.mean((dy - slope[:, None] * dt) ** 2, axis=1))
        for c, s, r in zip(idx, slope.tolist(), resid.tolist()):
            out[c] = (FitResult(0.0, window, t.size, r, False) if s >= 0
                      else FitResult(-s, window, t.size, r, True))
    return out


def estimate_async_degree(gaps, tail_window=0.1):
    """Finite-horizon estimate of the asynchronous degree.

    gaps has shape (samples, k), one column per pair.  Sums, over the
    columns in order, the maximum gap within the trailing `tail_window`
    fraction of samples.  This is a surrogate for the limsup over infinite
    time and the sup over all initial data, so it is an estimate, not the
    mathematical quantity itself.
    """
    gaps = np.asarray(gaps, dtype=float)
    if gaps.ndim != 2 or 0 in gaps.shape:
        raise ValueError("need a (samples, k) gap block with samples and columns")
    n_tail = max(1, int(math.ceil(tail_window * len(gaps))))
    # plain float addition in column order, not a pairwise or compensated sum
    total = 0.0
    for peak in gaps[-n_tail:].max(axis=0).tolist():
        total += peak
    return total


@dataclass(frozen=True)
class EnvelopeCheck:
    passed: bool
    max_margin: float    # worst ratio of the sample to the envelope


def check_absorbing_envelope(times, energies, dc):
    """Verify the Gronwall envelope on quasi-norm samples y(t).

    The envelope is prefactor * exp(-lam*(t - t0)) * y(t0) + asymptote with
    the constants from `dc`.  Failure is a result, not an error.
    """
    times = np.asarray(times, dtype=float)
    y = np.asarray(energies, dtype=float)
    if times.shape != y.shape or times.size == 0:
        raise ValueError("times and energies must be equal-length nonempty arrays")
    envelope = (
        dc.envelope_prefactor * np.exp(-dc.lam * (times - times[0])) * y[0]
        + dc.envelope_asymptote
    )
    ratios = y / envelope
    max_margin = float(np.max(ratios)) if np.any(y != 0) else 0.0
    return EnvelopeCheck(passed=bool(np.all(y <= envelope)), max_margin=max_margin)


def estimate_gn_constant(g, n_samples=64, seed=0, smoothing_time=2e-3):
    """Empirical lower bound for the interpolation constant C* of the grid.

    Draws seeded random fields, sample j the grid.uniform stream of the key
    (seed, j) in [-1, 1), smooths each one over a fixed physical
    diffusion time (so the estimate is stable under grid refinement), and
    maximizes ||R||_L4^2 / (|R|_H1^(2*theta) * ||R||_L2^(2*(1-theta))) with
    theta = dim/4.  The ratio is invariant under rescaling of R.  Fields
    with (numerically) zero gradient are skipped.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    seed = integer("seed", seed, 0, SEED_MAX)
    theta = g.dim / 4.0
    h_min = min(g.spacing)
    passes = max(1, int(round(smoothing_time / (h_min * h_min / 8.0))))
    best = None
    for j in range(n_samples):
        f = uniform((seed, j), -1.0, 1.0, g.shape)
        f = smooth_field(f, g, passes)
        grad = float(seminorm_h1(f, g))
        l2 = float(norm_l2(f, g))
        if grad <= 1e-14 * max(l2, 1.0):
            continue
        l4 = float(norm_l4(f, g))
        ratio = l4 ** 2 / (grad ** (2 * theta) * l2 ** (2 * (1 - theta)))
        if best is None or ratio > best:
            best = ratio
    if best is None:
        raise ValueError("all sample fields were degenerate (zero gradient)")
    return float(best)
