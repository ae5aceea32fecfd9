"""Time integration: explicit RK4 and an IMEX backward-Euler scheme.

The IMEX scheme treats diffusion implicitly (per-line tridiagonal solves,
alternating-direction sweeps in 2D), the reaction explicitly, and the
all-to-all linear coupling by an exact integrating-factor substep.  The
exact coupling substep keeps the scheme stable for arbitrarily large
coupling strengths, which the synchronization thresholds routinely demand.
The tridiagonal operator I - s*L of each grid axis is LU-factored once per
(cells, s) with LAPACK dgttrf and cached; each solve is then one dgttrs
back-substitution.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs

# the blow-up check's quasi-norm is the energy functional at c1 = 1
from .grid import energy_functional as quasi_norm
from .model import NetworkState, full_rhs, reaction_rhs

__all__ = [
    "IntegratorConfig",
    "BlowUpError",
    "stability_limit",
    "step_rk4",
    "step_imex",
    "diffusion_step_be",
    "integrate",
    "QUASI_NORM_CEILING",
]

SCHEMES = ("explicit-rk4", "imex-be")

# any state with quasi-norm above this aborts as a blow-up
QUASI_NORM_CEILING = 1e12

# an explicit-rk4 dt may use at most this fraction of stability_limit
SAFETY = 0.9


class BlowUpError(RuntimeError):
    """The state became non-finite (or unboundedly large) during integration."""

    def __init__(self, t, neuron=None, component=None, detail=""):
        self.t = t
        self.neuron = neuron
        self.component = component
        msg = "blow-up detected at t=%.6g" % t
        if neuron is not None:
            msg += " (neuron %d, component %s)" % (neuron, component)
        if detail:
            msg += " " + detail
        super().__init__(msg)


@dataclass
class IntegratorConfig:
    scheme: str = "imex-be"
    dt: float = 1e-3
    t_end: float = 1.0
    observe_every: int = 100
    enforce_stability: bool = True

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError("unknown scheme %r, expected one of %s" % (self.scheme, SCHEMES))
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ValueError("dt must be positive and finite")
        if not (self.t_end > 0 and math.isfinite(self.t_end)):
            raise ValueError("t_end must be positive and finite")
        n = self.observe_every
        if not (math.isfinite(float(n)) and int(n) == n and n >= 1):
            raise ValueError("observe_every must be an integer >= 1")
        self.observe_every = int(n)
        if not isinstance(self.enforce_stability, bool):
            raise ValueError("enforce_stability must be true or false")


def stability_limit(g, p):
    """Explicit-diffusion step bound h_min^2 / (2 * dim * max(eta1, eta2))."""
    h_min = min(g.spacing)
    return h_min * h_min / (2.0 * g.dim * max(p.eta1, p.eta2))


def step_rk4(net, p, g, dt):
    """Classical 4-stage Runge-Kutta step on the full right-hand side."""
    if not dt > 0:
        raise ValueError("dt must be positive")
    x = net.x
    k1 = full_rhs(x, p, g)
    k2 = full_rhs(x + dt / 2.0 * k1, p, g)
    k3 = full_rhs(x + dt / 2.0 * k2, p, g)
    k4 = full_rhs(x + dt * k3, p, g)
    return NetworkState(x + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4), net.t + dt)


@functools.lru_cache(maxsize=16)
def _factor(n, s):
    """LU factors (dl, d, du, du2, ipiv) of I - s*L_1d, Neumann Laplacian on n cells.

    scipy's gttrf/gttrs wrappers reject n = 2, so a 2-cell system is factored
    with an identity row appended; solve_banded pads the right-hand side to
    match, which leaves finite solutions bitwise unchanged.  The factors are
    cached and shared, so they are made read-only.
    """
    d = np.full(max(n, 3), 1.0 + 2.0 * s)
    d[0] = d[n - 1] = 1.0 + s
    d[n:] = 1.0
    off = np.full(len(d) - 1, -s)
    off[n - 1:] = 0.0
    lu = dgttrf(off, d, off.copy())[:5]
    for a in lu:
        a.flags.writeable = False
    return lu


def solve_banded(lu, b, overwrite_b):
    """Solve with the factors of _factor for every column of b, shape (n, k)."""
    n = len(b)
    if n < len(lu[1]):
        b, overwrite_b = np.pad(b, ((0, len(lu[1]) - n), (0, 0))), True
    return dgttrs(*lu, b, overwrite_b=overwrite_b)[0][:n]


def diffusion_step_be(f, g, eta, dt):
    """One backward-Euler diffusion step (I - dt*eta*L) f_new = f.

    f may carry leading axes; each grid axis is solved for all lines at
    once, and in 2D the operator is factored into alternating-direction
    sweeps.  The tridiagonal matrix of an axis is factored once per
    (cells, dt*eta/h^2) and each call is one dgttrs back-substitution.  The
    matrix is strictly diagonally dominant, so the solve cannot fail;
    non-finite values pass through to the blow-up check.
    """
    f = np.asarray(f, dtype=float)
    lead = f.ndim - g.dim
    for k, h in enumerate(g.spacing):
        lu = _factor(g.cells[k], dt * eta / (h * h))
        # with the solved axis last, every line is one column of the
        # right-hand side, so one call solves them all; a right-hand side
        # that reshape had to copy is ours to overwrite
        lines = f.swapaxes(lead + k, -1)
        rhs = lines.reshape(-1, g.cells[k])
        sol = solve_banded(lu, rhs.T, overwrite_b=not np.may_share_memory(rhs, f))
        f = sol.T.reshape(lines.shape).swapaxes(lead + k, -1)
    return f


def _exact_coupling(f, strength, dt):
    """Exact solution of df_i/dt = strength * sum_j (f_j - f_i) over dt, for f[i].

    The neuron mean is invariant; deviations decay by exp(-m*strength*dt).
    A zero strength is an exact no-op.
    """
    if strength == 0.0:
        return f
    mean = f.mean(axis=0)
    return mean + (f - mean) * math.exp(-f.shape[0] * strength * dt)


def step_imex(net, p, g, dt):
    """First-order IMEX step: explicit reaction, exact coupling, implicit diffusion."""
    if not dt > 0:
        raise ValueError("dt must be positive")
    # reaction and diffusion go one neuron at a time: the benchmark's layer
    # tracing counts m reaction and 2m solve calls per 1D step
    # (bench/test_bench_checks.py); only the coupling needs all m at once
    x = np.empty_like(net.x)
    for i in range(net.m):
        xi = net.x[i:i + 1]
        x[i:i + 1] = xi + dt * reaction_rhs(xi, p)
    for k, strength, eta in ((0, p.P, p.eta1), (3, p.Q, p.eta2)):
        f = _exact_coupling(x[:, k], strength, dt)
        for i in range(net.m):
            x[i, k] = diffusion_step_be(f[i], g, eta, dt)
    return NetworkState(x, net.t + dt)


def integrate(net0, p, g, cfg, observer=None):
    """Advance net0 until t >= t_end with fixed steps of cfg.dt.

    The observer, if given, is called as observer(t, state) every
    cfg.observe_every steps and at the final step; the state passed in must
    be treated as read-only.  Identical inputs produce bitwise-identical
    trajectories.  Blow-up raises BlowUpError: a non-finite value, checked
    after every step, with the time and the first offending component; a
    quasi-norm above QUASI_NORM_CEILING, checked at observation boundaries,
    with the time.
    """
    if cfg.scheme == "explicit-rk4" and cfg.enforce_stability:
        limit = stability_limit(g, p)
        if cfg.dt > SAFETY * limit:
            raise ValueError(
                "dt=%g exceeds safety*stability_limit=%g for explicit-rk4"
                % (cfg.dt, SAFETY * limit)
            )
    step = step_rk4 if cfg.scheme == "explicit-rk4" else step_imex
    n_steps = max(1, math.ceil((cfg.t_end - net0.t) / cfg.dt - 1e-12))
    net = net0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n_steps + 1):
            net = step(net, p, g, cfg.dt)
            net.t = net0.t + k * cfg.dt
            bad = net.first_nonfinite()
            if bad is not None:
                raise BlowUpError(net.t, neuron=bad[0], component=bad[1])
            if k % cfg.observe_every == 0 or k == n_steps:
                qn = quasi_norm(net.x, g)
                if qn > QUASI_NORM_CEILING:
                    raise BlowUpError(net.t, detail="quasi-norm %.3g exceeds ceiling" % qn)
                if observer is not None:
                    observer(net.t, net)
    return net
