"""Time integration: explicit RK4 and an IMEX backward-Euler scheme.

The IMEX scheme treats diffusion implicitly (per-line tridiagonal solves,
alternating-direction sweeps in 2D), the reaction explicitly, and the
all-to-all linear coupling by an exact integrating-factor substep.  The
exact coupling substep keeps the scheme stable for arbitrarily large
coupling strengths, which the synchronization thresholds routinely demand.
The SPD tridiagonal operator I - s*L of each grid axis is LDL^T-factored
once per (cells, s) with LAPACK dpttrf and cached; each solve is then one
dpttrs back-substitution.  Both routines come from scipy's LAPACK extension
module, which the first factorization loads on its own, without importing
scipy or scipy.linalg, so only an imex-be run loads any of scipy.

Both steppers advance a batch: B replicates of one network that share
every parameter but the coupling strengths P and Q, held as one
(B, m, 4, *cells) array; one network is the batch of one.  Every operation
acts on each replicate alone, in the same order, so a replicate's
trajectory is bitwise the one it takes in a batch of one; the batch only
shares the per-call cost of each operation.
"""

import functools
import math
import os
from dataclasses import dataclass
from importlib.machinery import PathFinder
from importlib.util import find_spec, module_from_spec

import numpy as np

# the blow-up check's quasi-norm is the energy functional at c1 = 1
from .grid import energy_functional as quasi_norm
from .model import NetworkState, Parameters, full_rhs, integer, reaction_rhs, real

__all__ = [
    "IntegratorConfig",
    "BlowUpError",
    "stability_limit",
    "check_stable",
    "step_rk4",
    "step_imex",
    "diffusion_step_be",
    "replicate_coupling",
    "integrate",
    "step_count",
    "QUASI_NORM_CEILING",
]

SCHEMES = ("explicit-rk4", "imex-be")

# any state with quasi-norm above this aborts as a blow-up
QUASI_NORM_CEILING = 1e12

# an explicit-rk4 dt may use at most this fraction of stability_limit
SAFETY = 0.9


class BlowUpError(RuntimeError):
    """The state became non-finite (or unboundedly large) during integration.

    step is the number of the integration step that blew up, counted from 1.
    """

    def __init__(self, t, neuron=None, component=None, detail="", step=None):
        self.t = t
        self.neuron = neuron
        self.component = component
        self.step = step
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
        for name in ("dt", "t_end"):
            val = real(name, getattr(self, name))
            if not val > 0:
                raise ValueError("%s must be positive and finite" % name)
            setattr(self, name, val)
        self.observe_every = integer("observe_every", self.observe_every, 1)
        if not isinstance(self.enforce_stability, bool):
            raise ValueError("enforce_stability must be true or false")


def stability_limit(g, p):
    """Explicit-diffusion step bound h_min^2 / (2 * dim * max(eta1, eta2))."""
    h_min = min(g.spacing)
    return h_min * h_min / (2.0 * g.dim * max(p.eta1, p.eta2))


def check_stable(cfg, p, g):
    """Raise ValueError for a guarded explicit-rk4 dt above SAFETY * stability_limit,
    or an imex-be dt at which some axis's s = dt*eta/h^2 has 1 + s == s."""
    limit = SAFETY * stability_limit(g, p)
    if cfg.scheme == "explicit-rk4" and cfg.enforce_stability and cfg.dt > limit:
        raise ValueError("dt=%g exceeds safety*stability_limit=%g for explicit-rk4"
                         % (cfg.dt, limit))
    for name, eta in (("eta1", p.eta1), ("eta2", p.eta2)):
        for h in g.spacing if cfg.scheme == "imex-be" else ():
            s = cfg.dt * eta / (h * h)
            if 1.0 + s == s:
                raise ValueError("dt=%g, %s=%g, h=%g give s=dt*eta/h^2=%g: 1 + s rounds to s, "
                                 "so the imex-be diffusion solve is singular"
                                 % (cfg.dt, name, eta, h, s))


def step_rk4(x, p, g, dt, strengths):
    """Classical 4-stage Runge-Kutta step on the full right-hand side.

    x is a batch (B, m, 4, *cells) and strengths the replicates' coupling
    strengths from replicate_coupling; returns the stepped batch.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    k1 = full_rhs(x, p, g, strengths)
    k2 = full_rhs(x + dt / 2.0 * k1, p, g, strengths)
    k3 = full_rhs(x + dt / 2.0 * k2, p, g, strengths)
    k4 = full_rhs(x + dt * k3, p, g, strengths)
    return x + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


@functools.cache
def _flapack():
    """scipy's LAPACK extension module scipy.linalg._flapack, loaded directly.

    Importing scipy.linalg would run its package __init__, which imports
    hundreds of modules and adds about 22 MB of peak memory, and importing
    scipy alone adds about 1.3 MB.  The package directory is found without
    importing scipy, and the extension is loaded from its file under its
    full name, so CPython's cache of extension modules hands it the very
    routines that scipy.linalg.lapack holds, in whichever order the two are
    loaded.
    """
    scipy = find_spec("scipy")
    if scipy is None:
        raise ImportError("the imex-be scheme needs scipy, which is not installed")
    where = os.path.join(scipy.submodule_search_locations[0], "linalg")
    spec = PathFinder.find_spec("scipy.linalg._flapack", [where])
    if spec is None:
        raise ImportError("scipy's LAPACK extension module _flapack is not in %s" % where)
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@functools.lru_cache(maxsize=16)
def _factor(n, s):
    """LDL^T factors (d, e) of I - s*L_1d, Neumann Laplacian on n >= 2 cells.

    Raises ValueError if dpttrf finds it singular in floating point.  The
    factors are cached and shared, so they are made read-only.
    """
    d = np.full(n, 1.0 + 2.0 * s)
    d[0] = d[-1] = 1.0 + s
    d, e, info = _flapack().dpttrf(d, np.full(n - 1, -s), overwrite_d=True, overwrite_e=True)
    if info != 0:
        raise ValueError("dpttrf: I - s*L on %d cells is singular at s=%g" % (n, s))
    d.flags.writeable = e.flags.writeable = False
    return d, e


def solve_banded(factors, b, overwrite_b):
    """Solve with the factors of _factor for every column of b, shape (n, k)."""
    return _flapack().dpttrs(*factors, b, overwrite_b=overwrite_b)[0]


def diffusion_step_be(f, g, eta, dt):
    """One backward-Euler diffusion step (I - dt*eta*L) f_new = f.

    f may carry leading axes; each grid axis is solved for all lines at
    once by one solve_banded call, and in 2D the operator is factored into
    alternating-direction sweeps.  check_stable rejects an s = dt*eta/h^2
    that makes the matrix singular, so the solve cannot fail; non-finite
    values pass through to the blow-up check.
    """
    f = np.asarray(f, dtype=float)
    lead = f.ndim - g.dim
    for k, h in enumerate(g.spacing):
        factors = _factor(g.cells[k], dt * eta / (h * h))
        # with the solved axis last, every line is one column of the
        # right-hand side, so one call solves them all; a right-hand side
        # that reshape had to copy is ours to overwrite
        lines = f.swapaxes(lead + k, -1)
        rhs = lines.reshape(-1, g.cells[k])
        sol = solve_banded(factors, rhs.T, overwrite_b=not np.may_share_memory(rhs, f))
        f = sol.T.reshape(lines.shape).swapaxes(lead + k, -1)
    return f


def replicate_coupling(ps, g, dt, scheme):
    """Per-replicate coupling of a batch with Parameters ps, for the steppers' last argument.

    For explicit-rk4, the strengths (P, Q); for imex-be, for u and for rho,
    the factors exp(-m*strength*dt) by which the exact coupling substep
    damps deviations from the neuron mean, with the list of replicates
    whose strength is zero.  Strengths and factors are arrays over the
    replicates, shaped to broadcast over a (B, m, *cells) field.  Each
    factor is taken with math.exp on its own replicate's strength, so it
    does not depend on the rest of the batch.
    """
    shape = (len(ps),) + (1,) * (1 + g.dim)
    out = []
    for strengths in ([q.P for q in ps], [q.Q for q in ps]):
        if scheme == "explicit-rk4":
            out.append(np.reshape(strengths, shape))
        else:
            factors = [math.exp(-q.m * s * dt) for q, s in zip(ps, strengths)]
            off = [b for b, s in enumerate(strengths) if s == 0.0]
            out.append((np.reshape(factors, shape), off))
    return tuple(out)


def _exact_coupling(f, decay):
    """Exact solution of df_i/dt = strength * sum_j (f_j - f_i) over dt, for f[:, i].

    f is one component of a batch, (B, m, *cells), and decay is its
    (factors, zero-strength replicates) pair from replicate_coupling.  The
    neuron mean is invariant; deviations decay by each replicate's factor.
    A zero strength is an exact no-op for its replicate.
    """
    factor, off = decay
    if len(off) == len(f):
        return f
    # f.mean's arithmetic without its Python wrapper, and one buffer for
    # mean + (f - mean) * factor
    mean = np.add.reduce(f, axis=1, keepdims=True)
    mean /= f.shape[1]
    out = f - mean
    out *= factor
    out += mean
    if off:
        out[off] = f[off]
    return out


def step_imex(x0, p, g, dt, decay):
    """First-order IMEX step: explicit reaction, exact coupling, implicit diffusion.

    x0 is a batch (B, m, 4, *cells) and decay the replicates' coupling
    factors from replicate_coupling; returns the stepped batch.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    # reaction and diffusion go one neuron at a time, for all replicates at
    # once: the benchmark's layer tracing counts m reaction and 2m solve
    # calls per 1D step (bench/test_bench_checks.py); only the coupling
    # needs all m at once
    m = x0.shape[1]
    x = np.empty_like(x0)
    for i in range(m):
        xi = x0[:, i]
        x[:, i] = xi + dt * reaction_rhs(xi, p)
    for k, d, eta in ((0, decay[0], p.eta1), (3, decay[1], p.eta2)):
        f = _exact_coupling(x[:, :, k], d)
        for i in range(m):
            x[:, i, k] = diffusion_step_be(f[:, i], g, eta, dt)
    return x


def step_count(cfg):
    """Number of fixed steps of cfg.dt that take t = 0 to t >= cfg.t_end (at least 1)."""
    return max(1, math.ceil(cfg.t_end / cfg.dt - 1e-12))


def integrate(x, params, g, cfg, observer=None):
    """Advance a batch x from t = 0 until t >= t_end with fixed steps of cfg.dt.

    x is a (B, m, 4, *cells) array of B >= 1 replicates and params their
    Parameters, which may differ only in P and Q and whose m is the neuron
    count of x; one network is the batch of one.  Each replicate takes
    bitwise the trajectory it takes in a batch of one, and identical inputs
    give bitwise-identical trajectories.

    The observer, if given, is called every cfg.observe_every steps and at
    the final step, once for the whole batch, as observer(t, x, live): x is
    a read-only (R, m, 4, *cells) array of the R replicates still running
    and live lists their indices in the batch.

    Blow-up is a non-finite value, checked after every step, located at
    its first offending neuron and component; or a quasi-norm above
    QUASI_NORM_CEILING, checked at observation boundaries before the
    observer.  A replicate that blows up leaves the batch and the others go
    on.  Returns (x, errors): x is (B, m, 4, *cells), each row the last
    state of its replicate (for one that blew up, the state that did), and
    errors holds each replicate's BlowUpError, or None.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 3 + g.dim or x.shape[2:] != (4,) + g.shape or 0 in x.shape[:2]:
        raise ValueError("integrate needs a batch of shape (B >= 1, m >= 1, 4, %s), got %s"
                         % (", ".join(map(str, g.shape)), x.shape))
    if len(params) != len(x):
        raise ValueError("%d states but %d Parameters: a batch needs one per state"
                         % (len(x), len(params)))
    p0 = params[0]
    for q in params[1:]:
        for name in Parameters.field_names():
            if name not in ("P", "Q") and getattr(q, name) != getattr(p0, name):
                raise ValueError("replicates of a batch may differ only in P and Q, "
                                 "not in parameter %r" % name)
    if x.shape[1] != p0.m:
        raise ValueError("the batch has %d neurons per network but its Parameters have m=%d"
                         % (x.shape[1], p0.m))
    check_stable(cfg, p0, g)
    step = step_rk4 if cfg.scheme == "explicit-rk4" else step_imex
    coupling = replicate_coupling(params, g, cfg.dt, cfg.scheme)
    n_steps = step_count(cfg)
    live = list(range(len(x)))    # the replicate in each row of x
    errors = [None] * len(x)
    ended = {}                     # the last state of each replicate that blew up

    def drop(blown):
        """Take the rows in blown out of the batch, keeping their states and errors."""
        nonlocal x, live, coupling
        if not blown:
            return
        for r, err in blown.items():
            errors[live[r]], ended[live[r]] = err, x[r].copy()
        keep = [r for r in range(len(live)) if r not in blown]
        x, live = x[keep], [live[r] for r in keep]
        coupling = replicate_coupling([params[b] for b in live], g, cfg.dt, cfg.scheme)

    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n_steps + 1):
            x = step(x, p0, g, cfg.dt, coupling)
            t = k * cfg.dt
            if not np.isfinite(x).all():
                drop({r: BlowUpError(t, *bad, step=k) for r in range(len(live))
                      if (bad := NetworkState(x[r], t).first_nonfinite()) is not None})
            if live and (k % cfg.observe_every == 0 or k == n_steps):
                drop({r: BlowUpError(t, detail="quasi-norm %.3g exceeds ceiling" % qn, step=k)
                      for r, qn in enumerate(quasi_norm(x, g)) if qn > QUASI_NORM_CEILING})
                if live and observer is not None:
                    seen = x.view()
                    seen.flags.writeable = False
                    observer(t, seen, tuple(live))
                    # a view kept until the next observation would hold this
                    # state in memory through all the steps in between
                    del seen
            if not live:
                break
    if ended:
        out = np.empty((len(errors),) + x.shape[1:])
        out[live] = x
        out[list(ended)] = list(ended.values())
        x = out
    return x, errors
