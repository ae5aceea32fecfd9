"""Model parameters, network state, and the continuous-time right-hand side.

The network couples m neuron cells all-to-all.  Each neuron carries four
fields on one shared grid: membrane potential u, spiking variable v,
bursting variable w, and memductance rho.  Only u and rho diffuse and only
u and rho receive network coupling.  The network state is one array of
shape (m, 4, *cells) with the components in the order (u, v, w, rho).
The coupling and the full right-hand side act on a batch of B replicates,
which share every parameter but the coupling strengths, as one array of
shape (B, m, 4, *cells); one state is the batch of one.
"""

from dataclasses import dataclass, fields

import numpy as np

# real and integer live in grid, which model imports, so both can check input
from .grid import integer, laplacian_neumann, real

__all__ = [
    "COMPONENTS",
    "Parameters",
    "NetworkState",
    "reaction_rhs",
    "coupling_rhs",
    "full_rhs",
    "real",
    "integer",
]

COMPONENTS = ("u", "v", "w", "rho")

_POSITIVE = (
    "a", "b", "eta1", "eta2", "alpha", "beta",
    "q", "r", "delta", "k1", "k2", "Je",
)


@dataclass(frozen=True)
class Parameters:
    """All model scalars plus the neuron count m.

    The strictly positive group can be any positive constants; c, gamma and
    ue may be any reals; the coupling strengths P and Q may be zero to run
    uncoupled contrast experiments.
    """

    a: float = 1.0
    b: float = 1.0
    eta1: float = 1.0
    eta2: float = 1.0
    alpha: float = 1.0
    beta: float = 1.0
    q: float = 1.0
    r: float = 1.0
    delta: float = 1.0
    k1: float = 1.0
    k2: float = 1.0
    Je: float = 1.0
    c: float = 1.0
    gamma: float = 1.0
    ue: float = 1.0
    P: float = 1.0
    Q: float = 1.0
    m: int = 2

    def __post_init__(self):
        for name in self.field_names():
            if name == "m":
                continue
            val = real("parameter %r" % name, getattr(self, name))
            object.__setattr__(self, name, val)
            if name in _POSITIVE and val <= 0.0:
                raise ValueError("parameter %r must be positive, got %r" % (name, val))
            if name in ("P", "Q") and val < 0.0:
                raise ValueError("parameter %r must be nonnegative, got %r" % (name, val))
        object.__setattr__(self, "m", integer("parameter 'm'", self.m, 2))

    @classmethod
    def field_names(cls):
        return tuple(f.name for f in fields(cls))


@dataclass
class NetworkState:
    """One network's (m, 4, *cells) array at time t, as handed to an extra observer."""

    x: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        if self.x.ndim < 3 or self.x.shape[1] != len(COMPONENTS):
            raise ValueError("state must have shape (m, 4, *cells), got %s" % (self.x.shape,))
        if self.x.shape[0] < 1:
            raise ValueError("network must contain at least one neuron")
        if self.t < 0.0:
            raise ValueError("time must be nonnegative")

    def first_nonfinite(self):
        """(neuron index, component name) of the first non-finite entry, or None."""
        finite = np.isfinite(self.x)
        if finite.all():
            return None
        i, k = np.unravel_index(np.argmin(finite), finite.shape)[:2]
        return int(i), COMPONENTS[k]


def reaction_rhs(x, p):
    """Pointwise reaction tendencies of an (n, 4, *cells) stack of neurons, same shape.

    Excludes diffusion and network coupling; non-finite values propagate.
    """
    u, v, w, rho = x[:, 0], x[:, 1], x[:, 2], x[:, 3]
    # memristive flux coefficient
    phi = p.c + p.gamma * rho + p.delta * rho * rho
    out = np.empty_like(x)
    # u*u*u, not u**3: numpy's array pow sends negative bases to scalar libm
    # pow, which is slow and whose last bit depends on the SIMD level
    out[:, 0] = p.a * u * u - p.b * (u * u * u) + v - w + p.Je - p.k1 * phi * u
    out[:, 1] = p.alpha - p.beta * u * u - v
    out[:, 2] = p.q * (u - p.ue) - p.r * w
    out[:, 3] = u - p.k2 * rho
    return out


def coupling_rhs(x, strengths):
    """All-to-all linear coupling terms of every neuron: (u-coupling, rho-coupling).

    x is a batch (B, m, 4, *cells) and strengths = (P, Q) hold each
    replicate's strength, shaped to broadcast over (B, m, *cells); each
    term has that shape.

    u and rho are reduced as one block: the m x m differences of the u and
    rho fields are formed once and summed over the j axis, which adds one j
    at a time in index order for each neuron i (the j == i term is
    identically zero).  That makes the terms bitwise reproducible, the same
    for a replicate whatever the rest of its batch, and the synchronization
    manifold exactly invariant.
    """
    P, Q = strengths
    f = x[:, :, ::3]
    c = np.sum(f[:, :, None] - f[:, None, :], axis=1, initial=0.0)
    return P * c[:, :, 0], Q * c[:, :, 1]


def full_rhs(x, p, g, strengths):
    """Complete tendency of a batch, reaction + coupling + diffusion, same shape.

    x is a (B, m, 4, *cells) batch with the replicates' coupling strengths
    as in coupling_rhs.
    """
    # the reaction is pointwise: replicates and neurons go as one axis
    out = reaction_rhs(x.reshape((-1,) + x.shape[2:]), p).reshape(x.shape)
    cu, cr = coupling_rhs(x, strengths)
    # components 0 and 3, (u, rho), are the diffused pair
    lap = laplacian_neumann(x[:, :, ::3], g)
    out[:, :, 0] = out[:, :, 0] + cu + p.eta1 * lap[:, :, 0]
    out[:, :, 3] = out[:, :, 3] + cr + p.eta2 * lap[:, :, 1]
    return out
