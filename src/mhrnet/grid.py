"""Cell-centered rectangular grids, the Neumann Laplacian, and norms.

Fields are plain numpy arrays whose trailing axes equal ``grid.cells``
(row-major cell-center samples); any leading axes index a stack of fields,
such as the (m, 4) neurons and components of a network state.  Every
operator here acts on the trailing grid axes only.  All quadrature is the
midpoint rule.  A grid's spacing and cell volume are fixed when it is
built.  The Laplacian reads each cell's neighbours through clamped index
arrays, cached per axis length, so the boundary cells see themselves as
their ghost neighbours without padding the field.  Random fields come
from `uniform`, a counter-based SplitMix64 stream.
"""

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Grid",
    "InvalidFieldError",
    "laplacian_neumann",
    "norm_l2",
    "norm_l4",
    "seminorm_h1",
    "energy_functional",
    "smooth_field",
    "uniform",
    "real",
    "integer",
]


def real(name, value):
    """value as a finite float; a ValueError naming `name` for anything else.

    Strings and booleans are refused even where float() would take them, so
    a quoted number in a config is an error that names its key.
    """
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):
        raise ValueError("%s must be a number, got %r" % (name, value))
    value = float(value)
    if not math.isfinite(value):
        raise ValueError("%s must be finite, got %r" % (name, value))
    return value


def integer(name, value, low, high=None):
    """value as an int >= low (and <= high); a ValueError naming `name` for anything else.

    Booleans, strings, fractions and non-finite values are refused.
    """
    if (isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real)
            or not math.isfinite(value) or value != int(value) or value < low):
        raise ValueError("%s must be an integer >= %d, got %r" % (name, low, value))
    if high is not None and value > high:
        raise ValueError("%s must be an integer <= %d, got %r" % (name, high, value))
    return int(value)


# SplitMix64 (Steele, Lea & Flood, "Fast splittable pseudorandom number
# generators", OOPSLA 2014): its increment, the golden ratio in 64 bits, and
# the largest seed a stream key holds
_GAMMA = 0x9E3779B97F4A7C15
SEED_MAX = (1 << 64) - 1


def _mix64(z):
    """The SplitMix64 finalizer of z, a Python int or a uint64 array, modulo 2**64."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & SEED_MAX
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & SEED_MAX
    return z ^ (z >> 31)


def uniform(key, lo, hi, shape):
    """An array of shape of uniform samples in [lo, hi) from the stream of key.

    key is a tuple of integers in [0, 2**64), such as (seed, neuron,
    component); each one is folded into a 64-bit state k as one SplitMix64
    step from k xor n.  Sample c (in row-major order) is the finalizer of
    k + (c + 1) * gamma, whose top 53 bits, times 2**-53, give u in [0, 1)
    exactly; the sample is lo + (hi - lo) * u, the affine map of numpy's
    Generator.uniform, which rounding can take to hi.  The arithmetic is
    integer but for that one map, so the bits do not depend on the CPU's
    SIMD level, and a sample does not depend on how many are drawn.
    """
    k = 0
    for n in key:
        k = _mix64(((k ^ n) + _GAMMA) & SEED_MAX)
    c = np.arange(1, math.prod(shape) + 1, dtype=np.uint64)
    z = _mix64(c * np.uint64(_GAMMA) + np.uint64(k))
    u = (z >> np.uint64(11)).astype(float) * 2.0 ** -53
    return (lo + (hi - lo) * u).reshape(shape)


class InvalidFieldError(ValueError):
    """A field does not match its grid or contains non-finite values."""


@dataclass(frozen=True)
class Grid:
    """Rectangular domain [0, L1] x ... with cell-centered samples.

    cells: number of cells per axis (1 or 2 axes, each >= 2).
    extents: physical length per axis.
    spacing, cell_volume: cell width per axis and their product, set once
    here because every norm and Laplacian call reads them.
    """

    cells: tuple
    extents: tuple

    def __post_init__(self):
        # as objects, so each value reaches the check as it was given
        cells = tuple(integer("grid.cells", n, 2)
                      for n in np.atleast_1d(np.array(self.cells, dtype=object)))
        extents = tuple(real("grid.extents", L)
                        for L in np.atleast_1d(np.array(self.extents, dtype=object)))
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "extents", extents)
        if len(cells) not in (1, 2):
            raise ValueError("grid.cells must have 1 or 2 entries, got %d" % len(cells))
        if len(extents) != len(cells):
            raise ValueError("grid.cells and grid.extents must have matching length")
        if any(L <= 0.0 for L in extents):
            raise ValueError("grid.extents must be positive, got %s" % (extents,))
        spacing = tuple(L / n for L, n in zip(extents, cells))
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "cell_volume", float(np.prod(spacing)))

    @property
    def dim(self):
        return len(self.cells)

    @property
    def shape(self):
        return self.cells

    @property
    def measure(self):
        """|Omega|, the domain measure."""
        return float(np.prod(self.extents))

    def coordinates(self):
        """Cell-center coordinate arrays, one per axis (open meshgrid)."""
        axes = [
            (np.arange(n) + 0.5) * h for n, h in zip(self.cells, self.spacing)
        ]
        return np.meshgrid(*axes, indexing="ij", sparse=True)


def _check_field(f, g):
    f = np.asarray(f, dtype=float)
    if f.shape[f.ndim - g.dim:] != g.shape:
        raise InvalidFieldError(
            "field shape %s does not end in grid %s" % (f.shape, g.shape)
        )
    return f


@functools.lru_cache(maxsize=16)
def _neighbours(n):
    """Clamped index arrays (max(i-1, 0), min(i+1, n-1)) of an axis of n cells.

    Cached and shared, so they are made read-only.
    """
    i = np.arange(n)
    below = np.maximum(i - 1, 0)
    above = np.minimum(i + 1, n - 1)
    below.flags.writeable = False
    above.flags.writeable = False
    return below, above


def laplacian_neumann(f, g):
    """Second-order Laplacian with homogeneous Neumann (no-flux) boundaries.

    Boundary cells use ghost-cell reflection (ghost value = adjacent interior
    value), so the sum of the output over all cells telescopes to zero.
    The neighbours are gathered with the clamped indices of _neighbours.
    """
    f = _check_field(f, g)
    lead = f.ndim - g.dim
    out = np.zeros_like(f)
    for k, h in enumerate(g.spacing):
        axis = lead + k
        below, above = _neighbours(g.cells[k])
        out += (f.take(below, axis) - 2.0 * f + f.take(above, axis)) / (h * h)
    return out


def _integral(f, g):
    """Midpoint-rule integral over the grid axes, one value per leading index.

    The grid axes are summed as one flat row, which is how numpy sums a
    single contiguous field.
    """
    if g.dim == 2:
        f = f.reshape(f.shape[:-2] + (-1,))
    return np.add.reduce(f, axis=-1) * g.cell_volume


def norm_l2(f, g):
    """Midpoint-rule L2 norm, one per leading index."""
    f = _check_field(f, g)
    return np.sqrt(_integral(f * f, g))


def norm_l4(f, g):
    """Midpoint-rule L4 norm, one per leading index (a float for one field)."""
    f = _check_field(f, g)
    # (f*f)*(f*f), not f**4: no array pow, see model.reaction_rhs
    f2 = f * f
    f2 *= f2
    s = _integral(f2, g)
    # the fourth root is taken as a Python float: numpy's vectorized power
    # rounds differently in the last bit
    roots = [v ** 0.25 for v in np.ravel(s).tolist()]
    return roots[0] if np.ndim(s) == 0 else np.array(roots).reshape(s.shape)


def seminorm_h1(f, g):
    """L2 norm of the central-difference gradient (one-sided at boundaries)."""
    f = _check_field(f, g)
    acc = np.zeros_like(f)
    for k, h in enumerate(g.spacing):
        d = np.gradient(f, h, axis=f.ndim - g.dim + k, edge_order=1)
        acc += d * d
    return np.sqrt(_integral(acc, g))


def energy_functional(x, g, c1=1.0):
    """sum_i (c1 ||u_i||^2 + ||v_i||^2 + ||w_i||^2 + ||rho_i||_L4^4), one per replicate.

    x is a batch (R, m, 4, *cells) with components (u, v, w, rho), and c1
    one weight or one per replicate; c1 = 1 gives the mixed-power
    quasi-norm.  Each of a replicate's 4m integrals is taken once, along
    its own row, with no root, and they are summed with math.fsum, which
    rounds exactly: a value is bitwise that of its replicate alone and does
    not depend on neuron order.
    """
    c1 = np.asarray(c1, dtype=float)
    if not np.all(c1 > 0):
        raise ValueError("c1 must be positive")
    x = _check_field(x, g)
    if x.ndim != 3 + g.dim or x.shape[2] != 4:
        raise InvalidFieldError("energy needs a batch (R, m, 4, *cells), got %s" % (x.shape,))
    f2 = x * x
    f2[:, :, 3] *= f2[:, :, 3]
    s = _integral(f2, g)
    s[:, :, 0] *= c1.reshape(c1.shape + (1,))
    return np.array([math.fsum(row) for row in s.reshape(len(s), -1).tolist()])


def smooth_field(f, g, passes):
    """Apply `passes` explicit diffusion steps at the stable step h_min^2/8.

    Used to generate smooth initial data and smooth random sample fields.
    Each pass strictly reduces the H1 seminorm of a non-constant field.
    """
    f = _check_field(f, g).copy()
    h_min = min(g.spacing)
    dt = h_min * h_min / 8.0
    for _ in range(int(passes)):
        f += dt * laplacian_neumann(f, g)
    return f
