"""Reference steppers for the memristive Hindmarsh-Rose network, in plain numpy.

Written from the model equations alone, without importing mhrnet, so the
benchmark can check the program's trajectories against an independent
computation.  A network state is one array of shape (m, 4, *cells) with the
components ordered (u, v, w, rho); parameters are the plain mapping of the
config's ``parameters`` section.

    du/dt   = a u^2 - b u^3 + v - w + Je - k1 phi(rho) u
              + P sum_j (u_j - u) + eta1 Lap u
    dv/dt   = alpha - beta u^2 - v
    dw/dt   = q (u - ue) - r w
    drho/dt = u - k2 rho + Q sum_j (rho_j - rho) + eta2 Lap rho

with phi(rho) = c + gamma rho + delta rho^2 and no-flux boundaries.
"""

import math

import numpy as np


def reaction(x, p):
    """Pointwise reaction tendencies, without coupling or diffusion."""
    u, v, w, rho = x[:, 0], x[:, 1], x[:, 2], x[:, 3]
    phi = p["c"] + p["gamma"] * rho + p["delta"] * rho * rho
    return np.stack([
        p["a"] * u * u - p["b"] * u ** 3 + v - w + p["Je"] - p["k1"] * phi * u,
        p["alpha"] - p["beta"] * u * u - v,
        p["q"] * (u - p["ue"]) - p["r"] * w,
        u - p["k2"] * rho,
    ], axis=1)


def laplacian(f, spacing):
    """Second-order Neumann Laplacian over the trailing len(spacing) axes."""
    out = np.zeros_like(f)
    lead = f.ndim - len(spacing)
    for k, h in enumerate(spacing):
        axis = lead + k
        n = f.shape[axis]
        idx = np.arange(n)
        below = np.take(f, np.maximum(idx - 1, 0), axis=axis)
        above = np.take(f, np.minimum(idx + 1, n - 1), axis=axis)
        out += (below - 2.0 * f + above) / (h * h)
    return out


def backward_euler_1d(f, s, axis):
    """Solve (I - s L) x = f along `axis`, L the Neumann second difference.

    Thomas algorithm; the matrix is strictly diagonally dominant, so no
    pivoting is needed.
    """
    g = np.moveaxis(np.array(f, dtype=float), axis, 0)
    n = g.shape[0]
    diag = np.full(n, 1.0 + 2.0 * s)
    diag[0] = diag[-1] = 1.0 + s
    # forward sweep: the modified superdiagonal depends only on s and n
    sup = np.empty(n)
    piv = np.empty(n)
    piv[0] = diag[0]
    sup[0] = -s / piv[0]
    g[0] /= piv[0]
    for i in range(1, n):
        piv[i] = diag[i] + s * sup[i - 1]
        sup[i] = -s / piv[i]
        g[i] = (g[i] + s * g[i - 1]) / piv[i]
    for i in range(n - 2, -1, -1):
        g[i] -= sup[i] * g[i + 1]
    return np.moveaxis(g, 0, axis)


def diffusion_be(f, spacing, eta, dt):
    """Backward-Euler diffusion over the trailing axes; ADI sweeps in 2D."""
    lead = f.ndim - len(spacing)
    for k, h in enumerate(spacing):
        f = backward_euler_1d(f, dt * eta / (h * h), lead + k)
    return f


def exact_coupling(f, strength, dt):
    """Exact flow of df_i/dt = strength sum_j (f_j - f_i) over dt (axis 0 = neurons)."""
    if strength == 0.0:
        return f
    mean = f.mean(axis=0)
    return mean + (f - mean) * math.exp(-f.shape[0] * strength * dt)


def step_imex(x, p, spacing, dt):
    """Explicit reaction, exact coupling, backward-Euler (ADI) diffusion."""
    y = x + dt * reaction(x, p)
    y[:, 0] = diffusion_be(exact_coupling(y[:, 0], p["P"], dt), spacing, p["eta1"], dt)
    y[:, 3] = diffusion_be(exact_coupling(y[:, 3], p["Q"], dt), spacing, p["eta2"], dt)
    return y


def full_rhs(x, p, spacing):
    """Reaction + all-to-all coupling + diffusion."""
    k = reaction(x, p)
    m = x.shape[0]
    for comp, strength, eta in ((0, p["P"], p["eta1"]), (3, p["Q"], p["eta2"])):
        f = x[:, comp]
        k[:, comp] += strength * (f.sum(axis=0) - m * f) + eta * laplacian(f, spacing)
    return k


def step_rk4(x, p, spacing, dt):
    """Classical four-stage Runge-Kutta step."""
    k1 = full_rhs(x, p, spacing)
    k2 = full_rhs(x + dt / 2.0 * k1, p, spacing)
    k3 = full_rhs(x + dt / 2.0 * k2, p, spacing)
    k4 = full_rhs(x + dt * k3, p, spacing)
    return x + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


STEPPERS = {"imex-be": step_imex, "explicit-rk4": step_rk4}


def advance(x, p, spacing, dt, scheme, steps):
    """Take `steps` fixed steps of the named scheme from state x."""
    step = STEPPERS[scheme]
    x = np.array(x, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(steps):
            x = step(x, p, spacing, dt)
    return x
