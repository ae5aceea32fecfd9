"""The reference stepper against closed forms."""

import numpy as np
import pytest

import refstep

ALL_ONES = dict(a=1.0, b=1.0, eta1=1.0, eta2=1.0, alpha=1.0, beta=1.0, q=1.0, r=1.0,
                delta=1.0, k1=1.0, k2=1.0, Je=1.0, c=1.0, gamma=1.0, ue=1.0,
                P=1.0, Q=1.0, m=2)


def cosine_mode(n, k):
    """Cell-centered cos(pi k x) on [0, 1]: an eigenvector of the Neumann Laplacian."""
    return np.cos(np.pi * k * (np.arange(n) + 0.5) / n)


def symbol(n, k):
    """-h^2 times the eigenvalue of the Neumann second difference for mode k."""
    return 4.0 * np.sin(np.pi * k / (2.0 * n)) ** 2


@pytest.mark.parametrize("n,k", [(16, 1), (32, 5), (64, 63)])
def test_laplacian_of_cosine_mode(n, k):
    h = 1.0 / n
    f = cosine_mode(n, k)
    lap = refstep.laplacian(f[None, :], [h])[0]
    assert np.max(np.abs(lap + symbol(n, k) / h ** 2 * f)) <= 1e-9 * symbol(n, k) / h ** 2


@pytest.mark.parametrize("s", [1e-3, 0.5, 40.0])
def test_backward_euler_decay_factor_1d(s):
    n, k = 32, 3
    f = cosine_mode(n, k)
    # a leading neuron axis is carried through untouched
    got = refstep.backward_euler_1d(np.stack([f, 2.0 * f]), s, axis=1)
    factor = 1.0 / (1.0 + s * symbol(n, k))
    assert np.max(np.abs(got[0] - factor * f)) <= 1e-13
    assert np.max(np.abs(got[1] - 2.0 * factor * f)) <= 1e-13


def test_backward_euler_decay_factor_2d_adi():
    n0, n1, k0, k1 = 16, 24, 2, 5
    f = np.outer(cosine_mode(n0, k0), cosine_mode(n1, k1))
    spacing, eta, dt = [1.0 / n0, 1.0 / n1], 0.7, 1e-3
    got = refstep.diffusion_be(f[None], spacing, eta, dt)[0]
    s0, s1 = (dt * eta / h ** 2 for h in spacing)
    factor = 1.0 / ((1.0 + s0 * symbol(n0, k0)) * (1.0 + s1 * symbol(n1, k1)))
    assert np.max(np.abs(got - factor * f)) <= 1e-13


def relaxation_state(n, v0):
    """u = rho = 0 and w = v + Je: with ue = -(alpha + Je)/q and r = 1 the
    u equation stays at rest and v relaxes alone: dv/dt = alpha - v."""
    x = np.zeros((2, 4, n))
    x[:, 1] = v0
    x[:, 2] = v0 + ALL_ONES["Je"]
    return x, dict(ALL_ONES, r=1.0, ue=-2.0)


def test_rk4_relaxation_matches_exponential():
    x, p = relaxation_state(32, 0.25)
    out = refstep.advance(x, p, [1.0 / 32], 1e-3, "explicit-rk4", 1000)
    exact = p["alpha"] + (0.25 - p["alpha"]) * np.exp(-1.0)
    assert np.max(np.abs(out[:, 1] - exact)) <= 1e-10
    assert np.max(np.abs(out[:, [0, 3]])) <= 1e-12


def test_imex_relaxation_matches_euler_closed_form():
    x, p = relaxation_state(32, 0.25)
    dt, n = 1e-3, 1000
    out = refstep.advance(x, p, [1.0 / 32], dt, "imex-be", n)
    exact = p["alpha"] + (0.25 - p["alpha"]) * (1.0 - dt) ** n
    assert np.max(np.abs(out[:, 1] - exact)) <= 1e-12
    assert np.max(np.abs(out[:, 1] - p["alpha"] - (0.25 - p["alpha"]) * np.exp(-1.0))) <= 1e-3


def test_exact_coupling_keeps_mean_and_decays_deviations():
    rng = np.random.default_rng(0)
    f = rng.uniform(-1.0, 1.0, size=(3, 8))
    out = refstep.exact_coupling(f, 2.0, 0.1)
    assert np.allclose(out.mean(axis=0), f.mean(axis=0), rtol=0, atol=1e-15)
    dev = f - f.mean(axis=0)
    assert np.allclose(out - out.mean(axis=0), dev * np.exp(-3 * 2.0 * 0.1), rtol=0, atol=1e-15)
