import numpy as np
import pytest

from mhrnet.grid import Grid, laplacian_neumann
from mhrnet.model import (
    NetworkState,
    Parameters,
    coupling_rhs,
    full_rhs,
    reaction_rhs,
)


def unit_grid(n=32):
    return Grid((n,), (1.0,))


def const_state(g, m, u=0.0, v=0.0, w=0.0, rho=0.0):
    """(m, 4, *cells) state whose every neuron holds the same constants."""
    x = np.empty((m, 4) + g.shape)
    x[:] = np.reshape([u, v, w, rho], (4,) + (1,) * g.dim)
    return x


def loop_coupling(f, strength):
    """strength * sum_j (f_j - f_i), one j at a time, for every neuron i."""
    acc = 0.0
    for j in range(len(f)):
        acc = acc + (f[j] - f)
    return strength * acc


def random_net(g, m, seed=0):
    rng = np.random.default_rng(seed)
    return NetworkState(rng.normal(size=(m, 4) + g.shape), 0.0)


class TestParameters:
    def test_defaults_valid(self):
        Parameters()

    @pytest.mark.parametrize("bad", [
        {"b": 0.0}, {"b": -1.0}, {"r": 0.0}, {"eta1": -2.0}, {"Je": 0.0},
        {"P": -0.1}, {"Q": -5.0}, {"m": 1}, {"m": 2.5}, {"c": float("nan")},
    ])
    def test_invariant_violations(self, bad):
        with pytest.raises(ValueError):
            Parameters(**bad)

    def test_zero_coupling_allowed(self):
        p = Parameters(P=0.0, Q=0.0)
        assert p.P == 0.0 and p.Q == 0.0


class TestNetworkState:
    def test_shape_validation(self):
        g = unit_grid(8)
        NetworkState(np.zeros((2, 4) + g.shape))
        for shape in ((2, 3, 8), (4, 8), (2, 4)):
            with pytest.raises(ValueError):
                NetworkState(np.zeros(shape))

    def test_first_nonfinite_in_neuron_then_component_order(self):
        x = np.zeros((3, 4, 8))
        assert NetworkState(x).first_nonfinite() is None
        x[2, 0, 0] = np.inf
        x[1, 3, 1] = np.nan
        x[1, 2, 6] = -np.inf
        assert NetworkState(x).first_nonfinite() == (1, "w")


def memductance_of(rho, p):
    """phi(rho) as reaction_rhs applies it: at u = 1, v = w = 0 the u tendency
    is a - b + Je - k1*phi(rho)."""
    x = np.zeros((1, 4, len(rho)))
    x[0, 0] = 1.0
    x[0, 3] = rho
    return (p.a - p.b + p.Je - reaction_rhs(x, p)[0, 0]) / p.k1


class TestMemductance:
    def test_zero_rho_gives_c(self):
        p = Parameters(c=2.5)
        assert np.allclose(memductance_of(np.zeros(8), p), 2.5)

    def test_pure_square(self):
        # c and gamma may be zero; only delta must be positive
        out = memductance_of(np.full(8, 2.0), Parameters(c=0.0, gamma=0.0, delta=1.0))
        assert np.allclose(out, 4.0)

    def test_scalar_oracle(self):
        # independently: 1 + 2*1 + 3*1 = 6
        p = Parameters(c=1.0, gamma=2.0, delta=3.0)
        assert np.allclose(memductance_of(np.ones(8), p), 6.0)

    def test_nonfinite_propagates(self):
        # a NaN rho gives a NaN u tendency, not an exception
        x = np.zeros((2, 4, 8))
        x[1, 3, 5] = np.nan
        du = reaction_rhs(x, Parameters())[:, 0]
        assert np.isnan(du[1, 5])
        du[1, 5] = 0.0
        assert np.isfinite(du).all()


class TestReaction:
    def test_zero_state(self):
        g = unit_grid()
        p = Parameters(Je=2.0, alpha=3.0, q=1.5, ue=0.5)
        du, dv, dw, drho = reaction_rhs(const_state(g, 1), p)[0]
        assert np.allclose(du, 2.0)
        assert np.allclose(dv, 3.0)
        assert np.allclose(dw, -1.5 * 0.5)
        assert np.all(drho == 0.0)

    def test_v_equilibrium(self):
        g = unit_grid()
        p = Parameters(alpha=2.0, beta=0.5)
        ustar = 1.3
        x = const_state(g, 1, u=ustar, v=p.alpha - p.beta * ustar ** 2)
        _, dv, _, _ = reaction_rhs(x, p)[0]
        assert np.allclose(dv, 0.0, atol=1e-15)

    def test_pointwise_oracle(self):
        # a=b=k1=1, c, gamma, delta = 1, 2, 3, Je=0 not allowed (Je > 0): use
        # tiny Je and subtract it; u=1, v=w=0, rho=1 gives 1 - 1 - phi(1),
        # phi(1) = 1 + 2 + 3 = 6
        g = unit_grid()
        p = Parameters(Je=1e-12, c=1.0, gamma=2.0, delta=3.0)
        x = const_state(g, 1, u=1.0, rho=1.0)
        du, _, _, _ = reaction_rhs(x, p)[0]
        assert np.allclose(du - p.Je, -6.0)

    def test_locality(self):
        g = unit_grid()
        p = Parameters()
        net = random_net(g, 2, seed=4)
        base = reaction_rhs(net.x, p)
        bumped = net.x.copy()
        bumped[0, 0, 7] += 0.5
        mask = base != reaction_rhs(bumped, p)
        assert not mask[..., :7].any() and not mask[..., 8:].any()
        assert not mask[1].any()


    def test_du_bitwise_equals_product_formula(self):
        # u*u*u, not u**3: numpy's pow takes a scalar libm path for negative
        # u whose last bit depends on the SIMD level, so it must not appear
        g = unit_grid(256)
        p = Parameters(a=1.3, b=0.7, k1=0.9, c=0.2, gamma=1.1, delta=0.4, Je=0.3)
        x = np.random.default_rng(5).uniform(-2.0, 2.0, size=(3, 4) + g.shape)
        u, v, w, rho = x[:, 0], x[:, 1], x[:, 2], x[:, 3]
        assert (u < 0).any() and (u > 0).any()
        phi = p.c + p.gamma * rho + p.delta * rho * rho
        want = p.a * u * u - p.b * (u * u * u) + v - w + p.Je - p.k1 * phi * u
        du = reaction_rhs(x, p)[:, 0]
        assert np.array_equal(du.view(np.int64), want.view(np.int64))


class TestCoupling:
    def test_identical_neurons_zero(self):
        g = unit_grid()
        p = Parameters(P=3.0, Q=2.0)
        (cu,), (cr,) = coupling_rhs(const_state(g, 3, u=0.4, rho=-0.2)[None], (p.P, p.Q))
        assert np.all(cu == 0.0) and np.all(cr == 0.0)

    def test_two_neuron_oracle(self):
        # m=2, P=2, u1=0, u2=1: coupling on neuron 1 is 2*(1-0) = 2
        g = unit_grid()
        p = Parameters(P=2.0, m=2)
        x = const_state(g, 2)
        x[1, 0] = 1.0
        (cu,), _ = coupling_rhs(x[None], (p.P, p.Q))
        assert np.allclose(cu[0], 2.0)

    def test_permutation_symmetry(self):
        g = unit_grid()
        p = Parameters(P=1.5, Q=0.5, m=3)
        net = random_net(g, 3, seed=5)
        perm = [2, 0, 1]
        (cu_p,), (cr_p,) = coupling_rhs(net.x[perm][None], (p.P, p.Q))
        (cu,), (cr,) = coupling_rhs(net.x[None], (p.P, p.Q))
        for new_i, old_i in enumerate(perm):
            assert np.allclose(cu_p[new_i], cu[old_i], atol=1e-14)
            assert np.allclose(cr_p[new_i], cr[old_i], atol=1e-14)

    def test_conservation(self):
        g = unit_grid()
        p = Parameters(P=2.0, Q=3.0, m=4)
        net = random_net(g, 4, seed=6)
        (cu,), (cr,) = coupling_rhs(net.x[None], (p.P, p.Q))
        su, sr = cu.sum(axis=0), cr.sum(axis=0)
        assert np.max(np.abs(su)) < 1e-13
        assert np.max(np.abs(sr)) < 1e-13


    @pytest.mark.parametrize("m", [2, 3, 8])
    @pytest.mark.parametrize("cells", [(32,), (6, 5)])
    def test_bitwise_equals_j_loop(self, m, cells):
        g = Grid(cells, (1.0,) * len(cells))
        p = Parameters(P=1.7, Q=0.3, m=m)
        x = random_net(g, m, seed=m).x
        for k, strength, (got,) in zip((0, 3), (p.P, p.Q), coupling_rhs(x[None], (p.P, p.Q))):
            expected = loop_coupling(x[:, k], strength)
            assert np.array_equal(got.view(np.int64), expected.view(np.int64))


class TestFullRhs:
    @pytest.mark.parametrize("m,cells", [(8, (64,)), (2, (2,)), (5, (32, 24)), (3, (2, 5))])
    def test_bitwise_equals_per_component_assembly(self, m, cells):
        g = Grid(cells, tuple(1.0 + 0.5 * k for k in range(len(cells))))
        p = Parameters(P=1.3, Q=0.7, eta1=0.9, eta2=1.1, m=m)
        x = random_net(g, m, seed=m).x
        expected = reaction_rhs(x, p)
        for k, strength, eta in ((0, p.P, p.eta1), (3, p.Q, p.eta2)):
            expected[:, k] = (expected[:, k] + loop_coupling(x[:, k], strength)
                              + eta * laplacian_neumann(x[:, k], g))
        assert np.array_equal(full_rhs(x[None], p, g, (p.P, p.Q))[0].view(np.int64),
                              expected.view(np.int64))

    def test_manifold_invariance_bitwise(self):
        g = unit_grid()
        p = Parameters(P=4.0, Q=2.0, m=3)
        rng = np.random.default_rng(7)
        x = np.stack([rng.normal(size=(4,) + g.shape)] * 3)
        out = full_rhs(x[None], p, g, (p.P, p.Q))[0]
        for other in out[1:]:
            assert np.array_equal(out[0], other)

    def test_permutation_equivariance(self):
        g = unit_grid()
        p = Parameters(P=1.0, Q=2.0, m=3)
        net = random_net(g, 3, seed=8)
        perm = [1, 2, 0]
        out = full_rhs(net.x[None], p, g, (p.P, p.Q))[0]
        pout = full_rhs(net.x[perm][None], p, g, (p.P, p.Q))[0]
        for new_i, old_i in enumerate(perm):
            assert np.allclose(pout[new_i], out[old_i], atol=1e-13)

    def test_constant_identical_state_equals_reaction(self):
        g = unit_grid()
        p = Parameters(P=2.0, Q=2.0)
        x = const_state(g, 2, u=0.3, v=-0.1, w=0.2, rho=0.5)
        out = full_rhs(x[None], p, g, (p.P, p.Q))[0]
        du, dv, dw, drho = reaction_rhs(x[:1], p)[0]
        assert np.allclose(out[0, 0], du)
        assert np.allclose(out[0, 1], dv)
        assert np.allclose(out[0, 2], dw)
        assert np.allclose(out[0, 3], drho)

    def test_tiny_diffusivity_isolates_reaction(self):
        g = unit_grid()
        p = Parameters(eta1=1e-12, eta2=1e-12, P=1e-300, Q=1e-300)
        net = random_net(g, 2, seed=9)
        out = full_rhs(net.x[None], p, g, (p.P, p.Q))[0]
        du, _, _, drho = reaction_rhs(net.x, p)[0]
        scale = np.max(np.abs(net.x[0, 0])) / min(g.spacing) ** 2
        assert np.max(np.abs(out[0, 0] - du)) < 1e-6 * scale

    def test_pure_diffusion_eigenfunction(self):
        # v = w = rho = 0, u = cos(pi x); subtract the reaction part
        # analytically and compare against -eta1 * pi^2 * u
        g = unit_grid(128)
        p = Parameters(eta1=2.0)
        x = g.coordinates()[0]
        u = np.cos(np.pi * x)
        x = const_state(g, 2)
        x[:, 0] = u
        out = full_rhs(x[None], p, g, (p.P, p.Q))[0]
        reaction = p.a * u ** 2 - p.b * u ** 3 + p.Je - p.k1 * p.c * u
        diffusion = out[0, 0] - reaction
        h = g.spacing[0]
        assert np.max(np.abs(diffusion + p.eta1 * np.pi ** 2 * u)) < 20.0 * h ** 2
