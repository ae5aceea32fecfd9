import dataclasses
import re

import numpy as np
import pytest
import scipy.linalg
from scipy.optimize import brentq

from mhrnet.analysis import pairwise_gap
from mhrnet.grid import Grid, smooth_field
from mhrnet.integrator import (
    BlowUpError,
    IntegratorConfig,
    _factor,
    _flapack,
    check_stable,
    diffusion_step_be,
    integrate,
    replicate_coupling,
    stability_limit,
    step_imex,
    step_rk4,
)
from mhrnet.model import NetworkState, Parameters, coupling_rhs, full_rhs


def unit_grid(n=32):
    return Grid((n,), (1.0,))


def const_net(g, m, u=0.0, v=0.0, w=0.0, rho=0.0):
    """A batch of one (1, m, 4, *cells) whose every neuron holds the same constants."""
    x = np.empty((1, m, 4) + g.shape)
    x[:] = np.reshape([u, v, w, rho], (4,) + (1,) * g.dim)
    return x


def smooth_random_net(g, m, seed, passes=3, amplitude=0.5):
    """A batch of one (1, m, 4, *cells) of smoothed uniform samples."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-amplitude, amplitude, size=(m, 4) + g.shape)
    return smooth_field(x, g, passes)[None]


def max_diff(x1, x2):
    return float(np.max(np.abs(x1 - x2)))


def rk4(x, p, g, dt):
    """step_rk4 on a batch x whose replicates all have the strengths of p."""
    return step_rk4(x, p, g, dt, replicate_coupling([p] * len(x), g, dt, "explicit-rk4"))


def imex(x, p, g, dt):
    """step_imex on a batch x whose replicates all have the strengths of p."""
    return step_imex(x, p, g, dt, replicate_coupling([p] * len(x), g, dt, "imex-be"))


class TestConfig:
    def test_valid(self):
        cfg = IntegratorConfig(scheme="explicit-rk4", dt=1e-4, t_end=2.0)
        assert cfg.observe_every == 100

    @pytest.mark.parametrize("bad", [
        {"scheme": "euler"}, {"dt": 0.0}, {"dt": -1e-3}, {"t_end": 0.0},
        {"observe_every": 0}, {"observe_every": 1.5},
        {"dt": float("inf")}, {"t_end": float("inf")}, {"enforce_stability": "maybe"},
    ])
    def test_invalid(self, bad):
        with pytest.raises(ValueError):
            IntegratorConfig(**bad)


class TestStabilityLimit:
    def test_oracle(self):
        # h = 0.1, max eta = 1 -> 0.01 / 2 = 0.005
        g = Grid((10,), (1.0,))
        assert stability_limit(g, Parameters()) == pytest.approx(0.005)

    def test_scales_inversely_with_diffusivity(self):
        g = unit_grid()
        a = stability_limit(g, Parameters(eta1=1.0, eta2=1.0))
        b = stability_limit(g, Parameters(eta1=4.0, eta2=1.0))
        assert a == pytest.approx(4.0 * b)

    def test_dimension_factor(self):
        p = Parameters()
        g1 = Grid((32,), (1.0,))
        g2 = Grid((32, 32), (1.0, 1.0))
        assert stability_limit(g1, p) == pytest.approx(2.0 * stability_limit(g2, p))


class TestRk4:
    def test_equilibrium_is_fixed(self):
        # all-ones constants, spatially constant, identical neurons:
        # u solves -2u^3 - u^2 - 2u + 3 = 0; v, w, rho follow from it
        ustar = brentq(lambda u: -2 * u ** 3 - u ** 2 - 2 * u + 3, 0.0, 2.0)
        g = unit_grid()
        p = Parameters()
        x = const_net(g, 2, u=ustar, v=1 - ustar ** 2, w=ustar - 1, rho=ustar)
        out = rk4(x, p, g, 1e-4)
        assert max_diff(x, out) < 1e-12

    def test_linear_relaxation_analytic(self):
        # u = 0 stays invariant when w = v + Je and ue = -(alpha + Je)/q;
        # then v(t) = alpha + (v0 - alpha) * exp(-t)
        p = Parameters(r=1.0, ue=-2.0, P=0.0, Q=0.0)
        g = unit_grid()
        v0 = 0.25
        x = const_net(g, 2, u=0.0, v=v0, w=v0 + p.Je, rho=0.0)
        dt = 1e-3
        for _ in range(1000):
            x = rk4(x, p, g, dt)
        exact = p.alpha + (v0 - p.alpha) * np.exp(-1.0)
        assert np.max(np.abs(x[0, 0, 1] - exact)) <= 1e-10
        assert np.max(np.abs(x[0, 0, 0])) <= 1e-12

    def test_convergence_order(self):
        g = unit_grid(32)
        p = Parameters(eta1=0.01, eta2=0.01)
        x0 = smooth_random_net(g, 2, seed=3)
        t_end = 0.5

        def advance(dt):
            x = x0
            for _ in range(round(t_end / dt)):
                x = rk4(x, p, g, dt)
            return x

        ref = advance(5e-5)
        errs = [max_diff(advance(dt), ref) for dt in (4e-3, 2e-3, 1e-3)]
        orders = [np.log2(a / b) for a, b in zip(errs, errs[1:])]
        assert min(orders) >= 3.8

    def test_rejects_nonpositive_dt(self):
        g = unit_grid()
        with pytest.raises(ValueError):
            rk4(const_net(g, 2), Parameters(), g, 0.0)


class TestImplicitDiffusion:
    def test_constant_unchanged(self):
        g = unit_grid()
        f = np.full(g.shape, 2.5)
        out = diffusion_step_be(f, g, 1.0, 0.1)
        assert np.allclose(out, 2.5, atol=1e-13)

    def test_cosine_discrete_factor(self):
        # the lowest cosine mode is a discrete eigenfunction; one implicit
        # step divides it by (1 + dt * eta * lambda_h)
        g = unit_grid(64)
        h = g.spacing[0]
        x = g.coordinates()[0]
        f = np.cos(np.pi * x)
        eta, dt = 2.0, 0.05
        lam_h = (4.0 / h ** 2) * np.sin(np.pi * h / 2.0) ** 2
        out = diffusion_step_be(f, g, eta, dt)
        assert np.max(np.abs(out - f / (1.0 + dt * eta * lam_h))) < 1e-13

    def test_mass_conserved(self):
        g = unit_grid(48)
        rng = np.random.default_rng(0)
        f = rng.normal(size=g.shape)
        out = diffusion_step_be(f, g, 1.0, 0.3)
        assert np.sum(out) == pytest.approx(np.sum(f), abs=1e-10)

    @pytest.mark.parametrize("cells", [(32,), (8, 12)])
    def test_stack_matches_single_fields(self, cells):
        # one solve for all lines gives each field's own solve exactly
        g = Grid(cells, (1.0,) * len(cells))
        f = np.random.default_rng(2).normal(size=(3, 2) + g.shape)
        f0 = f.copy()
        out = diffusion_step_be(f, g, 0.7, 0.05)
        assert np.array_equal(f, f0)
        for i in range(3):
            for k in range(2):
                assert np.array_equal(out[i, k], diffusion_step_be(f[i, k], g, 0.7, 0.05))

    @pytest.mark.parametrize("lead, cells", [
        ((), (64,)), ((), (128,)), ((), (2,)), ((), (48, 80)), ((), (2, 5)),
        ((3, 2), (128,)), ((3, 2), (48, 80)), ((), (2, 2)), ((4,), (3, 7)),
    ])
    def test_matches_solve_banded(self, lead, cells):
        # the cached LDL^T factors and dpttrs give scipy's symmetric banded
        # solve bit for bit
        g = Grid(cells, (1.0,) * len(cells))
        f = np.random.default_rng(3).normal(size=lead + cells)
        eta, dt = 0.7, 0.05
        ref = f
        for k, h in enumerate(g.spacing):
            n, s = cells[k], dt * eta / (h * h)
            band = np.zeros((2, n))
            band[0, 1:] = -s
            band[1] = 1.0 + 2.0 * s
            band[1, 0] = band[1, -1] = 1.0 + s
            lines = np.moveaxis(ref, k - len(cells), -1)
            sol = scipy.linalg.solveh_banded(band, lines.reshape(-1, n).T)
            ref = np.moveaxis(sol.T.reshape(lines.shape), -1, k - len(cells))
        assert np.array_equal(diffusion_step_be(f, g, eta, dt), ref)

    @pytest.mark.parametrize("cells", [(2,), (3,), (2, 2)])
    @pytest.mark.parametrize("s", [1e-3, 1.0, 1e6])
    def test_smallest_grids_match_dense_solve(self, cells, s):
        # two- and three-cell axes against a dense solve of each sweep's
        # I - s*L; elimination's forward error grows like eps*cond(I - s*L),
        # cond <= 1 + 4s, which is above 1e-12 only at s = 1e6
        g = Grid(cells, (1.0,) * len(cells))
        h = g.spacing[0]
        f = np.random.default_rng(5).normal(size=cells)
        dt = s * h * h
        out = diffusion_step_be(f, g, 1.0, dt)
        ref = f
        for k, n in enumerate(cells):
            lap = np.diag(np.full(n, -2.0)) + np.eye(n, k=1) + np.eye(n, k=-1)
            lap[0, 0] = lap[-1, -1] = -1.0
            lines = np.moveaxis(ref, k, -1)
            sol = np.linalg.solve(np.eye(n) - dt / (h * h) * lap, lines.reshape(-1, n).T)
            ref = np.moveaxis(sol.T.reshape(lines.shape), -1, k)
        tol = max(1e-12, g.dim * np.finfo(float).eps * (1.0 + 4.0 * s)) * np.max(np.abs(f))
        assert np.max(np.abs(out - ref)) <= tol
        assert abs(np.sum(out) - np.sum(f)) <= tol

    @pytest.mark.parametrize("f, cells", [
        (np.linspace(-1.0, 1.0, 64), (64,)),                      # lines are a view of f
        (np.linspace(-1.0, 1.0, 384).reshape(64, 2, 3).T, (64,)),  # reshape copies them
        (np.linspace(-1.0, 1.0, 240).reshape(12, 20), (12, 20)),   # 2D: one of each
    ])
    def test_input_untouched(self, f, cells):
        g = Grid(cells, (1.0,) * len(cells))
        f0 = f.copy()
        out = diffusion_step_be(f, g, 0.7, 0.05)
        assert np.array_equal(f, f0)
        assert not np.may_share_memory(out, f)

    def test_cached_factors_read_only(self):
        for a in _factor(16, 0.25):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0

    def test_factor_rejects_singular_matrix(self):
        # at s = 1e16 > 2**53, 1 + s rounds to s and I - s*L is singular in floating point
        with pytest.raises(ValueError, match="singular"):
            _factor(16, 1e16)

    def test_lapack_module_missing_named(self, monkeypatch, tmp_path):
        # the loader is cached, so its uncached body is called directly
        monkeypatch.setattr(scipy.__spec__, "submodule_search_locations", [str(tmp_path)])
        with pytest.raises(ImportError, match="_flapack is not in %s"
                           % re.escape(str(tmp_path / "linalg"))):
            _flapack.__wrapped__()

    def test_factor_cache_per_step(self):
        g = unit_grid(40)
        f = np.random.default_rng(4).normal(size=g.shape)
        _factor.cache_clear()
        outs = [diffusion_step_be(f, g, 0.7, 0.05) for _ in range(3)]
        info = _factor.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 2, 1)
        assert all(np.array_equal(o, outs[0]) for o in outs)
        diffusion_step_be(f, g, 0.7, 0.1)
        assert _factor.cache_info().currsize == 2
        h = g.spacing[0]
        a, b = _factor(40, 0.05 * 0.7 / (h * h)), _factor(40, 0.1 * 0.7 / (h * h))
        assert _factor.cache_info().currsize == 2
        assert not np.array_equal(a[1], b[1])

    def test_2d_matches_two_1d_sweeps(self):
        g2 = Grid((16, 16), (1.0, 1.0))
        rng = np.random.default_rng(1)
        f = rng.normal(size=g2.shape)
        out = diffusion_step_be(f, g2, 0.5, 0.01)
        assert np.sum(out) == pytest.approx(np.sum(f), abs=1e-10)
        assert out.shape == f.shape


class TestImex:
    def test_first_order_accuracy(self):
        g = unit_grid(32)
        p = Parameters(eta1=0.01, eta2=0.01)
        x0 = smooth_random_net(g, 2, seed=3)
        t_end = 0.5

        def advance(dt):
            x = x0
            for _ in range(round(t_end / dt)):
                x = imex(x, p, g, dt)
            return x

        ref = x0
        for _ in range(round(t_end / 5e-5)):
            ref = rk4(ref, p, g, 5e-5)
        errs = [max_diff(advance(dt), ref) for dt in (4e-3, 2e-3, 1e-3)]
        orders = [np.log2(a / b) for a, b in zip(errs, errs[1:])]
        assert min(orders) >= 0.9

    def test_huge_coupling_stays_bounded(self):
        # coupling strengths far beyond any explicit stability limit must
        # not destabilize the integrating-factor substep
        g = unit_grid(32)
        p = Parameters(P=1e6, Q=1e15)
        x = smooth_random_net(g, 3, seed=4)
        dt = 1e-3
        for _ in range(50):
            x = imex(x, p, g, dt)
        assert np.isfinite(x).all()
        assert np.max(np.abs(x[0, :, 0])) < 1e3

    def test_coupling_preserves_neuron_mean(self):
        g = unit_grid(32)
        p0 = Parameters(P=0.0, Q=0.0, m=3)
        p1 = Parameters(P=7.0, Q=3.0, m=3)
        x = smooth_random_net(g, 3, seed=5)
        a = imex(x, p0, g, 1e-3)
        b = imex(x, p1, g, 1e-3)
        mean_a = a[0, :, 0].sum(axis=0) / 3.0
        mean_b = b[0, :, 0].sum(axis=0) / 3.0
        assert np.max(np.abs(mean_a - mean_b)) < 1e-13


class TestIntegrate:
    def test_step_count_and_observations(self):
        g = unit_grid()
        p = Parameters()
        cfg = IntegratorConfig(scheme="imex-be", dt=0.01, t_end=1.0, observe_every=10)
        times = []
        x, errors = integrate(const_net(g, 2), [p], g, cfg,
                              observer=lambda t, x, live: times.append(t))
        assert x.shape == (1, 2, 4, 32) and errors == [None]
        assert len(times) == 10
        assert times[-1] == pytest.approx(1.0)

    def test_bitwise_determinism(self):
        g = unit_grid(32)
        p = Parameters(P=2.0, Q=2.0)
        cfg = IntegratorConfig(scheme="imex-be", dt=1e-3, t_end=0.2)
        a, _ = integrate(smooth_random_net(g, 2, seed=6), [p], g, cfg)
        b, _ = integrate(smooth_random_net(g, 2, seed=6), [p], g, cfg)
        assert max_diff(a, b) == 0.0

    def test_identical_neurons_stay_identical(self):
        g = unit_grid(32)
        p = Parameters(P=5.0, Q=5.0)
        net0 = smooth_random_net(g, 1, seed=7)
        net0 = np.concatenate([net0, net0], axis=1)
        cfg = IntegratorConfig(scheme="imex-be", dt=1e-3, t_end=10.0)
        out, _ = integrate(net0, [p], g, cfg)
        assert np.array_equal(out[0, 0], out[0, 1])

    def test_stability_guard_rejects_large_dt(self):
        g = unit_grid(64)
        p = Parameters()
        cfg = IntegratorConfig(scheme="explicit-rk4", dt=1e-3, t_end=1.0)
        with pytest.raises(ValueError):
            integrate(const_net(g, 2), [p], g, cfg)

    def test_stability_guard_boundary(self):
        g = unit_grid(64)
        p = Parameters()
        edge = 0.9 * stability_limit(g, p)
        over = IntegratorConfig(scheme="explicit-rk4", dt=edge * (1 + 1e-9), t_end=edge)
        with pytest.raises(ValueError, match="stability_limit"):
            integrate(const_net(g, 2), [p], g, over)
        dt = edge * (1 - 1e-9)
        under = IntegratorConfig(scheme="explicit-rk4", dt=dt, t_end=dt)
        times = []
        _, errors = integrate(const_net(g, 2), [p], g, under, lambda t, x, live: times.append(t))
        assert errors == [None] and times == [dt]

    @pytest.mark.parametrize("eta", ["eta1", "eta2"])
    def test_singular_implicit_solve_rejected(self, eta):
        g = unit_grid(16)
        h = g.spacing[0]
        cfg = IntegratorConfig(scheme="imex-be", dt=1.0, t_end=1.0)
        # s = dt*eta/h^2 = 2**53 is the smallest s with 1 + s == s
        with pytest.raises(ValueError, match="1 \\+ s rounds to s"):
            check_stable(cfg, Parameters(**{eta: 2.0 ** 53 * h * h}), g)
        check_stable(cfg, Parameters(**{eta: (2.0 ** 53 - 1.0) * h * h}), g)
        check_stable(IntegratorConfig(scheme="explicit-rk4", dt=1.0, t_end=1.0,
                                      enforce_stability=False),
                     Parameters(**{eta: 2.0 ** 53 * h * h}), g)

    def test_blow_up_reported(self):
        # twice the diffusion stability limit with the guard off: the
        # alternating-sign mode grows without bound and must be caught
        g = unit_grid(64)
        p = Parameters()
        dt = 2.0 * stability_limit(g, p)
        cfg = IntegratorConfig(scheme="explicit-rk4", dt=dt, t_end=10.0,
                               observe_every=10, enforce_stability=False)
        net = const_net(g, 2)
        net[0, 0, 0] = np.where(np.arange(64) % 2 == 0, 1.0, -1.0)
        _, (err,) = integrate(net, [p], g, cfg)
        assert isinstance(err, BlowUpError)
        assert err.t > 0.0

    def test_blow_up_located_at_step(self):
        # the first non-finite state is reported at its own step, not at
        # the next observation boundary
        g = unit_grid(16)
        p = Parameters()
        net = const_net(g, 2)
        net[0, :, 0] = np.linspace(-5.0, 5.0, 16)
        first = NetworkState(net[0], 0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            while first.first_nonfinite() is None:
                first = NetworkState(imex(first.x[None], p, g, 1.0)[0], first.t + 1.0)
        cfg = IntegratorConfig(scheme="imex-be", dt=1.0, t_end=200.0, observe_every=100)
        last, (err,) = integrate(net, [p], g, cfg)
        assert isinstance(err, BlowUpError)
        assert 0.0 < err.t == first.t < 100.0
        assert (err.neuron, err.component) == first.first_nonfinite()
        assert str(err) == "blow-up detected at t=%.6g (neuron %d, component %s)" % (
            first.t, *first.first_nonfinite())
        # the returned row is the state that blew up
        assert np.array_equal(last[0], first.x, equal_nan=True)

    def test_batch_matches_solo_runs(self):
        # replicates with zero and nonzero strengths: two turn non-finite,
        # at steps 7 and 8, between observations, and two finish.  Each
        # replicate's observations, final state or BlowUpError are those of
        # its run alone; a replicate that blew up returns the state that did
        g = unit_grid(16)
        cfg = IntegratorConfig(scheme="imex-be", dt=0.55, t_end=11.0, observe_every=10)
        nets, ps = [], []
        for scale, P, Q in ((5.0, 0.0, 1.0), (2.0, 2.0, 0.0), (3.0, 1.0, 1.0), (0.1, 0.0, 0.0)):
            net = const_net(g, 2)
            net[0, :, 0] = scale * np.linspace(-1.0, 1.0, 16)
            nets.append(net)
            ps.append(Parameters(P=P, Q=Q))
        seen = [[] for _ in nets]

        def observer(t, x, live):
            assert not x.flags.writeable and len(x) == len(live)
            for r, b in enumerate(live):
                seen[b].append((t, x[r].copy()))

        out, errors = integrate(np.concatenate(nets), ps, g, cfg, observer)
        assert out.shape == (4, 2, 4, 16)
        for b, (net, p) in enumerate(zip(nets, ps)):
            alone = []
            final, (err,) = integrate(net, [p], g, cfg,
                                      lambda t, x, live: alone.append((t, x[0].copy())))
            if err is not None:
                assert isinstance(errors[b], BlowUpError)
                assert (str(errors[b]), errors[b].step) == (str(err), err.step)
                assert errors[b].step == {0: 7, 2: 8}[b]
                assert not np.isfinite(out[b]).all()
            else:
                assert errors[b] is None
            assert np.array_equal(out[b:b + 1].view(np.int64), final.view(np.int64))
            assert len(seen[b]) == len(alone)
            for (t, x), (t_alone, x_alone) in zip(seen[b], alone):
                assert t == t_alone and np.array_equal(x, x_alone)
        assert [isinstance(e, BlowUpError) for e in errors] == [True, False, True, False]

    def test_empty_batch_rejected(self):
        g = unit_grid()
        cfg = IntegratorConfig(scheme="imex-be", dt=0.01, t_end=0.1)
        with pytest.raises(ValueError, match=r"B >= 1.*got \(0, 2, 4, 32\)"):
            integrate(np.empty((0, 2, 4) + g.shape), [], g, cfg)

    @pytest.mark.parametrize("shape", [(2, 4, 32), (1, 2, 3, 32), (1, 2, 4, 31), (1, 2, 4, 4, 8)],
                             ids=["one-state", "components", "cells", "grid-dim"])
    def test_bad_batch_shape_rejected(self, shape):
        g = unit_grid()
        cfg = IntegratorConfig(scheme="imex-be", dt=0.01, t_end=0.1)
        with pytest.raises(ValueError, match=r"\(B >= 1, m >= 1, 4, 32\), got %s"
                           % re.escape(str(shape))):
            integrate(np.zeros(shape), [Parameters()] * shape[0], g, cfg)

    def test_neuron_count_other_than_m_rejected(self):
        # the coupling factors use m, so m = 2 Parameters on a three-neuron
        # state would run and end away from the m = 3 run
        g = unit_grid(16)
        cfg = IntegratorConfig(scheme="imex-be", dt=1e-3, t_end=0.01)
        x = smooth_random_net(g, 3, seed=1)
        with pytest.raises(ValueError, match="3 neurons per network but its Parameters have m=2"):
            integrate(x, [Parameters(m=2, P=5.0, Q=5.0)], g, cfg)

    @pytest.mark.parametrize("n_states, n_params", [(3, 1), (2, 3)])
    def test_params_length_mismatch_rejected(self, n_states, n_params):
        g = unit_grid()
        cfg = IntegratorConfig(scheme="imex-be", dt=0.01, t_end=0.1)
        with pytest.raises(ValueError, match="%d states but %d Parameters" % (n_states, n_params)):
            integrate(np.concatenate([const_net(g, 2)] * n_states), [Parameters()] * n_params,
                      g, cfg)

    @pytest.mark.parametrize("name", [n for n in Parameters.field_names() if n not in ("P", "Q")])
    def test_params_differing_beyond_strengths_rejected(self, name):
        # every replicate is stepped with the constants of the first, so a
        # batch whose Parameters differ in anything but P and Q is refused
        g = unit_grid()
        cfg = IntegratorConfig(scheme="imex-be", dt=0.01, t_end=0.1)
        p = Parameters()
        other = dataclasses.replace(p, **{name: 3 if name == "m" else 2.0 * getattr(p, name) + 0.5})
        with pytest.raises(ValueError, match="not in parameter '%s'" % name):
            integrate(np.concatenate([const_net(g, 2)] * 2), [p, other], g, cfg)


BATCH_DT = 1e-3

# each numerical-core function on a batch x of replicates with Parameters ps,
# as one array with the replicates on its first axis
BATCH_FORMS = {
    "step_rk4": lambda x, ps, g: step_rk4(
        x, ps[0], g, BATCH_DT, replicate_coupling(ps, g, BATCH_DT, "explicit-rk4")),
    "step_imex": lambda x, ps, g: step_imex(
        x, ps[0], g, BATCH_DT, replicate_coupling(ps, g, BATCH_DT, "imex-be")),
    "full_rhs": lambda x, ps, g: full_rhs(
        x, ps[0], g, replicate_coupling(ps, g, BATCH_DT, "explicit-rk4")),
    "coupling_rhs": lambda x, ps, g: np.stack(
        coupling_rhs(x, replicate_coupling(ps, g, BATCH_DT, "explicit-rk4")), axis=1),
    "pairwise_gap": lambda x, ps, g: np.array(pairwise_gap(x, g)),
}


@pytest.mark.parametrize("form", sorted(BATCH_FORMS))
@pytest.mark.parametrize("cells", [(16,), (6, 5)])
def test_replicate_row_equals_batch_of_one(form, cells):
    # three replicates with distinct (P, Q), one of them P = 0 and one
    # Q = 0: each replicate's row is bitwise that of its batch of one
    g = Grid(cells, (1.0,) * len(cells))
    ps = [Parameters(P=P, Q=Q, m=3) for P, Q in ((0.0, 2.0), (1.5, 0.0), (3.0, 0.7))]
    x = np.random.default_rng(8).uniform(-1.0, 1.0, size=(3, 3, 4) + cells)
    fn = BATCH_FORMS[form]
    out = fn(x, ps, g)
    assert len(out) == 3
    for b in range(3):
        alone = fn(x[b:b + 1], ps[b:b + 1], g)
        assert np.array_equal(out[b:b + 1].view(np.int64), alone.view(np.int64))
