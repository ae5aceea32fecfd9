"""End-to-end acceptance gate: one test per shipped guarantee.

These tests exercise the package exactly as a user would (public API and
experiment harness) and pin every tolerance explicitly.  Several share one
expensive synchronization run via module-scoped fixtures.
"""

import dataclasses
from importlib import resources

import numpy as np
import pytest

from mhrnet.analysis import (
    check_absorbing_envelope,
    compute_constants,
    estimate_gn_constant,
    fit_decay_rate,
    pairwise_gap,
)
from mhrnet.cli import build_spec, load_config
from mhrnet.grid import Grid, energy_functional
from mhrnet.harness import (
    ExperimentSpec,
    InitialCondition,
    generate_initial,
    run_experiment,
)
from mhrnet.integrator import (
    IntegratorConfig,
    integrate,
    replicate_coupling,
    step_imex,
    step_rk4,
)
from mhrnet.model import Parameters, coupling_rhs
from mhrnet.grid import laplacian_neumann, smooth_field


def bursting_parameters(**changes):
    """The Parameters of the packaged bursting.yaml, with changes."""
    with resources.as_file(resources.files("mhrnet").joinpath("data/bursting.yaml")) as path:
        return dataclasses.replace(build_spec(load_config(path)).parameters, **changes)


# --------------------------------------------------------------------------
# criterion 1: hand-derived constant oracles
# --------------------------------------------------------------------------

def test_criterion_1_constant_oracles():
    tol = 1e-12
    dc = compute_constants(Parameters(), 1.0)
    frozen = {
        "C1": 5.0,
        "C2": 26.265625,
        "Pmin": 10.6875,
        "M": 14120.53125,
    }
    for name, want in frozen.items():
        assert abs(getattr(dc, name) - want) / want <= tol, name
    assert abs(dc.envelope_asymptote - 28241.0625) / 28241.0625 <= tol
    assert abs(compute_constants(Parameters(r=0.5, k2=2.0), 1.0).lam - 0.25) <= tol
    dc2 = compute_constants(Parameters(P=2.0 * dc.Pmin), 1.0)
    assert abs(dc2.kappa - 0.5) <= tol


# --------------------------------------------------------------------------
# criterion 2: synchronization-manifold invariance
# --------------------------------------------------------------------------

def test_criterion_2_manifold_invariance():
    g = Grid((64,), (1.0,))
    p = Parameters(P=3.0, Q=2.0, m=3)
    rng = np.random.default_rng(42)
    shared = smooth_field(rng.uniform(-1.0, 1.0, size=(4,) + g.shape), g, 2)
    net = np.stack([shared] * 3)[None]
    cfg = IntegratorConfig(scheme="imex-be", dt=1e-3, t_end=20.0, observe_every=100)

    worst = [0.0]

    def observer(t, x, live):
        worst[0] = max(worst[0], max(pairwise_gap(x, g)[0]))

    final, errors = integrate(net, [p], g, cfg, observer)
    assert errors == [None] and final.shape == net.shape
    assert worst[0] <= 1e-12


# --------------------------------------------------------------------------
# criteria 3 and 8 share one above-threshold synchronization run
# --------------------------------------------------------------------------

SYNC_GRID = Grid((128,), (1.0,))


@pytest.fixture(scope="module")
def sync_run(tmp_path_factory):
    """Above-threshold two-neuron run instrumented for coupling conservation."""
    g = SYNC_GRID
    cstar = estimate_gn_constant(g, n_samples=32, seed=11)
    dc0 = compute_constants(Parameters(), g.measure, cstar)
    p = Parameters(P=2.0 * dc0.Pmin, Q=max(dc0.Qmin, 1.0), m=2)

    coupling_sums = []

    def conservation_observer(t, net):
        (cu,), (cr,) = coupling_rhs(net.x[None], (p.P, p.Q))
        su, sr = cu.sum(axis=0), cr.sum(axis=0)
        coupling_sums.append(max(np.max(np.abs(su)), np.max(np.abs(sr))))

    spec = ExperimentSpec(
        parameters=p,
        grid=g,
        integrator=IntegratorConfig(scheme="imex-be", dt=1e-3, t_end=60.0,
                                observe_every=100),
        initial=InitialCondition(smoothing_passes=2),
        seed=5,
        cstar=cstar,
        output_dir=str(tmp_path_factory.mktemp("sync")),
        label="sync",
    )
    result = run_experiment(spec, extra_observer=conservation_observer)
    return result, coupling_sums


def test_criterion_3_exponential_synchronization(sync_run):
    result, _ = sync_run
    kappa = 0.5   # frozen: min(xi, 1, r/2, 2 k2) at P = 2 Pmin, all-ones
    report = result.report
    assert report["verdict"] == "synchronized"
    fit = report["pairs"]["1-2"]
    assert fit["decayed"]
    assert fit["rate"] >= 0.9 * kappa
    data = np.genfromtxt(result.timeseries_path, delimiter=",", names=True)
    assert data["gap_1_2"][-1] <= 1e-8


def test_criterion_8_coupling_conservation(sync_run):
    _, coupling_sums = sync_run
    assert len(coupling_sums) > 0
    assert max(coupling_sums) <= 1e-12


# --------------------------------------------------------------------------
# criterion 4: the thresholds are not vacuous (uncoupled contrast)
# --------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_4_uncoupled_contrast():
    # the chaotic bursting set: with the all-ones set the uncoupled network
    # has a globally attracting rest state, so every pair would converge
    g = SYNC_GRID
    p = bursting_parameters(P=0.0, Q=0.0)
    cfg = IntegratorConfig(scheme="imex-be", dt=1e-3, t_end=60.0, observe_every=100)
    stayed_apart = 0
    for seed in (1, 2, 3, 4, 5):
        spec = ExperimentSpec(parameters=p, grid=g, integrator=cfg,
                              initial=InitialCondition(smoothing_passes=2),
                              seed=seed)
        x0 = generate_initial(spec)[None]
        min_gap = [np.inf]

        def observer(t, x, live):
            min_gap[0] = min(min_gap[0], pairwise_gap(x, g)[0][0])

        final, errors = integrate(x0, [p], g, cfg, observer)
        assert errors == [None] and final.shape == x0.shape
        if min_gap[0] > 1e-2:
            stayed_apart += 1
    assert stayed_apart >= 3


# --------------------------------------------------------------------------
# criterion 5: dissipativity envelope from large initial data
# --------------------------------------------------------------------------

@pytest.mark.slow
def test_criterion_5_absorbing_envelope():
    g = Grid((64,), (1.0,))
    dc = compute_constants(Parameters(), g.measure)
    # amplitudes chosen so the largest initial energy reaches about
    # 100x the envelope asymptote (energy ~ 0.4 A^4 for uniform [-A, A])
    amplitudes = np.linspace(5.0, 51.8, 10)
    for seed, amp in enumerate(amplitudes, start=1):
        p = Parameters()
        # explicit reaction substep needs dt * 3 b A^2 < 2 for the cubic
        dt = min(1e-3, 1.0 / (3.0 * amp * amp))
        cfg = IntegratorConfig(scheme="imex-be", dt=dt, t_end=40.0,
                               observe_every=max(1, round(0.1 / dt)))
        spec = ExperimentSpec(
            parameters=p, grid=g, integrator=cfg,
            initial=InitialCondition(
                amplitude={c: (-amp, amp) for c in ("u", "v", "w", "rho")}),
            seed=seed,
        )
        x0 = generate_initial(spec)[None]
        times, energies = [0.0], list(energy_functional(x0, g))

        def observer(t, x, live):
            times.append(t)
            energies.extend(energy_functional(x, g))

        final, errors = integrate(x0, [p], g, cfg, observer)
        assert errors == [None] and final.shape == x0.shape
        chk = check_absorbing_envelope(np.array(times), np.array(energies), dc)
        assert chk.passed, "seed %d margin %.3g" % (seed, chk.max_margin)
    # the strongest seed must genuinely start far above the asymptote
    assert 0.4 * amplitudes[-1] ** 4 > 50.0 * dc.envelope_asymptote


# --------------------------------------------------------------------------
# criterion 6: discretization orders
# --------------------------------------------------------------------------

def _smooth_net(g, m, seed, passes=3, amplitude=0.5):
    """A batch of one (1, m, 4, *cells) of smoothed uniform samples."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-amplitude, amplitude, size=(m, 4) + g.shape)
    return smooth_field(x, g, passes)[None]


def _max_diff(x1, x2):
    return float(np.max(np.abs(x1 - x2)))


def test_criterion_6_discretization_orders():
    # (a) Laplacian: cosine eigenfunction error drops ~4x under h -> h/2
    errs = []
    for n in (32, 64):
        g = Grid((n,), (1.0,))
        x = g.coordinates()[0]
        f = np.cos(np.pi * x)
        errs.append(np.max(np.abs(laplacian_neumann(f, g) + np.pi ** 2 * f)))
    assert 3.5 <= errs[0] / errs[1] <= 4.5

    # (b, c) time-stepping self-convergence against a fine RK4 reference
    g = Grid((32,), (1.0,))
    p = Parameters(eta1=0.01, eta2=0.01)
    x0 = _smooth_net(g, 2, seed=3)
    t_end = 0.5
    ref = x0
    strengths = replicate_coupling([p], g, 5e-5, "explicit-rk4")
    for _ in range(round(t_end / 5e-5)):
        ref = step_rk4(ref, p, g, 5e-5, strengths)

    def orders(step, scheme):
        out = []
        for dt in (4e-3, 2e-3, 1e-3):
            x = x0
            coupling = replicate_coupling([p], g, dt, scheme)
            for _ in range(round(t_end / dt)):
                x = step(x, p, g, dt, coupling)
            out.append(_max_diff(x, ref))
        return [np.log2(a / b) for a, b in zip(out, out[1:])]

    assert min(orders(step_rk4, "explicit-rk4")) >= 3.8
    assert min(orders(step_imex, "imex-be")) >= 0.9

    # (d) analytic relaxation: u = 0 invariant when w = v + Je and
    # ue = -(alpha + Je)/q, giving v(t) = alpha + (v0 - alpha) e^{-t}
    p = Parameters(r=1.0, ue=-2.0, P=0.0, Q=0.0)
    v0 = 0.25
    x = np.zeros((1, 2, 4) + g.shape)
    x[:, :, 1] = v0
    x[:, :, 2] = v0 + p.Je
    strengths = replicate_coupling([p], g, 1e-3, "explicit-rk4")
    for _ in range(1000):
        x = step_rk4(x, p, g, 1e-3, strengths)
    exact = p.alpha + (v0 - p.alpha) * np.exp(-1.0)
    assert np.max(np.abs(x[0, 0, 1] - exact)) <= 1e-10


# --------------------------------------------------------------------------
# criterion 7: determinism and neuron-permutation equivariance
# --------------------------------------------------------------------------

def test_criterion_7_determinism_and_equivariance(tmp_path):
    spec = ExperimentSpec(
        parameters=Parameters(P=2.0, Q=2.0),
        grid=Grid((64,), (1.0,)),
        integrator=IntegratorConfig(scheme="imex-be", dt=1e-3, t_end=2.0,
                                observe_every=100),
        initial=InitialCondition(smoothing_passes=2),
        seed=9,
        output_dir=str(tmp_path / "a"),
    )
    import dataclasses
    a = run_experiment(spec)
    b = run_experiment(dataclasses.replace(spec, output_dir=str(tmp_path / "b")))
    assert a.timeseries_path.read_bytes() == b.timeseries_path.read_bytes()

    g = Grid((64,), (1.0,))
    p = Parameters(P=2.0, Q=2.0, m=3)
    cfg = IntegratorConfig(scheme="imex-be", dt=1e-3, t_end=5.0, observe_every=100)
    net = _smooth_net(g, 3, seed=10)
    perm = [2, 0, 1]
    pnet = net[:, perm]

    samples, psamples = [], []
    for start, seen in ((net, samples), (pnet, psamples)):
        final, errors = integrate(start, [p], g, cfg,
                                  lambda t, x, live: seen.append(x[0].copy()))
        assert errors == [None] and final.shape == start.shape
    assert len(samples) == len(psamples)
    for s, ps in zip(samples, psamples):
        for new_i, old_i in enumerate(perm):
            assert np.max(np.abs(ps[new_i] - s[old_i])) <= 1e-13
