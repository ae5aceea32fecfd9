import math

import numpy as np
import pytest

from mhrnet.grid import (
    Grid,
    InvalidFieldError,
    energy_functional,
    laplacian_neumann,
    norm_l2,
    norm_l4,
    seminorm_h1,
    smooth_field,
    uniform,
)


def unit_grid(n=64, dim=1):
    return Grid((n,) * dim, (1.0,) * dim)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid((1,), (1.0,))
    with pytest.raises(ValueError):
        Grid((8, 8, 8), (1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        Grid((8,), (-1.0,))
    with pytest.raises(ValueError):
        Grid((8, 8), (1.0,))
    for cells in ((8.5,), (float("inf"),), (True,), ("8",)):
        with pytest.raises(ValueError, match="grid.cells"):
            Grid(cells, (1.0,))
    for extents in (("2",), (True,), (np.True_,), (float("nan"),), (1.0, "2")):
        with pytest.raises(ValueError, match="grid.extents"):
            Grid((8,) * len(extents), extents)


def test_grid_geometry():
    g = Grid((10, 20), (2.0, 1.0))
    assert g.dim == 2
    assert g.spacing == (0.2, 0.05)
    assert g.measure == pytest.approx(2.0)
    assert g.cell_volume == pytest.approx(0.01)
    # fixed when the grid is built, not recomputed on each read
    assert g.spacing is g.spacing
    assert g.cell_volume == float(np.prod(g.spacing))
    assert isinstance(g.cell_volume, float)


def padded_laplacian(f, g):
    """The Laplacian written with np.pad(mode="edge") ghost cells."""
    lead = f.ndim - g.dim
    out = np.zeros_like(f)
    for k, h in enumerate(g.spacing):
        axis = lead + k
        pad = [(1, 1) if a == axis else (0, 0) for a in range(f.ndim)]
        p = np.pad(f, pad, mode="edge")
        lo = [slice(None)] * f.ndim
        lo[axis] = slice(0, -2)
        hi = [slice(None)] * f.ndim
        hi[axis] = slice(2, None)
        out += (p[tuple(lo)] - 2.0 * f + p[tuple(hi)]) / (h * h)
    return out


@pytest.mark.parametrize("cells,lead", [
    ((64,), ()), ((2,), ()), ((32, 24), ()), ((64,), (3, 2)), ((32, 24), (3, 2)),
])
def test_laplacian_bitwise_equals_padded_formula(cells, lead):
    g = Grid(cells, tuple(0.5 + k for k in range(len(cells))))
    f = np.random.default_rng(11).normal(size=lead + cells)
    f.flat[::5] = 0.0
    f.flat[1::7] = -0.0
    out = laplacian_neumann(f, g)
    assert np.array_equal(out.view(np.int64), padded_laplacian(f, g).view(np.int64))


def test_laplacian_constant_is_zero():
    g = unit_grid()
    out = laplacian_neumann(np.full(g.shape, 3.7), g)
    assert np.all(out == 0.0)


def test_laplacian_sum_telescopes_to_zero():
    g = unit_grid(48)
    rng = np.random.default_rng(0)
    f = rng.normal(size=g.shape)
    total = np.sum(laplacian_neumann(f, g))
    # interior fluxes cancel pairwise, boundary fluxes are zero
    assert abs(total) < 1e-9 * np.max(np.abs(f)) / min(g.spacing) ** 2


@pytest.mark.parametrize("dim", [1, 2])
def test_laplacian_cosine_eigenfunction(dim):
    errs = []
    for n in (32, 64):
        g = unit_grid(n, dim)
        x = g.coordinates()[0]
        f = np.cos(np.pi * x) * np.ones(g.shape)
        err = np.max(np.abs(laplacian_neumann(f, g) + np.pi ** 2 * f))
        errs.append(err)
    assert errs[0] < 0.01
    assert 3.5 < errs[0] / errs[1] < 4.5


def test_laplacian_linearity():
    g = unit_grid(32)
    rng = np.random.default_rng(1)
    f, h = rng.normal(size=g.shape), rng.normal(size=g.shape)
    lhs = laplacian_neumann(2.5 * f - 1.5 * h, g)
    rhs = 2.5 * laplacian_neumann(f, g) - 1.5 * laplacian_neumann(h, g)
    assert np.allclose(lhs, rhs, atol=1e-9 / min(g.spacing) ** 2)


def test_laplacian_shape_mismatch():
    g = unit_grid(32)
    with pytest.raises(InvalidFieldError):
        laplacian_neumann(np.zeros(33), g)


def test_norms_on_unit_constant():
    g = unit_grid()
    ones = np.ones(g.shape)
    assert norm_l2(ones, g) == pytest.approx(1.0)
    assert norm_l4(ones, g) == pytest.approx(1.0)
    assert seminorm_h1(ones, g) == 0.0
    zeros = np.zeros(g.shape)
    assert norm_l2(zeros, g) == 0.0
    assert norm_l4(zeros, g) == 0.0


def test_norm_l2_linear_field():
    # integral of x^2 on [0, 1] is 1/3
    g = unit_grid(256)
    x = g.coordinates()[0]
    assert abs(norm_l2(x, g) - 1.0 / np.sqrt(3.0)) < 1e-4


def test_norm_homogeneity_and_positivity():
    g = unit_grid(32)
    rng = np.random.default_rng(2)
    f = rng.normal(size=g.shape)
    s = 3.7
    assert norm_l2(s * f, g) == pytest.approx(s * norm_l2(f, g))
    assert norm_l4(s * f, g) == pytest.approx(s * norm_l4(f, g))
    assert seminorm_h1(s * f, g) == pytest.approx(s * seminorm_h1(f, g))
    assert norm_l2(f, g) > 0


def test_quadrature_second_order_convergence():
    exact = np.sqrt(0.5 - np.sin(2.0) / 4.0)  # L2 norm of sin(x) on [0, 1]
    errs = []
    for n in (64, 128):
        g = unit_grid(n)
        x = g.coordinates()[0]
        errs.append(abs(norm_l2(np.sin(x), g) - exact))
    assert 3.0 < errs[0] / errs[1] < 5.0


@pytest.mark.parametrize("dim", [1, 2])
def test_stacked_fields_match_single_fields(dim):
    # leading axes index independent fields, each computed as if alone
    g = unit_grid(16, dim)
    f = np.random.default_rng(4).normal(size=(3, 4) + g.shape)
    lap, l2, l4, h1 = (laplacian_neumann(f, g), norm_l2(f, g), norm_l4(f, g),
                       seminorm_h1(f, g))
    assert l2.shape == l4.shape == h1.shape == (3, 4)
    for i in range(3):
        for k in range(4):
            assert np.array_equal(lap[i, k], laplacian_neumann(f[i, k], g))
            assert l2[i, k] == norm_l2(f[i, k], g)
            assert l4[i, k] == norm_l4(f[i, k], g)
            assert h1[i, k] == seminorm_h1(f[i, k], g)


def sum_formula_l2(f, g):
    """norm_l2 written with np.sum over each field's cells as one flat row."""
    flat = (f * f).reshape(f.shape[:f.ndim - g.dim] + (-1,))
    return np.sqrt(np.sum(flat, axis=-1) * g.cell_volume)


@pytest.mark.parametrize("cells,lead", [
    ((64,), ()), ((32, 24), ()), ((64,), (3, 4)), ((32, 24), (3, 4)),
])
def test_norm_l2_bitwise_equals_sum_formula(cells, lead):
    g = Grid(cells, tuple(0.5 + k for k in range(len(cells))))
    f = np.random.default_rng(12).uniform(-2.0, 2.0, size=lead + cells)
    assert np.array_equal(norm_l2(f, g), sum_formula_l2(f, g))


@pytest.mark.parametrize("cells", [(64,), (32, 24)])
def test_norm_l4_bitwise_equals_product_formula(cells):
    # (f*f)*(f*f), not f**4: numpy's pow takes a scalar libm path for
    # negative bases whose last bit depends on the SIMD level
    g = Grid(cells, (1.5,) * len(cells))
    f = np.random.default_rng(13).uniform(-2.0, 2.0, size=(16,) + cells)
    stacked = norm_l4(f, g)
    for k in range(16):
        want = (np.sum((f[k] * f[k]) * (f[k] * f[k])) * g.cell_volume) ** 0.25
        assert norm_l4(f[k], g) == want
        assert stacked[k] == want


def make_state(g, m, value=1.0):
    """A batch of one (1, m, 4, *cells) holding value everywhere."""
    return np.full((1, m, 4) + g.shape, value)


def test_quasi_norm_examples():
    # the quasi-norm is the energy functional with c1 = 1
    g = unit_grid()
    assert energy_functional(make_state(g, 2, 0.0), g) == [0.0]
    assert energy_functional(make_state(g, 2, 1.0), g) == pytest.approx([8.0])


def test_quasi_norm_rho_quartic_scaling():
    g = unit_grid()
    base = make_state(g, 1, 0.0)
    base[0, 0, 3] = 1.0
    scaled = base.copy()
    scaled[0, 0, 3] *= 3.0
    assert energy_functional(scaled, g) == pytest.approx(81.0 * energy_functional(base, g))


def test_energy_functional():
    g = unit_grid()
    x = make_state(g, 2, 0.7)
    assert energy_functional(x, g, 1.0) == pytest.approx([2.0 * (3.0 * 0.7 ** 2 + 0.7 ** 4)])
    assert energy_functional(make_state(g, 2, 0.0), g, 5.0) == [0.0]
    x1 = make_state(g, 1, 0.0)
    x1[0, 0, 0] = 1.0
    assert energy_functional(x1, g, 5.0) == pytest.approx([5.0])
    with pytest.raises(ValueError):
        energy_functional(x, g, 0.0)
    with pytest.raises(ValueError):
        energy_functional(np.concatenate([x, x]), g, [1.0, -1.0])
    # one state without its batch axis is refused, not misread
    with pytest.raises(InvalidFieldError):
        energy_functional(x[0], g)


@pytest.mark.parametrize("m", [8, 17])
def test_energy_functional_exactly_permutation_invariant(m):
    g = Grid((12, 10), (1.0, 0.5))
    rng = np.random.default_rng(m)
    x = rng.uniform(-2.0, 2.0, size=(1, m, 4) + g.shape)
    for perm in [rng.permutation(m) for _ in range(4)] + [np.arange(m)[::-1]]:
        for c1 in (1.0, 5.0):
            assert energy_functional(x[:, perm], g, c1) == energy_functional(x, g, c1)


@pytest.mark.parametrize("cells", [(64,), (12, 10)])
def test_energy_functional_bitwise_equals_fsum_formula(cells):
    g = Grid(cells, (1.5,) * len(cells))
    x = np.random.default_rng(5).uniform(-2.0, 2.0, size=(3, 4) + cells)
    terms = []
    for u, v, w, rho in x:
        terms += [np.sum(u * u) * g.cell_volume * 5.0, np.sum(v * v) * g.cell_volume,
                  np.sum(w * w) * g.cell_volume,
                  np.sum((rho * rho) * (rho * rho)) * g.cell_volume]
    assert energy_functional(x[None], g, 5.0) == [math.fsum(terms)]


@pytest.mark.parametrize("cells", [(16,), (6, 5)])
def test_energy_functional_row_equals_batch_of_one(cells):
    # three replicates, each with its own c1: each value is bitwise the
    # value of its replicate alone
    g = Grid(cells, (1.0,) * len(cells))
    x = np.random.default_rng(9).uniform(-1.0, 1.0, size=(3, 3, 4) + cells)
    c1 = [0.5, 2.0, 7.25]
    out = energy_functional(x, g, c1)
    assert out.shape == (3,)
    for b in range(3):
        alone = energy_functional(x[b:b + 1], g, c1[b])
        assert np.array_equal(out[b:b + 1].view(np.int64), alone.view(np.int64))


def test_smoothing_reduces_h1_monotonically():
    g = unit_grid(64)
    rng = np.random.default_rng(3)
    f = rng.uniform(-1, 1, size=g.shape)
    norms = [seminorm_h1(f, g)]
    for _ in range(4):
        f = smooth_field(f, g, 1)
        norms.append(seminorm_h1(f, g))
    assert all(b < a for a, b in zip(norms, norms[1:]))


def test_uniform_key_zero_is_reference_splitmix64():
    # the empty key is state 0, whose first outputs are the published
    # SplitMix64 sequence; over [0, 2**53) a sample is its top 53 bits
    x = uniform((), 0.0, 2.0 ** 53, (3,))
    assert x.tolist() == [z >> 11 for z in (
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)]


def test_uniform_known_answer():
    # the first samples of the stream (seed 1, neuron 0, component u): an
    # edit that moves them moves every seeded run
    assert uniform((1, 0, 0), -1.0, 1.0, (3,)).tolist() == [
        0.7695796330698264, -0.19366524200780155, 0.6765298431623388]


@pytest.mark.parametrize("lo, hi", [(-1.0, 1.0), (-5.0, 5.0), (0.25, 0.5), (-3.0, -2.0)])
def test_uniform_values_in_box(lo, hi):
    x = uniform((7, 2), lo, hi, (64, 48))
    assert x.shape == (64, 48) and x.dtype == np.float64
    assert lo <= x.min() and x.max() < hi


def test_uniform_degenerate_box_is_lo():
    assert np.all(uniform((3, 1, 2), 0.3, 0.3, (17,)) == 0.3)


def test_uniform_repeatable_and_keyed():
    a = uniform((9, 1, 2), -1.0, 1.0, (40,))
    assert np.array_equal(a, uniform((9, 1, 2), -1.0, 1.0, (40,)))
    # a sample does not depend on how many are drawn or on the shape
    assert np.array_equal(a[:10], uniform((9, 1, 2), -1.0, 1.0, (10,)))
    assert np.array_equal(a, uniform((9, 1, 2), -1.0, 1.0, (5, 8)).ravel())
    for key in ((9, 1, 3), (9, 2, 2), (10, 1, 2), (9, 1), (9, 1, 2, 0)):
        assert not np.array_equal(a, uniform(key, -1.0, 1.0, (40,)))


def test_uniform_mean_near_half():
    n = 1 << 16
    mean = uniform((3,), 0.0, 1.0, (n,)).mean()
    assert abs(mean - 0.5) < 4.0 / math.sqrt(12.0 * n)
