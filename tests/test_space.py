import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.integrate import quad

from fixpairs import (
    GridSample,
    H1Vector,
    SpaceConfig,
    basis_vector,
    evaluate,
    inner,
    l2_norm_sq,
    project,
    sup_norm_bound,
    zero_vector,
)
from fixpairs import space as space_mod
from fixpairs.space import (
    basis_matrix,
    folded_grid,
    moments,
    profiles,
    quadrature_grid,
    sample_function,
    sample_vector,
)


def coeff_arrays(n=16, bound=10.0):
    return hnp.arrays(
        np.float64,
        n,
        elements=st.floats(-bound, bound, allow_nan=False, allow_infinity=False),
    )


def test_basis_orthonormality_exact():
    n = 8
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            val = inner(basis_vector(i, n), basis_vector(j, n))
            assert val == (1.0 if i == j else 0.0)


def test_inner_pythagoras():
    u = H1Vector(3.0 * basis_vector(1, 4).coeffs + 4.0 * basis_vector(2, 4).coeffs)
    assert inner(u, u) == 25.0


def test_inner_dimension_mismatch():
    with pytest.raises(ValueError):
        inner(basis_vector(1, 3), basis_vector(1, 4))


@given(coeff_arrays())
def test_evaluate_boundary_values(c):
    u = H1Vector(c)
    assert evaluate(u, 0.0) == 0.0
    assert abs(evaluate(u, 1.0)) <= 1e-12


def test_evaluate_closed_forms():
    e1 = basis_vector(1, 8)
    assert evaluate(e1, 0.5) == pytest.approx(np.sqrt(2.0) / np.pi, abs=1e-15)
    e2 = basis_vector(2, 8)
    assert abs(evaluate(e2, 0.5)) <= 1e-15


def test_evaluate_rejects_outside_domain():
    u = basis_vector(1, 4)
    with pytest.raises(ValueError):
        evaluate(u, -0.1)
    with pytest.raises(ValueError):
        evaluate(u, 1.1)


def test_l2_norm_closed_forms():
    assert l2_norm_sq(basis_vector(1, 8)) == pytest.approx(1.0 / np.pi**2, rel=1e-14)
    assert l2_norm_sq(basis_vector(2, 8)) == pytest.approx(1.0 / (4.0 * np.pi**2), rel=1e-14)
    assert l2_norm_sq(zero_vector(8)) == 0.0


@given(coeff_arrays())
def test_poincare_inequality(c):
    u = H1Vector(c)
    assert l2_norm_sq(u) <= inner(u, u) / np.pi**2 + 1e-12


def test_poincare_inequality_bulk(rng):
    # 10^3 random vectors at once
    cs = rng.standard_normal((1000, 32)) * 5.0
    ks = np.arange(1, 33)
    l2 = np.sum((cs / (ks * np.pi)) ** 2, axis=1)
    h1 = np.sum(cs**2, axis=1)
    assert np.all(l2 <= h1 / np.pi**2 + 1e-12)


def test_project_reproduces_basis(space32):
    sample = sample_vector(basis_vector(1, 32), space32)
    c = project(sample, space32).coeffs
    assert abs(c[0] - 1.0) <= 1e-10
    assert np.max(np.abs(c[1:])) <= 1e-10


def test_project_zero(space32):
    nodes, weights = quadrature_grid(space32)
    sample = GridSample(nodes=nodes, weights=weights, values=np.zeros_like(nodes))
    assert project(sample, space32).norm() == 0.0


def test_project_parabola_matches_sine_series(space32):
    # analytic coefficients of t(1-t): the plain sine series has
    # 8/(k pi)^3 on odd k, so in this basis c_k = 4*sqrt(2)/(k pi)^2
    sample = sample_function(lambda t: t * (1.0 - t), space32)
    c = project(sample, space32).coeffs
    ks = np.arange(1, 33)
    expected = np.where(ks % 2 == 1, 4.0 * np.sqrt(2.0) / (ks * np.pi) ** 2, 0.0)
    # independent quadrature oracle for the first few coefficients
    for k in (1, 2, 3, 5):
        e_k = lambda t, k=k: np.sqrt(2.0) / (k * np.pi) * np.sin(k * np.pi * t)
        val, _ = quad(lambda t: t * (1.0 - t) * e_k(t), 0.0, 1.0, epsabs=1e-14)
        assert (k * np.pi) ** 2 * val == pytest.approx(expected[k - 1], abs=1e-12)
    assert np.max(np.abs(c - expected)) <= 1e-10


def test_project_grid_mismatch(space32):
    other = SpaceConfig(n_modes=32, quad_nodes=8, n_panels=8)
    sample = sample_function(lambda t: t, other)
    with pytest.raises(ValueError):
        project(sample, space32)


@pytest.mark.parametrize("cfg", [SpaceConfig(32, 8, 16), SpaceConfig()])
def test_roundtrip_band_limited(cfg, rng):
    # 1e-8 already holds at the coarsest supported rule (8 nodes, 16 panels)
    for _ in range(10):
        c = np.zeros(32)
        c[:16] = rng.standard_normal(16)
        u = H1Vector(c)
        back = project(sample_vector(u, cfg), cfg)
        assert (back - u).norm() <= 1e-8


def full_table(cfg):
    """The basis tabulated on every grid node, without the fold."""
    nodes, _ = quadrature_grid(cfg)
    ks = np.arange(1, cfg.n_modes + 1)
    return np.sqrt(2.0) * np.sin(np.outer(nodes, ks) * np.pi) / (ks * np.pi)


def fold(values):
    """Grid values (..., N) as (2, ..., half): the left half and the mirrors."""
    m = (values.shape[-1] + 1) // 2
    return np.stack([values[..., :m], values[..., ::-1][..., :m]])


def max_rel(got, ref):
    return float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))


FOLD_SPACES = [
    SpaceConfig(32, 8, 32),
    SpaceConfig(320, 8, 256),
    SpaceConfig(1280, 8, 1024),
    # odd node counts: a middle node at t = 1/2, mirrored onto itself
    SpaceConfig(8, 3, 1),
    SpaceConfig(8, 3, 3),
    SpaceConfig(8, 3, 5),
]


@pytest.mark.parametrize("cfg", FOLD_SPACES, ids=lambda c: f"{c.n_modes}x{c.quad_nodes * c.n_panels}")
def test_folded_products_match_the_full_table(cfg, rng):
    # the full-table products E c and E^T (w g) are the reference for the
    # half-table products, the full view basis_matrix for the table itself
    full = full_table(cfg)
    nodes, weights = quadrature_grid(cfg)
    try:
        assert max_rel(basis_matrix(cfg), full) <= 1e-14
        coeffs = rng.standard_normal((3, cfg.n_modes)) / np.arange(1, cfg.n_modes + 1)
        assert max_rel(profiles(coeffs, cfg), fold(coeffs @ full.T)) <= 1e-14
        values = rng.standard_normal((3, nodes.size))
        folded_nodes, folded_weights = folded_grid(cfg)
        weighted = folded_weights[:, None, :] * fold(values)
        assert max_rel(moments(weighted, cfg), (values * weights) @ full) <= 1e-14
        u = H1Vector(coeffs[0])
        assert max_rel(sample_vector(u, cfg).values, full @ u.coeffs) <= 1e-14
        # project scales moment k by (k pi)^2, which would amplify the
        # rounding of the high moments alike with either table
        sample = GridSample(nodes=nodes, weights=weights, values=values[0])
        ks = np.arange(1, cfg.n_modes + 1)
        projected = project(sample, cfg).coeffs / (ks * np.pi) ** 2
        assert max_rel(projected, (weights * values[0]) @ full) <= 1e-14
    finally:
        if cfg.n_modes == 1280:
            space_mod._half_basis.cache_clear()


@pytest.mark.parametrize("n_panels", [1, 3, 5])
def test_folded_grid_splits_the_middle_node(n_panels):
    cfg = SpaceConfig(n_modes=4, quad_nodes=3, n_panels=n_panels)
    nodes, weights = quadrature_grid(cfg)
    folded_nodes, folded_weights = folded_grid(cfg)
    half = (nodes.size + 1) // 2
    assert folded_nodes.shape == folded_weights.shape == (2, half)
    assert np.array_equal(folded_nodes, fold(nodes))
    # the middle node ends both rows, with half its weight in each
    mid = nodes.size // 2
    assert folded_nodes[0, -1] == folded_nodes[1, -1] == nodes[mid]
    assert abs(nodes[mid] - 0.5) <= 1e-15
    assert folded_weights[0, -1] == folded_weights[1, -1] == 0.5 * weights[mid]
    assert np.array_equal(folded_weights[:, :-1], fold(weights)[:, :-1])
    assert abs(folded_weights.sum() - 1.0) <= 1e-15
    assert space_mod._half_basis(4, 3, n_panels).shape == (half, 4)


def test_sup_norm_bound(space32):
    e1 = basis_vector(1, 32)
    ts = np.linspace(0.0, 1.0, 2001)
    sampled_max = np.max(np.abs(evaluate(e1, ts)))
    assert sampled_max == pytest.approx(np.sqrt(2.0) / np.pi, abs=1e-6)
    assert sampled_max <= sup_norm_bound(e1) == 1.0
    assert sup_norm_bound(zero_vector(4)) == 0.0
    r = 3.7
    u = r * e1
    assert sup_norm_bound(u) == pytest.approx(r)
    assert np.max(np.abs(evaluate(u, ts))) <= r


@given(coeff_arrays())
def test_sup_norm_bound_dominates_samples(c):
    u = H1Vector(c)
    ts = np.linspace(0.0, 1.0, 257)
    assert np.max(np.abs(evaluate(u, ts))) <= sup_norm_bound(u) + 1e-12


def test_grid_sample_invariants(space32):
    nodes, weights = quadrature_grid(space32)
    assert abs(weights.sum() - 1.0) <= 1e-14
    assert np.all(np.diff(nodes) > 0)
    assert nodes[0] > 0.0 and nodes[-1] < 1.0
    with pytest.raises(ValueError):
        GridSample(nodes=nodes, weights=-weights, values=np.zeros_like(nodes))
    with pytest.raises(ValueError):
        GridSample(nodes=nodes[::-1], weights=weights, values=np.zeros_like(nodes))


def test_space_config_validation():
    with pytest.raises(ValueError):
        SpaceConfig(n_modes=0)
    with pytest.raises(ValueError):
        SpaceConfig(quad_nodes=1)
    with pytest.raises(ValueError):
        SpaceConfig(n_panels=0)


def test_h1vector_validation():
    with pytest.raises(ValueError):
        H1Vector(np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        H1Vector(np.array([[1.0, 2.0]]))
    u = basis_vector(1, 3)
    with pytest.raises(ValueError):
        u.coeffs[0] = 2.0  # read-only storage
