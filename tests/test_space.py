import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.integrate import quad

from analytic_reference import l2_norm_sq
from basis_reference import PRODUCT_SPACES, bin_table, full_table, max_rel
from fixpairs import (
    H1Vector,
    SpaceConfig,
    basis_vector,
    evaluate,
    inner,
)
from fixpairs import space as space_mod
from fixpairs.space import (
    Grid,
    basis_matrix,
    moments,
    panel_analysis,
    panel_phases,
    panel_synthesis,
    profiles,
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


def test_evaluate_matches_a_long_double_sum(rng):
    # evaluate sums the series through einsum, in its own order; the
    # reference sums the same terms in long double, at the size of the CSV
    # profiles of a 1,280-mode problem
    ks = np.arange(1, 1281)
    u = H1Vector(rng.standard_normal(ks.size) / ks)
    ts = np.linspace(0.0, 1.0, 1001)
    terms = np.sin(np.outer(ts, ks) * np.pi) * (np.sqrt(2.0) / (ks * np.pi) * u.coeffs)
    ref = terms.astype(np.longdouble).sum(axis=1)
    got = evaluate(u, ts)
    assert float(np.max(np.abs(got - ref)) / np.max(np.abs(ref))) <= 1e-14
    assert evaluate(u, ts[317]) == pytest.approx(float(ref[317]), rel=1e-13, abs=1e-15)


def test_evaluate_holds_one_points_by_modes_array(rng):
    # the terms are computed in place: a 1,001-point evaluate of 1,280 modes
    # peaks at one 10.25 MB terms array (10.4 MB measured); the bound fails
    # a second temporary of that size (20.5 MB)
    u = H1Vector(rng.standard_normal(1280))
    ts = np.linspace(0.0, 1.0, 1001)
    tracemalloc.start()
    try:
        evaluate(u, ts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * 8 * ts.size * u.n_modes


def test_evaluate_rejects_outside_domain():
    u = basis_vector(1, 4)
    with pytest.raises(ValueError):
        evaluate(u, -0.1)
    with pytest.raises(ValueError):
        evaluate(u, 1.1)


def test_l2_norm_closed_forms():
    assert l2_norm_sq(basis_vector(1, 8)) == pytest.approx(1.0 / np.pi**2, rel=1e-14)
    assert l2_norm_sq(basis_vector(2, 8)) == pytest.approx(1.0 / (4.0 * np.pi**2), rel=1e-14)
    assert l2_norm_sq(H1Vector(np.zeros(8))) == 0.0


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


def h1_projection(values, cfg):
    """(k pi)^2 int g e_k for B rows of grid values g: the H1_0 projection of g.

    Integration by parts under Dirichlet conditions turns the H1_0 inner
    product with e_k into this L2 moment, so no grid data is differentiated.
    """
    ks = np.arange(1, cfg.n_modes + 1)
    g = Grid(cfg)
    return (ks * np.pi) ** 2 * moments(g.weights * values, g)


def test_project_parabola_matches_sine_series(space32):
    # analytic coefficients of t(1-t): the plain sine series has
    # 8/(k pi)^3 on odd k, so in this basis c_k = 4*sqrt(2)/(k pi)^2
    nodes = Grid(space32).nodes
    c = h1_projection((nodes * (1.0 - nodes))[None, :], space32)[0]
    ks = np.arange(1, 33)
    expected = np.where(ks % 2 == 1, 4.0 * np.sqrt(2.0) / (ks * np.pi) ** 2, 0.0)
    # independent quadrature oracle for the first few coefficients
    for k in (1, 2, 3, 5):
        e_k = lambda t, k=k: np.sqrt(2.0) / (k * np.pi) * np.sin(k * np.pi * t)
        val, _ = quad(lambda t: t * (1.0 - t) * e_k(t), 0.0, 1.0, epsabs=1e-14)
        assert (k * np.pi) ** 2 * val == pytest.approx(expected[k - 1], abs=1e-12)
    assert np.max(np.abs(c - expected)) <= 1e-10


@pytest.mark.parametrize("cfg", [SpaceConfig(32, 8, 16), SpaceConfig()])
def test_roundtrip_band_limited(cfg, rng):
    # synthesis, then the H1_0 projection, gives back a band-limited u; 1e-8
    # already holds at the coarsest supported rule (8 nodes, 16 panels)
    c = np.zeros((10, 32))
    c[:, :16] = rng.standard_normal((10, 16))
    back = h1_projection(profiles(c, Grid(cfg)), cfg)
    assert np.max(np.linalg.norm(back - c, axis=1)) <= 1e-8
    # e1 coefficient by coefficient: 1e-10 at the default rule, while the
    # coarse rule aliases it onto e31 at 2.7e-9
    tol = 1e-10 if cfg == SpaceConfig() else 1e-8
    e1 = basis_vector(1, 32).coeffs
    back = h1_projection(profiles(e1[None, :], Grid(cfg)), cfg)[0]
    assert abs(back[0] - 1.0) <= tol
    assert np.max(np.abs(back[1:])) <= tol


@pytest.mark.parametrize("cfg", PRODUCT_SPACES, ids=lambda c: f"{c.n_modes}x{c.quad_nodes * c.n_panels}")
def test_products_match_the_full_table(cfg, rng):
    # the reference products E c and E^T (w g), in grid order, for the
    # package's products, by its table or by the panel transform, of one row
    # and of batches, and the reference table for basis_matrix, the
    # package's table transposed; no other test calls basis_matrix
    full = full_table(cfg)
    g = Grid(cfg)
    assert max_rel(basis_matrix(cfg), full) <= 1e-14
    for rows in (1, 3, 100):
        coeffs = rng.standard_normal((rows, cfg.n_modes)) / np.arange(1, cfg.n_modes + 1)
        assert max_rel(profiles(coeffs, g), coeffs @ full.T) <= 1e-14
        weighted = rng.standard_normal((rows, g.nodes.size)) * g.weights
        assert max_rel(moments(weighted, g), weighted @ full) <= 1e-14


@pytest.mark.parametrize("cfg", [SpaceConfig(32, 8, 32), SpaceConfig(256, 8, 256)], ids=["32", "256"])
def test_table_batches_flip_sign_with_their_input(cfg, rng):
    # a 100-row batch through the table (256 modes on 2,048 nodes: 4 MiB,
    # the largest table grid); every rounding in it flips sign with its
    # input, which the bvp operator's oddness check (odd_at) relies on
    assert not space_mod._table_free(cfg)
    coeffs = rng.standard_normal((100, cfg.n_modes)) / np.arange(1, cfg.n_modes + 1)
    g = Grid(cfg)
    values = profiles(coeffs, g)
    assert np.array_equal(profiles(-coeffs, g), -values)
    assert np.array_equal(moments(-values, g), -moments(values, g))


PANEL_SPACES = [
    SpaceConfig(1, 2, 1),  # one mode
    SpaceConfig(2, 3, 1),  # two modes; 3 nodes, a middle node
    SpaceConfig(2, 4, 3),  # two modes; 12 nodes, none in the middle
    SpaceConfig(8, 3, 5),  # 15 nodes, a middle node
    SpaceConfig(32, 8, 32),
    # n_modes above 2 n_panels: the bins fold modulo 2 n_panels
    SpaceConfig(12, 4, 2),
    SpaceConfig(40, 3, 5),
]


@pytest.mark.parametrize("cfg", PANEL_SPACES, ids=lambda c: f"{c.n_modes}x{c.quad_nodes}x{c.n_panels}")
def test_panel_transform_matches_the_full_table(cfg, rng):
    # the transform by itself, not through the row and size switch of
    # profiles and moments: its sine sums against the full table, and every
    # bin's sine and cosine sums against the closed form on every node
    n = cfg.n_modes
    full = full_table(cfg)
    nodes = Grid(cfg).nodes
    scales = np.sqrt(2.0) / (np.arange(1, n + 1) * np.pi)
    values = rng.standard_normal((3, nodes.size))
    coeffs = rng.standard_normal((3, n))
    amplitudes = np.zeros((3, n + 1))
    amplitudes[:, 1:] = coeffs * scales
    phases = panel_phases(cfg, n + 1)
    analysed = panel_analysis(values, cfg, phases)
    synthesized = panel_synthesis(amplitudes, cfg, phases)
    assert analysed.dtype == synthesized.dtype == np.float64
    assert max_rel(analysed[:, 1:] * scales, values @ full) <= 1e-13
    assert max_rel(synthesized, coeffs @ full.T) <= 1e-13
    # a count above 2 n_panels folds the bins
    count = 2 * n + 1
    cosines, sines = bin_table(cfg, count)
    wide = panel_phases(cfg, count)
    assert max_rel(panel_analysis(values, cfg, wide), values @ sines) <= 1e-13
    assert max_rel(panel_analysis(values, cfg, wide, cosine=True), values @ cosines) <= 1e-13
    wide_amplitudes = rng.standard_normal((3, count))
    assert max_rel(panel_synthesis(wide_amplitudes, cfg, wide), wide_amplitudes @ sines.T) <= 1e-13
    # T(-x) == -T(x) bit for bit, both ways
    assert np.array_equal(panel_analysis(-values, cfg, phases), -analysed)
    assert np.array_equal(panel_synthesis(-amplitudes, cfg, phases), -synthesized)
    for cosine in (False, True):
        assert np.array_equal(
            panel_analysis(-values, cfg, wide, cosine=cosine), -panel_analysis(values, cfg, wide, cosine=cosine)
        )


# (quad_nodes, n_panels, counts): for each grid a count up to P + 1, one
# from P + 2 to 2P where that range is not empty, and one above 2P, whose
# bins fold.  An odd quad_nodes (3, 5, 15) has a middle line, its own
# mirror; with an odd n_panels too (9, 15, 5, 3 and 15 nodes) a node sits
# at t = 1/2.  One panel and two nodes a panel are the smallest grids
_BIN_CASES = [
    (4, 3, (3, 4, 5, 7, 8, 11)),
    (3, 3, (2, 4, 6, 13)),
    (3, 5, (6, 9, 10, 23)),
    (5, 1, (2, 3, 5)),
    (8, 16, (17, 25, 32, 70)),
    (2, 1, (2, 3, 5)),
    (2, 4, (3, 5, 8, 11)),
    (3, 1, (2, 3, 4)),
    (15, 1, (2, 3, 7)),
    (15, 2, (3, 4, 9)),
]


@pytest.mark.parametrize(
    "quad_nodes, n_panels, count",
    [(q, p, c) for q, p, counts in _BIN_CASES for c in counts],
    ids=lambda v: str(v),
)
def test_panel_transform_reads_every_bin_range(quad_nodes, n_panels, count, rng):
    # bins j <= P come from the conjugated real FFT, P < j < 2P from its
    # reversed view and j >= 2P fold; every amplitude is non-zero, the j = 0
    # one and the j = P one included, where the synthesis's inverse real FFT
    # reads real parts only.  Each FFT serves a Gauss line and its mirror
    cfg = SpaceConfig(1, quad_nodes, n_panels)
    nodes = Grid(cfg).nodes
    cosines, sines = bin_table(cfg, count)
    phases = panel_phases(cfg, count)
    values = rng.standard_normal((4, nodes.size))
    amplitudes = rng.standard_normal((4, count)) + 2.0
    synthesized = panel_synthesis(amplitudes, cfg, phases)
    assert synthesized.shape == (4, nodes.size) and synthesized.dtype == np.float64
    assert max_rel(synthesized, amplitudes @ sines.T) <= 1e-13
    # T(-x) == -T(x) bit for bit, both ways
    assert np.array_equal(panel_synthesis(-amplitudes, cfg, phases), -synthesized)
    # a row of a batch is its one-row product bit for bit
    for i in range(4):
        assert np.array_equal(panel_synthesis(amplitudes[i : i + 1], cfg, phases)[0], synthesized[i])
    for cosine, reference in ((False, sines), (True, cosines)):
        analysed = panel_analysis(values, cfg, phases, cosine=cosine)
        assert analysed.shape == (4, count) and analysed.dtype == np.float64
        assert max_rel(analysed, values @ reference) <= 1e-13
        assert np.array_equal(panel_analysis(-values, cfg, phases, cosine=cosine), -analysed)
        for i in range(4):
            assert np.array_equal(panel_analysis(values[i : i + 1], cfg, phases, cosine=cosine)[0], analysed[i])


@pytest.mark.parametrize(
    "cfg",
    [SpaceConfig(1, 2, 1), SpaceConfig(4, 3, 5), SpaceConfig(12, 5, 2), SpaceConfig(40, 15, 4), SpaceConfig(1280, 8, 1024)],
    ids=lambda c: f"{c.n_modes}x{c.quad_nodes}x{c.n_panels}",
)
def test_a_product_transforms_half_the_gauss_lines(monkeypatch, cfg, rng):
    # one real FFT of length 2P serves a Gauss line and its mirror: a
    # product of B rows makes one FFT call, on B ceil(quad_nodes / 2)
    # lines, each way
    lines = {}
    for name in ("rfft", "irfft"):

        def counted(a, *args, _name=name, _original=getattr(np.fft, name), **kwargs):
            out = _original(a, *args, **kwargs)
            lines.setdefault(_name, []).append((out if _name == "irfft" else a).shape)
            return out

        monkeypatch.setattr(np.fft, name, counted)
    paired = (cfg.quad_nodes + 1) // 2
    phases = panel_phases(cfg, cfg.n_modes + 1)
    n_nodes = cfg.quad_nodes * cfg.n_panels
    for rows in (1, 3):
        lines.clear()
        panel_synthesis(rng.standard_normal((rows, cfg.n_modes + 1)), cfg, phases)
        panel_analysis(rng.standard_normal((rows, n_nodes)), cfg, phases)
        panel_analysis(rng.standard_normal((rows, n_nodes)), cfg, phases, cosine=True)
        assert lines == {
            "irfft": [(rows, paired, 2 * cfg.n_panels)],
            "rfft": [(rows, paired, 2 * cfg.n_panels)] * 2,
        }
    if space_mod._table_free(cfg):  # and so through profiles and moments
        lines.clear()
        g = Grid(cfg)
        moments(profiles(rng.standard_normal((3, cfg.n_modes)), g), g)
        assert lines == {"irfft": [(3, paired, 2 * cfg.n_panels)], "rfft": [(3, paired, 2 * cfg.n_panels)]}


def test_a_batch_row_is_its_one_row_product_on_a_table_free_grid(monkeypatch, rng):
    # 1,280 modes on 8,192 nodes: every product takes the transform, and a
    # row of a 48-row batch equals its one-row product bit for bit both ways,
    # so that the bvp operator's apply_coeffs and apply_batch agree
    cfg = SpaceConfig(1280, 8, 1024)

    def table(*args):
        raise _TableRead

    monkeypatch.setattr(space_mod.Grid, "table", property(table))
    g = Grid(cfg)
    coeffs = rng.standard_normal((48, cfg.n_modes)) / np.arange(1, cfg.n_modes + 1)
    values = profiles(coeffs, g)
    analysed = moments(values, g)
    for i in (0, 17, 47):
        assert np.array_equal(profiles(coeffs[i : i + 1], g), values[i : i + 1])
        assert np.array_equal(moments(values[i : i + 1], g)[0], analysed[i])
    assert np.array_equal(profiles(-coeffs, g), -values)


class _TableRead(Exception):
    pass


@pytest.mark.parametrize(
    "cfg, by_transform",
    [
        (SpaceConfig(32, 8, 32), False),
        (SpaceConfig(256, 8, 256), False),
        (SpaceConfig(257, 8, 256), True),
        (SpaceConfig(960, 8, 768), True),
        (SpaceConfig(1280, 8, 1024), True),
    ],
    ids=["32", "256", "257", "960", "1280"],
)
def test_one_row_products_switch_at_the_crossover(monkeypatch, cfg, by_transform, rng):
    # every product, one row or a batch, takes the panel transform when the
    # table is above 4 MiB (256 modes on 2,048 nodes: 4 MiB exactly, 257:
    # one mode more), so such a grid never builds the table.  A read of the
    # table stops the product, so no table is built here
    def table(*args):
        raise _TableRead

    taken = []
    monkeypatch.setattr(space_mod.Grid, "table", property(table))
    for name in ("panel_analysis", "panel_synthesis"):

        def recorded(*args, _name=name, _original=getattr(space_mod, name)):
            taken.append(_name)
            return _original(*args)

        monkeypatch.setattr(space_mod, name, recorded)
    coeffs = rng.standard_normal((12, cfg.n_modes))
    values = rng.standard_normal((12, cfg.quad_nodes * cfg.n_panels))
    g = Grid(cfg)
    for rows in (1, 2, 12):
        for product, x, name in (
            (profiles, coeffs[:rows], "panel_synthesis"),
            (moments, values[:rows], "panel_analysis"),
        ):
            taken.clear()
            try:
                product(x, g)
                route = taken
            except _TableRead:
                route = "table"
            assert route == ([name] if by_transform else "table")


def test_sup_norm_bound(space32):
    # the sharp H1_0(0,1) embedding |u(t)| <= sqrt(t (1 - t)) ||u|| <= ||u|| / 2;
    # e1 peaks at sqrt(2) / pi, at t = 1/2
    e1 = basis_vector(1, 32)
    ts = np.linspace(0.0, 1.0, 2001)
    sampled_max = np.max(np.abs(evaluate(e1, ts)))
    assert sampled_max == pytest.approx(np.sqrt(2.0) / np.pi, abs=1e-6)
    assert sampled_max <= 0.5 * e1.norm()
    assert np.max(np.abs(evaluate(H1Vector(np.zeros(4)), ts))) == 0.0
    r = 3.7
    u = r * e1
    assert u.norm() == pytest.approx(r)
    assert np.max(np.abs(evaluate(u, ts))) <= 0.5 * r


@given(coeff_arrays())
def test_sup_norm_bound_dominates_samples(c):
    u = H1Vector(c)
    ts = np.linspace(0.0, 1.0, 257)
    assert np.max(np.abs(evaluate(u, ts))) <= 0.5 * u.norm() + 1e-12


@pytest.mark.parametrize("n_panels", [1, 3, 5])
def test_the_grid_weights_sum_to_one(n_panels):
    # an odd node count, with a node at t = 1/2; the table holds every node,
    # a row a mode
    g = Grid(SpaceConfig(n_modes=4, quad_nodes=3, n_panels=n_panels))
    assert abs(g.nodes[g.nodes.size // 2] - 0.5) <= 1e-15
    assert abs(g.weights.sum() - 1.0) <= 1e-15
    assert g.table.shape == (4, g.nodes.size) and g.table.flags.c_contiguous


def test_grid_sample_invariants(space32):
    nodes, weights = Grid(space32).nodes, Grid(space32).weights
    assert abs(weights.sum() - 1.0) <= 1e-14
    assert np.all(np.diff(nodes) > 0)
    assert nodes[0] > 0.0 and nodes[-1] < 1.0


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
