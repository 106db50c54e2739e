import json
import math
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from basis_reference import PRODUCT_SPACES, full_table
from fixpairs import (
    H1Vector,
    LinearOperatorSpec,
    OperatorDivergenceError,
    SpaceConfig,
    avez_potential,
    basis_vector,
    check_h2,
    evaluate,
    fd_gradient_check,
    functional_J,
    gradient_J,
    inner,
)
from fixpairs import bvp, cli
from fixpairs import operators as operators_mod
from fixpairs import problems as problems_mod
from fixpairs import space as space_mod
from fixpairs.operators import OddnessError, _oddness_samples
from fixpairs.problems import load_problem
from fixpairs.space import Grid, l2_norm_sq

PROBLEMS = Path(__file__).resolve().parents[1] / "problems"
KY_FAN_L2 = math.sqrt(5.0 / 8.0) / math.pi  # best min |e|_L2 over orthonormal pairs


def test_green_kernel_pointwise():
    assert bvp.green_kernel(0.3, 0.6) == pytest.approx(0.12, abs=1e-15)
    assert bvp.green_kernel(0.5, 0.5) == 0.25
    assert bvp.green_kernel(0.0, 0.7) == 0.0
    assert bvp.green_kernel(0.7, 1.0) == 0.0


def test_green_kernel_symmetric_exactly(rng):
    t = rng.uniform(0.0, 1.0, 200)
    s = rng.uniform(0.0, 1.0, 200)
    assert np.array_equal(bvp.green_kernel(t, s), bvp.green_kernel(s, t))


def test_green_kernel_domain():
    with pytest.raises(ValueError):
        bvp.green_kernel(-0.1, 0.5)
    with pytest.raises(ValueError):
        bvp.green_kernel(0.5, 1.5)


def tabulated_kernel(cfg):
    """G(t_i, t_j) on the quadrature grid."""
    nodes = Grid(cfg).nodes
    return bvp.green_kernel(nodes[:, None], nodes[None, :])


def test_green_operator_invariants(space32):
    kernel = tabulated_kernel(space32)
    assert np.max(np.abs(kernel - kernel.T)) == 0.0
    assert kernel.min() >= 0.0
    assert kernel.max() <= 0.25


def test_green_operator_consistent_with_projection(space32, sublinear_nl, rng):
    # grid route: tabulated kernel times quadrature weights, then the H1_0
    # projection c_k = (k pi)^2 int v e_k through the full table; coefficient
    # route: exact composition of the kernel integral with the projection.
    # They agree to the kernel-kink quadrature error, which shrinks as the
    # panels refine.
    u = H1Vector(rng.standard_normal(32))
    ks = np.arange(1, 33)

    def gap(cfg):
        nodes, weights = Grid(cfg).nodes, Grid(cfg).weights
        vals = sublinear_nl.f(nodes, evaluate(u, nodes))
        grid_values = tabulated_kernel(cfg) @ (weights * vals)
        grid_route = (ks * np.pi) ** 2 * ((weights * grid_values) @ full_table(cfg))
        return np.linalg.norm(grid_route - bvp.bvp_operator(sublinear_nl, cfg).apply(u).coeffs)

    coarse = gap(space32)
    fine = gap(SpaceConfig(32, 8, 64))
    assert coarse <= 1e-3
    assert fine < coarse


def test_apply_a_zero(space32):
    op = bvp.bvp_operator(bvp.zero_nonlinearity(), space32)
    assert op.apply(basis_vector(1, 32)).norm() == 0.0


def test_apply_a_resolves_forcing(space32):
    # -u'' = pi^2 e_1(t) is solved by e_1
    amp = np.pi**2 * np.sqrt(2.0) / np.pi
    nl = bvp.Nonlinearity(
        f=lambda t, u: amp * np.sin(np.pi * t) * np.ones_like(u),
        theta=0.0,
        a1=lambda t: np.ones_like(t),
        a2=lambda t: np.ones_like(t),
        a3=lambda t: np.full_like(t, amp),
        label="forcing",
    )
    out = bvp.bvp_operator(nl, space32, odd=False).apply(H1Vector(np.zeros(32)))
    assert (out - basis_vector(1, 32)).norm() <= 1e-10


def test_apply_a_linear_eigenrelation(space32):
    nl = bvp.linear_nonlinearity(5.0)
    out = bvp.bvp_operator(nl, space32).apply(basis_vector(1, 32))
    assert out.coeffs[0] == pytest.approx(5.0 / np.pi**2, rel=1e-12)
    assert np.max(np.abs(out.coeffs[1:])) <= 1e-11


def test_apply_a_rejects_nonfinite(space32):
    nl = bvp.Nonlinearity(
        f=lambda t, u: np.full_like(u, np.nan),
        theta=0.0,
        a1=lambda t: np.ones_like(t),
        a2=lambda t: np.ones_like(t),
        a3=lambda t: np.ones_like(t),
        label="nan",
    )
    with pytest.raises(ValueError):
        bvp.bvp_operator(nl, space32)


def _plain_nl(f, label):
    one = lambda t: np.ones_like(t)  # noqa: E731
    return bvp.Nonlinearity(f=f, theta=0.0, a1=one, a2=one, a3=one, label=label)


# f -> (odd value for value at the hook's magnitudes, odd within the check's tolerance)
_ODDNESS_CASES = {
    "power": (bvp.power_nonlinearity(), True, True),
    "sublinear_affine": (bvp.sublinear_affine(), True, True),
    "linear": (bvp.linear_nonlinearity(5.0), True, True),
    "zero": (bvp.zero_nonlinearity(), True, True),
    "odd to rounding": (_plain_nl(lambda t, u: (u + 0.5) - 0.5, "rounded"), False, True),
    "shifted": (_plain_nl(lambda t, u: u + 1e-3, "shifted"), False, False),
    "even": (_plain_nl(lambda t, u: u * u, "even"), False, False),
    "odd below 0.1": (_plain_nl(lambda t, u: np.where(u > 0.1, 0.1, u), "cut"), False, False),
    "nan": (_plain_nl(lambda t, u: np.full_like(u, np.nan), "nan"), False, False),
}


def _oddness_verdict(build) -> bool:
    try:
        build()
    except OddnessError:
        return False
    return True


@pytest.mark.parametrize("case", list(_ODDNESS_CASES))
# 15 nodes: a middle node at t = 1/2
@pytest.mark.parametrize(
    "cfg", [SpaceConfig(), SpaceConfig(320, 8, 256), SpaceConfig(8, 3, 5)], ids=["32", "320", "8x15"]
)
def test_oddness_shortcut_keeps_the_sampled_verdict(monkeypatch, case, cfg):
    # the bvp operator's shortcut (f odd value for value at every grid node
    # and the hook's magnitudes) accepts and rejects what applying the sample
    # rows does
    nl, exact, odd = _ODDNESS_CASES[case]
    plain = bvp.bvp_operator(nl, cfg, odd=False)
    samples = np.vstack(list(_oddness_samples(cfg.n_modes, cfg.n_modes)))
    assert plain.apply_batch.odd_at() is exact
    if exact:
        assert np.array_equal(plain.apply_batch(-samples), -plain.apply_batch(samples))
    rows = []
    moments = bvp.moments

    def counted(values, *args):
        rows.append(values.shape[0])
        return moments(values, *args)

    monkeypatch.setattr(bvp, "moments", counted)
    assert _oddness_verdict(lambda: bvp.bvp_operator(nl, cfg)) is odd
    # the shortcut skips both sample applies; A(0) is applied once an operator passes
    applied = [] if exact else [len(samples), len(samples)]
    assert rows == applied + ([1] if odd else [])
    rows.clear()
    # the same apply without the shortcut: the check applies the rows
    def unmarked():
        return replace(plain, odd=True, apply_batch=lambda x: plain.apply_batch(x))

    assert _oddness_verdict(unmarked) is odd
    assert rows == [len(samples), len(samples)] + ([1] if odd else [])


def test_replaced_apply_batch_does_not_inherit_the_oddness_shortcut(sublinear_op):
    def shifted(stacked):
        return sublinear_op.apply_batch(stacked) + 1e-3

    with pytest.raises(OddnessError):
        replace(sublinear_op, apply_batch=shifted)


def _even_above_2e3(t, u):
    return np.where(np.abs(u) > 2e3, np.abs(u), u)


# a band strictly between two of the hook's neighbouring magnitudes
_BAND = bvp._ODD_MAGNITUDES[50] * 1.01, bvp._ODD_MAGNITUDES[51] * 0.99


def _even_on_a_band(t, u):
    return np.where((np.abs(u) > _BAND[0]) & (np.abs(u) < _BAND[1]), np.abs(u), u)


@pytest.mark.parametrize(
    "f, scale",
    # scale: a multiple of e_1 whose profile reaches where f is not odd
    [(_even_above_2e3, 2e4), (_even_on_a_band, 4 * _BAND[1])],
    ids=["even above 2e3", "even on a band"],
)
def test_the_oddness_hook_samples_f_and_proves_nothing(f, scale):
    # each f is odd at every magnitude the hook tests, so both fall on its
    # passing side and a load accepts them, though neither operator is odd:
    # the hook samples f, as applying the sampled rows does, and proves nothing
    cfg = SpaceConfig()
    op = bvp.bvp_operator(_plain_nl(f, "odd where sampled"), cfg)
    assert op.apply_batch.odd_at()
    u = scale * basis_vector(1, cfg.n_modes).coeffs
    assert not np.array_equal(op.apply_coeffs(-u), -op.apply_coeffs(u))
    # applied both ways, the sampled rows (profiles below 5) reach the band
    # and reject it, but not what lies above 2e3
    unmarked = replace(op, odd=False, apply_batch=lambda x: op.apply_batch(x))
    assert _oddness_verdict(lambda: replace(unmarked, odd=True)) is (f is _even_above_2e3)


# every config family with parameters at the ends of their ranges
_FAMILY_LOADS = [
    ["problem.family=sublinear", "problem.theta=0", "problem.r1=1e-299"],
    ["problem.family=sublinear", "problem.theta=0.99", "problem.r1=0.999"],
    ["problem.family=power", "problem.amplitude=1e300", "problem.theta=0.5"],
    ["problem.family=power", "problem.amplitude=1e-300", "problem.theta=0"],
    ["problem.family=linear", "problem.lam=-1e300"],
    ["problem.family=linear", "problem.lam=5e-324"],
    ["problem.family=zero"],
]
_HOOK_GRIDS = [
    ["space.n_modes=32", "space.n_panels=32"],
    ["space.n_modes=320", "space.n_panels=256"],
    ["space.n_modes=1280", "space.n_panels=1024"],
]


@pytest.mark.parametrize("grid_overrides", _HOOK_GRIDS, ids=["32", "320", "1280"])
@pytest.mark.parametrize("family", _FAMILY_LOADS, ids=lambda o: ",".join(o))
def test_every_config_family_passes_the_oddness_hook(monkeypatch, family, grid_overrides):
    # no config reaches the fallback, which would draw the 100 sampled rows
    # and apply them both ways: a bvp load draws none
    rows = []
    moments = bvp.moments

    def counted(values, *args):
        rows.append(values.shape[0])
        return moments(values, *args)

    def no_draw(*args):
        raise AssertionError("a bvp load drew the oddness rows")

    monkeypatch.setattr(bvp, "moments", counted)
    monkeypatch.setattr(operators_mod, "_sampled_rows", no_draw)
    setup = load_problem(PROBLEMS / "bvp_sqrt.cfg", overrides=family + grid_overrides)
    assert rows == [1]  # A(0) alone
    assert setup.operator.apply_batch.odd_at()


def test_the_family_loads_cover_every_family():
    named = {o.split("=")[1] for load in _FAMILY_LOADS for o in load if o.startswith("problem.family=")}
    assert named == set(problems_mod._FAMILIES)


@pytest.mark.parametrize("path", sorted(PROBLEMS.glob("*.cfg")), ids=lambda p: p.stem)
def test_a_load_validates_oddness_once(monkeypatch, path):
    calls = []
    check = operators_mod._check_oddness

    def counted(op):
        calls.append(op.label)
        check(op)

    monkeypatch.setattr(operators_mod, "_check_oddness", counted)
    load_problem(path)
    assert len(calls) == 1


_BLOCK_LOADS = [(p.stem, []) for p in sorted(PROBLEMS.glob("*.cfg"))] + [
    ("bvp_sqrt", ["space.n_modes=1280", "space.n_panels=1024"])
]


@pytest.mark.parametrize(
    "problem, overrides", _BLOCK_LOADS, ids=[":".join([p, *o]) for p, o in _BLOCK_LOADS]
)
def test_a_load_builds_the_comparison_block(problem, overrides):
    # k x k on span{e_1, ..., e_k}: k = 1 in one-pair mode, 2 in two-pair mode
    setup = load_problem(PROBLEMS / f"{problem}.cfg", overrides=overrides)
    k = 1 if setup.mode == "one_pair" else 2
    assert setup.comparison.matrix.shape == (k, k)


def test_apply_b_eigenfunction(space32):
    # a1 = pi^2 makes e1 an eigenfunction with eigenvalue 1: on span{e1, e2}
    # the block reads (B e1, e1) = 1 and (B e1, e2) = 0
    b = bvp.b_matrix(lambda t: np.full_like(t, np.pi**2), space32, 2)
    e1, e2 = basis_vector(1, 32), basis_vector(2, 32)
    assert abs(b.form(e1, e1) - 1.0) <= 1e-10
    assert abs(b.form(e1, e2)) <= 1e-10
    assert bvp.b_matrix(lambda t: 1.0 + t, space32, 2).form(H1Vector(np.zeros(32)), e1) == 0.0


def test_apply_b_constant_weight_form(space32):
    m = 2.0
    b = bvp.b_matrix(lambda t: np.full_like(t, m), space32, 1)
    e1 = basis_vector(1, 32)
    assert b.form(e1, e1) == pytest.approx(m / np.pi**2, rel=1e-12)


_A1_WEIGHTS = {
    "10": lambda t: np.full_like(t, 10.0),
    "1+t": lambda t: 1.0 + t,
    "|t-0.3|": lambda t: np.abs(t - 0.3),
}


@pytest.mark.parametrize("n_modes", [1, 2, 32, 80, 320])
@pytest.mark.parametrize("a1", sorted(_A1_WEIGHTS))
def test_b_matrix_matches_weighted_gram(a1, n_modes):
    # the k x k block from 2k + 1 cosine moments against the leading block
    # of the explicit E^T diag(w a1) E over all n_modes
    cfg = SpaceConfig(n_modes=n_modes, n_panels=256 if n_modes == 320 else 32)
    nodes, weights = Grid(cfg).nodes, Grid(cfg).weights
    basis = full_table(cfg)
    gram = basis.T @ ((weights * _A1_WEIGHTS[a1](nodes))[:, None] * basis)
    for k in range(1, min(n_modes, 2) + 1):
        m = bvp.b_matrix(_A1_WEIGHTS[a1], cfg, k).matrix
        assert m.shape == (k, k)
        assert np.max(np.abs(m - gram[:k, :k])) <= 1e-14
        assert np.array_equal(m, m.T)


def test_a_table_free_load_and_report_build_no_basis_table(monkeypatch, tmp_path):
    # bvp_sqrt at 320 modes on 2,048 nodes and at 1,280 on 8,192: tables of
    # 5 and 80 MiB, above the 4 MiB crossover, so every product takes the
    # panel transform.  A load, a check and a report run with every table
    # read recorded and failing, and read none.  A load with gauss_rule's
    # cache filled peaks at 0.17 and 0.61 MB under tracemalloc, the oddness
    # hook's f arrays of one chunk (2**15 values each) and the grid's
    # transform phases; the bound fails a load that builds the table (5.2
    # MB at 320 modes) or synthesizes the 100 sampled oddness rows (1.6 and
    # 6.5 MB of profiles alone)
    path = PROBLEMS / "bvp_sqrt.cfg"
    reads = []

    def no_table(*args):
        reads.append(args)
        raise AssertionError("a table-free grid read a basis table")

    monkeypatch.setattr(space_mod.Grid, "table", property(no_table))
    monkeypatch.setattr(space_mod, "basis_matrix", no_table)
    for overrides in ([], ["space.n_modes=1280", "space.n_panels=1024"]):
        load_problem(path, overrides=overrides)  # fills gauss_rule's cache
        tracemalloc.start()
        try:
            load_problem(path, overrides=overrides)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5e6
        # bvp_sqrt's check fails by design, so a check and a report exit 1
        argv = ["--problem", str(path), "--output", str(tmp_path / "out.json")]
        argv += [f"--set={o}" for o in overrides]
        assert cli.main(["check", *argv]) == 1
        assert json.loads((tmp_path / "out.json").read_text())["all_pass"] is False
        assert cli.main(["report", *argv]) == 1
        assert json.loads((tmp_path / "out.json").read_text())["solve"]["meets_expected"] is True
    assert reads == []


@pytest.mark.parametrize(
    "cfg",
    [SpaceConfig(32, 8, 32), SpaceConfig(320, 8, 256), SpaceConfig(1280, 8, 1024), SpaceConfig(8, 3, 5)],
    ids=lambda c: f"{c.n_modes}x{c.quad_nodes * c.n_panels}",
)
def test_apply_matches_the_full_table(cfg, rng):
    # the operator, through its table or the transform, against f(t, E c) w
    # through the reference table, on a t-dependent nonlinearity and a
    # batch and a single row
    nl = bvp.sublinear_affine()
    nodes, weights = Grid(cfg).nodes, Grid(cfg).weights
    full = full_table(cfg)
    op = bvp.bvp_operator(nl, cfg)
    coeffs = rng.standard_normal((4, cfg.n_modes)) / np.arange(1, cfg.n_modes + 1)
    reference = (nl.f(nodes, coeffs @ full.T) * weights) @ full
    scale = np.max(np.abs(reference))
    assert np.max(np.abs(op.apply_batch(coeffs) - reference)) <= 1e-14 * scale
    assert np.max(np.abs(op.apply_coeffs(coeffs[0]) - reference[0])) <= 1e-14 * scale
    energy = weights @ nl.antiderivative(nodes, full @ coeffs[0])
    assert abs(op.potential_coeffs(coeffs[0]) - energy) <= 1e-14 * abs(energy)


@pytest.mark.parametrize("n_modes, n_panels", [(32, 32), (320, 256), (1280, 1024)])
def test_profile_cache_keeps_apply_bitwise(n_modes, n_panels, rng):
    # the apply after a potential at the same point reuses its grid profile
    # and must stay bitwise equal to a one-row apply_batch; a vector changed
    # in place must never be served the old profile
    cfg = SpaceConfig(n_modes=n_modes, n_panels=n_panels)
    for nl in (bvp.power_nonlinearity(), replace(bvp.sublinear_affine(), antiderivative=None)):
        op = bvp.bvp_operator(nl, cfg)
        c = rng.standard_normal(n_modes) / np.arange(1, n_modes + 1)
        op.potential_coeffs(c)
        assert op.apply_coeffs(c).tobytes() == op.apply_batch(c[None, :])[0].tobytes()
        c[0] += 0.5
        assert op.apply_coeffs(c).tobytes() == op.apply_batch(c[None, :])[0].tobytes()
        changed = op.potential_coeffs(c)
        c[1] -= 0.5
        moved = op.potential_coeffs(c)
        op.potential_coeffs(np.zeros(n_modes))
        assert op.potential_coeffs(c.copy()) == moved != changed


# the _ODDNESS_CASES of the four nonlinearity families
_FAMILY_CASES = ["linear", "power", "sublinear_affine", "zero"]

# the PRODUCT_SPACES grids with 1 and 2 modes (even and odd node counts),
# 256 and 257 modes on 2,048 nodes, a table of 4 MiB exactly and one
# mode above it, where the rays take the transform, and the 320- and
# 1,280-mode spaces of the shipped bvp problems
_FORM_SPACES = [
    SpaceConfig(n_modes, quad_nodes, n_panels)
    for quad_nodes, n_panels in dict.fromkeys((c.quad_nodes, c.n_panels) for c in PRODUCT_SPACES)
    for n_modes in (1, 2)
] + [SpaceConfig(256, 8, 256), SpaceConfig(257, 8, 256), SpaceConfig(320, 8, 256), SpaceConfig(1280, 8, 1024)]


@pytest.mark.parametrize("declared", [True, False], ids=["degree", "none"])
@pytest.mark.parametrize("cfg", _FORM_SPACES, ids=lambda c: f"{c.n_modes}x{c.quad_nodes * c.n_panels}")
@pytest.mark.parametrize("family", _FAMILY_CASES)
def test_ray_forms_match_the_apply_route(family, cfg, declared, rng):
    # the grid forms sum w f(t, s p) p, or with the family's declared
    # degree s**degree times the form of one f call of p, against the
    # images of the scaled rows dotted with the rays, for one ray and for
    # three
    nl = _ODDNESS_CASES[family][0]
    assert nl.degree is not None
    op = bvp.bvp_operator(nl if declared else replace(nl, degree=None), cfg)
    assert op.forms_batch is not None
    assert space_mod._table_free(cfg) is (cfg.n_modes >= 257)
    s = np.arange(1, 65) / 65.0
    for k in (1, 3):
        rays = rng.standard_normal((k, cfg.n_modes)) / np.arange(1, cfg.n_modes + 1)
        forms = op.ray_forms(rays, s)
        images = op.apply_many((s[None, :, None] * rays[:, None, :]).reshape(k * s.size, -1))
        reference = np.einsum("ksn,kn->ks", images.reshape(k, s.size, -1), rays)
        assert forms.shape == (k, s.size)
        if family == "zero":
            assert not forms.any() and not reference.any()
        else:
            assert np.max(np.abs(forms - reference)) <= 1e-13 * np.max(np.abs(reference))


@pytest.mark.parametrize("degree", [0.5, None], ids=["degree", "none"])
def test_a_declared_degree_takes_one_f_call_a_ray(degree, space32, rng):
    calls = []
    power = bvp.power_nonlinearity(theta=0.5)

    def counted(t, u):
        calls.append(np.shape(u))
        return power.f(t, u)

    op = bvp.bvp_operator(replace(power, f=counted, degree=degree), space32)
    n = Grid(space32).nodes.size
    s = np.arange(1, 65) / 65.0
    for k in (1, 3):
        calls.clear()
        op.forms_batch(rng.standard_normal((k, space32.n_modes)), s)
        assert calls == [(k, n) if degree is not None else (k, s.size, n)]


@pytest.mark.parametrize("odd", [True, False])
def test_a_declared_degree_is_sampled_not_trusted(odd, space32):
    # sign(u) |u|^0.5 declared of degree 0.7 fails the build's sample,
    # with the oddness check and without it; the four families pass
    wrong = replace(bvp.sublinear_affine(theta=0.5), degree=0.7)
    with pytest.raises(ValueError, match=r"differs from s\*\*0\.7 f"):
        bvp.bvp_operator(wrong, space32, odd=odd)
    for family in _FAMILY_CASES:
        bvp.bvp_operator(_ODDNESS_CASES[family][0], space32, odd=odd)


@pytest.mark.parametrize("cfg", [SpaceConfig(), SpaceConfig(1280, 8, 1024)], ids=["32", "1280"])
def test_the_degree_sample_spans_the_hook_chunks(cfg):
    # sign(u) |u|^0.5 scaled by 1.01 above a |u| between the hook's
    # magnitudes 3 and 4: every other pair of neighbouring magnitudes
    # matches degree 0.5, and at 8,192 nodes the two lie in different
    # chunks of 4 magnitudes
    cut = math.sqrt(bvp._ODD_MAGNITUDES[3] * bvp._ODD_MAGNITUDES[4])
    power = bvp.power_nonlinearity(theta=0.5)
    kinked = replace(power, f=lambda t, u: power.f(t, u) * np.where(np.abs(u) > cut, 1.01, 1.0))
    with pytest.raises(ValueError, match=r"differs from s\*\*0\.5 f"):
        bvp.bvp_operator(kinked, cfg)


@pytest.mark.parametrize("cfg", [SpaceConfig(), SpaceConfig(320, 8, 256)], ids=["32", "320"])
def test_bvp_h2_overflow_raises_quietly(cfg):
    # sinh(5000 u) overflows where s u(t) passes about 0.14, so the grid
    # forms of the larger s are infinite; (H2) raises, and numpy warns of
    # nothing on the way (the table synthesis at 32 modes, the transform
    # at 320).  sinh declares no degree, so its forms take f at every s
    nl = _plain_nl(lambda t, u: np.sinh(5000.0 * u), "sinh")
    assert nl.degree is None
    op = bvp.bvp_operator(nl, cfg, odd=False)
    b = LinearOperatorSpec.scaled_identity(1.0, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OperatorDivergenceError, match=r"max \|u_k\| = 5\.000e-01"):
            check_h2(op, b, basis_vector(1, cfg.n_modes), r1=0.5)


def test_b_self_adjoint(space32, sublinear_nl, rng):
    # (B u, v) = (B v, u) on the block's span, and both equal the grid
    # integral of a1 u v
    b = bvp.b_matrix(sublinear_nl.a1, space32, 2)
    nodes, weights = Grid(space32).nodes, Grid(space32).weights
    for _ in range(20):
        u, v = (H1Vector(np.concatenate([rng.standard_normal(2), np.zeros(30)])) for _ in range(2))
        integral = weights @ (sublinear_nl.a1(nodes) * evaluate(u, nodes) * evaluate(v, nodes))
        assert abs(b.form(u, v) - b.form(v, u)) <= 1e-10
        assert abs(b.form(u, v) - integral) <= 1e-10


def _inner_rule_operator(nl, cfg):
    # without a closed-form antiderivative bvp_operator integrates F by its
    # inner Gauss-Legendre rule
    return bvp.bvp_operator(replace(nl, antiderivative=None), cfg)


def test_bvp_energy_zero(space32, sublinear_nl):
    op = _inner_rule_operator(sublinear_nl, space32)
    assert functional_J(op, H1Vector(np.zeros(32))) == 0.0


def test_bvp_energy_linear_closed_form(space32):
    lam = 5.0
    op = _inner_rule_operator(bvp.linear_nonlinearity(lam), space32)
    e1 = basis_vector(1, 32)
    expected = 0.5 - lam / (2.0 * np.pi**2)
    assert functional_J(op, e1) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(0.24670, abs=5e-6)


def test_energy_formulas_agree(space32, sublinear_nl, sublinear_op, rng):
    # line-integral potential vs inner-rule potential, identical inner
    # quadrature rules on both sides
    inner_rule_op = _inner_rule_operator(sublinear_nl, space32)
    for _ in range(20):
        u = H1Vector(rng.standard_normal(32))
        via_line = 0.5 * inner(u, u) - avez_potential(sublinear_op, u)
        via_inner_rule = functional_J(inner_rule_op, u)
        assert abs(via_line - via_inner_rule) <= 1e-8


def test_gradient_pairing_identity(space32, sublinear_nl, sublinear_op, rng):
    # (J'(u), v) equals the weak-form pairing int u'v' - int f(t,u) v.
    # The kinetic term is recomputed from synthesized derivatives on an
    # independent refined rule (full-band derivative products exceed the
    # operator grid's exactness); the pairing term uses the operator grid,
    # which is the quadrature the discrete operator is defined with.
    fine = SpaceConfig(32, 8, 64)
    fine_nodes, fine_weights = Grid(fine).nodes, Grid(fine).weights
    nodes, weights = Grid(space32).nodes, Grid(space32).weights
    ks = np.arange(1, 33)
    deriv_basis = np.sqrt(2.0) * np.cos(np.outer(fine_nodes, ks) * np.pi)
    for _ in range(10):
        u = H1Vector(rng.standard_normal(32))
        v = H1Vector(rng.standard_normal(32))
        lhs = inner(gradient_J(sublinear_op, u), v)
        du = deriv_basis @ u.coeffs
        dv = deriv_basis @ v.coeffs
        fu = sublinear_nl.f(nodes, evaluate(u, nodes))
        rhs = float(fine_weights @ (du * dv)) - float(weights @ (fu * evaluate(v, nodes)))
        assert abs(lhs - rhs) <= 1e-8


def test_gradient_fd_consistency(sublinear_op, rng):
    for _ in range(5):
        u = H1Vector(rng.standard_normal(32))
        v = rng.standard_normal(32)
        v /= np.linalg.norm(v)
        rel = fd_gradient_check(sublinear_op, u, H1Vector(v), 1e-5) / max(
            1.0, abs(functional_J(sublinear_op, u))
        )
        assert rel <= 1e-6


def test_growth_fit_respects_integral_bound(space32, sublinear_nl, sublinear_op):
    # fitted envelope coefficient never exceeds 1.1 times the analytic
    # growth constant int a2 dt of the sublinear family
    from fixpairs import growth_fit

    cert = growth_fit(sublinear_op, [0.5, 1, 2, 4, 8], dirs_per_radius=16, seed=3)
    nodes, weights = Grid(space32).nodes, Grid(space32).weights
    int_a2 = float(weights @ sublinear_nl.a2(nodes))
    assert int_a2 == pytest.approx(0.75, rel=1e-12)  # r1^(1/2) * int (1+t) dt
    assert cert.c <= 1.1 * int_a2
    assert cert.b >= 0.0


def test_growth_chain_bound(space32, sublinear_nl, sublinear_op, rng):
    # ||A u|| <= (int a2) ||u||^theta + (int a3), the integrals taken with
    # the same quadrature that defines the discrete operator
    nodes, weights = Grid(space32).nodes, Grid(space32).weights
    c1 = float(weights @ sublinear_nl.a2(nodes))
    c2 = float(weights @ sublinear_nl.a3(nodes))
    us = rng.standard_normal((1000, 32))
    us *= (rng.uniform(0.1, 8.0, 1000) / np.linalg.norm(us, axis=1))[:, None]
    images = sublinear_op.apply_many(us)
    norms_in = np.linalg.norm(us, axis=1)
    norms_out = np.linalg.norm(images, axis=1)
    assert np.all(norms_out <= c1 * norms_in**sublinear_nl.theta + c2 + 1e-12)


def test_ode_residual_second_differences(space32, rng):
    def f(t, u):
        return (2.0 + np.cos(np.pi * t)) * u / (1.0 + u**2) + np.sin(np.pi * t)

    h = 1e-4
    pts = (np.arange(16) + 0.5) / 16.0
    for _ in range(2):
        c = rng.standard_normal(32) / np.arange(1, 33) ** 2
        u = H1Vector(c)
        g = lambda s: f(s, evaluate(u, s))
        worst = 0.0
        for t in pts:
            am, a0, ap = bvp.green_profile(g, np.array([t - h, t, t + h]))
            d2 = (am - 2.0 * a0 + ap) / h**2
            worst = max(worst, abs(-d2 - f(t, evaluate(u, t))))
        assert worst <= 1e-6


def test_check_d1_example(sublinear_nl):
    rep = bvp.check_d1(sublinear_nl, 0.25)
    assert rep.verdict == "sampled-pass"
    assert -1e-12 <= rep.margin <= 1e-9  # binding exactly at |u| = r1


def test_check_d1_validation(sublinear_nl):
    with pytest.raises(ValueError):
        bvp.check_d1(sublinear_nl, 1.5)
    # r1 * 1e-8 below the normal floats: the gaps lost their digits, and at
    # 1e-320 they were 0/0 and printed a NaN margin
    for r1 in (1e-320, 5e-324, 2e-300):
        with pytest.raises(ValueError, match="normal floats"):
            bvp.check_d1(sublinear_nl, r1)
    assert bvp.check_d1(sublinear_nl, 3e-300).margin >= -1e-12


def test_check_d2_example_passes(sublinear_nl):
    rep = bvp.check_d2(sublinear_nl)
    assert rep.verdict == "sampled-pass"
    assert rep.margin > 0.0


def test_check_d2_linear_fails():
    rep = bvp.check_d2(bvp.linear_nonlinearity(5.0))
    assert rep.verdict == "fail"


def test_check_d3_poincare_infeasible(space32, sublinear_nl):
    rep = bvp.check_d3(sublinear_nl, space32)
    assert rep.verdict == "fail"
    w = rep.witnesses[0]
    assert w["analytic_ceiling"] == pytest.approx(w["m"] / np.pi, rel=1e-12)
    assert w["analytic_ceiling"] < 1.0
    assert "infeasible" in rep.note
    # the proof-variant value never beats the Poincare ceiling either
    assert w["margin_squared"] + 1.0 <= w["m"] / np.pi**2 + 1e-12


def test_check_d3_closed_form_passes_above_the_sampled_pair(space32):
    # m = 5: the stated reading holds (5 * 0.2516 > 1), though 5 * 1/(2 pi) < 1
    rep = bvp.check_d3(bvp.power_nonlinearity(5.0, 0.5), space32)
    assert rep.verdict == "sampled-pass"
    assert rep.margin == pytest.approx(5.0 * KY_FAN_L2 - 1.0, abs=1e-12)
    w = rep.witnesses[0]
    assert w["best_min_l2_norm"] == KY_FAN_L2
    # the witness pair (e1 +- e2)/sqrt(2) attains the value
    for sign in (1.0, -1.0):
        c = np.zeros(space32.n_modes)
        c[:2] = (1.0, sign)
        e = H1Vector(c / math.sqrt(2.0))
        assert math.sqrt(l2_norm_sq(e)) == pytest.approx(KY_FAN_L2, rel=1e-15)


@given(
    st.integers(2, 12).flatmap(
        lambda n: arrays(float, (2, n), elements=st.floats(-1.0, 1.0, width=64))
    )
)
def test_no_orthonormal_pair_beats_ky_fan(pair):
    a, b = pair
    assume(np.linalg.norm(a) > 1e-3)
    a = a / np.linalg.norm(a)
    b = b - (a @ b) * a
    assume(np.linalg.norm(b) > 1e-3)
    b = b / np.linalg.norm(b)
    best = min(l2_norm_sq(H1Vector(a)), l2_norm_sq(H1Vector(b)))
    assert math.sqrt(best) <= KY_FAN_L2 * (1.0 + 1e-12)


def test_check_d4_values():
    rep = bvp.check_d4(1.0, 2.0)
    assert rep.verdict == "pass"
    assert rep.margin == pytest.approx(np.pi**4 + 1.0 - 4.0 - 2.0 * np.pi**2, rel=1e-14)
    bad = bvp.check_d4(1.0, 10.0)
    assert bad.verdict == "fail"
    assert bad.margin < 0.0


def test_eigenvalues(space32):
    assert bvp.dirichlet_eigenvalue(1, "spectral") == np.pi**2
    assert bvp.dirichlet_eigenvalue(2, "spectral") == pytest.approx(4.0 * np.pi**2)
    fd = bvp.dirichlet_eigenvalue(1, "finite-difference", n=1000)
    assert abs(fd - np.pi**2) / np.pi**2 <= 1e-4
    # closed form of the second-difference eigenvalue
    h = 1.0 / 1001.0
    assert fd == pytest.approx(2.0 * (1.0 - np.cos(np.pi * h)) / h**2, rel=1e-10)
    coarse = bvp.dirichlet_eigenvalue(1, "finite-difference", n=4)
    assert abs(coarse - np.pi**2) / np.pi**2 > 1e-4
    with pytest.raises(ValueError):
        bvp.dirichlet_eigenvalue(1, "finite-difference", n=2)
    with pytest.raises(ValueError):
        bvp.dirichlet_eigenvalue(1, "unknown")
    with pytest.raises(ValueError):
        bvp.dirichlet_eigenvalue(0)


def test_sublinear_affine_values():
    nl = bvp.sublinear_affine(r1=0.25, theta=0.5)
    t = np.array(0.5)
    assert float(nl.f(t, np.array(0.0))) == 0.0
    assert float(nl.f(t, np.array(1.0))) == pytest.approx(0.75, rel=1e-14)
    us = np.linspace(-2.0, 2.0, 41)
    ts = np.full_like(us, 0.3)
    assert np.max(np.abs(nl.f(ts, -us) + nl.f(ts, us))) <= 1e-12
    with pytest.raises(ValueError):
        bvp.sublinear_affine(r1=1.5)
    with pytest.raises(ValueError):
        bvp.sublinear_affine(theta=1.0)


def test_coefficient_range(space32):
    nl = bvp.sublinear_affine()
    m, big_m = nl.coefficient_range(space32)
    assert 1.0 <= m <= 1.01
    assert 1.99 <= big_m <= 2.0


def test_shooting_zero_rhs_trivial_only():
    res = bvp.shooting_oracle(
        bvp.zero_nonlinearity(), (-1.0, 1.0), n_slopes=11, n_steps=2000
    )
    assert not res.degenerate
    assert len(res.solutions) == 1
    assert abs(res.solutions[0].sigma) <= 1e-12
    assert np.max(np.abs(res.solutions[0].us)) <= 1e-12


def test_shooting_no_sign_change_empty():
    res = bvp.shooting_oracle(
        bvp.zero_nonlinearity(), (1.0, 2.0), n_slopes=5, n_steps=1000
    )
    assert res.solutions == []
    assert not res.degenerate


def test_shooting_detects_resonance():
    res = bvp.shooting_oracle(
        bvp.linear_nonlinearity(np.pi**2), (0.5, 3.0), n_slopes=8, n_steps=2000
    )
    assert res.degenerate
    assert res.solutions == []


def test_shooting_sublinear_pair():
    nl = bvp.power_nonlinearity(10.0, 0.5)
    res = bvp.shooting_oracle(nl, (2.0, 20.0), n_slopes=10, n_steps=2000)
    assert len(res.solutions) >= 1
    sol = res.solutions[-1]
    assert abs(sol.us[-1]) <= 1e-10
    assert sol.us[500] > 0.5  # one-arch positive solution
    # odd reflection is a solution as well: check the negative slope run
    res_neg = bvp.shooting_oracle(nl, (-20.0, -2.0), n_slopes=10, n_steps=2000)
    assert len(res_neg.solutions) >= 1
    assert np.max(np.abs(res_neg.solutions[0].us + sol.us)) <= 1e-9


def test_shooting_validation():
    nl = bvp.power_nonlinearity(10.0, 0.5)
    with pytest.raises(ValueError):
        bvp.shooting_oracle(nl, (2.0, 1.0))
    with pytest.raises(ValueError):
        bvp.shooting_oracle(nl, (1.0, 2.0), n_slopes=1)
    for bad in (
        {"n_steps": -5},
        {"n_steps": 0},
        {"n_steps": 1500},
    ):
        with pytest.raises(ValueError):
            bvp.shooting_oracle(nl, (2.0, 3.0), n_slopes=3, **bad)  # no root in range


@pytest.mark.parametrize("theta", [0.5, 0.25])
def test_shooting_scaling_law(theta):
    # u'' = -a sign(u)|u|^theta is solved by k u_1 with k = a^(1/(1-theta)),
    # and every RK4 stage scales the same way, so the oracle must too
    k = 10.0 ** (1.0 / (1.0 - theta))
    nl_a, nl_1 = bvp.power_nonlinearity(10.0, theta), bvp.power_nonlinearity(1.0, theta)
    res_a = bvp.shooting_oracle(nl_a, (2.0, 20.0), n_slopes=10, n_steps=1000)
    res_1 = bvp.shooting_oracle(nl_1, (2.0 / k, 20.0 / k), n_slopes=10, n_steps=1000)
    assert len(res_a.solutions) == len(res_1.solutions) >= 1
    for sol_a, sol_1 in zip(res_a.solutions, res_1.solutions):
        assert sol_a.sigma == pytest.approx(k * sol_1.sigma, rel=1e-9)
        assert np.max(np.abs(sol_a.us - k * sol_1.us)) <= 1e-9 * np.max(np.abs(sol_a.us))


def test_nonlinearity_validation():
    with pytest.raises(ValueError):
        bvp.Nonlinearity(
            f=lambda t, u: u,
            theta=1.0,
            a1=lambda t: t,
            a2=lambda t: t,
            a3=lambda t: t,
        )


def test_bvp_operator_dimension_guard(space32, sublinear_nl, sublinear_op):
    with pytest.raises(ValueError):
        sublinear_op.apply(basis_vector(1, 16))
    with pytest.raises(ValueError):
        functional_J(_inner_rule_operator(sublinear_nl, space32), basis_vector(1, 16))
