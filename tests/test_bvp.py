import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fixpairs import (
    GridSample,
    H1Vector,
    SpaceConfig,
    avez_potential,
    basis_vector,
    evaluate,
    fd_gradient_check,
    functional_J,
    gradient_J,
    inner,
    project,
    zero_vector,
)
from fixpairs import bvp
from fixpairs import operators as operators_mod
from fixpairs import space as space_mod
from fixpairs.operators import OddnessError, _oddness_samples
from fixpairs.problems import load_problem
from fixpairs.space import basis_matrix, l2_norm_sq, quadrature_grid

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


def test_green_operator_invariants(space32):
    g = bvp.green_operator(space32)
    assert np.max(np.abs(g.kernel - g.kernel.T)) == 0.0
    assert g.kernel.min() >= 0.0
    assert g.kernel.max() <= 0.25


def test_green_operator_consistent_with_projection(space32, sublinear_nl, rng):
    # grid route: tabulated kernel times quadrature weights, then project;
    # coefficient route: exact composition of the kernel integral with the
    # projection.  They agree to the kernel-kink quadrature error, which
    # shrinks as the panels refine.
    u = H1Vector(rng.standard_normal(32))

    def gap(cfg):
        g = bvp.green_operator(cfg)
        vals = sublinear_nl.f(g.nodes, evaluate(u, g.nodes))
        grid_route = project(
            GridSample(nodes=g.nodes, weights=g.weights, values=g.apply_values(vals)),
            cfg,
        )
        return (grid_route - bvp.bvp_operator(sublinear_nl, cfg).apply(u)).norm()

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
    out = bvp.bvp_operator(nl, space32, odd=False).apply(zero_vector(32))
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


# f -> (odd value for value at the sampled profiles, odd within the check's tolerance)
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
@pytest.mark.parametrize("cfg", [SpaceConfig(), SpaceConfig(320, 8, 256)], ids=["32", "320"])
def test_oddness_shortcut_keeps_the_sampled_verdict(monkeypatch, case, cfg):
    # the bvp operator's exact shortcut (f odd value for value at the sample
    # profiles) accepts and rejects what applying the sample rows does
    nl, exact, odd = _ODDNESS_CASES[case]
    plain = bvp.bvp_operator(nl, cfg, odd=False)
    samples = _oddness_samples(cfg.n_modes)
    assert plain.apply_batch.odd_at(samples) is exact
    if exact:
        assert np.array_equal(plain.apply_batch(-samples), -plain.apply_batch(samples))
    rows = []
    moments = bvp.moments

    def counted(folded, c):
        rows.append(folded.shape[1])
        return moments(folded, c)

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


def test_apply_b_eigenfunction(space32):
    out = bvp.b_matrix(lambda t: np.full_like(t, np.pi**2), space32).apply(basis_vector(1, 32))
    assert (out - basis_vector(1, 32)).norm() <= 1e-10
    assert bvp.b_matrix(lambda t: 1.0 + t, space32).apply(zero_vector(32)).norm() == 0.0


def test_apply_b_constant_weight_form(space32):
    m = 2.0
    b = bvp.b_matrix(lambda t: np.full_like(t, m), space32)
    e1 = basis_vector(1, 32)
    assert b.form(e1, e1) == pytest.approx(m / np.pi**2, rel=1e-12)


_A1_WEIGHTS = {
    "10": lambda t: np.full_like(t, 10.0),
    "1+t": lambda t: 1.0 + t,
    "|t-0.3|": lambda t: np.abs(t - 0.3),
}


@pytest.mark.parametrize("n_modes", [1, 2, 32, 320])
@pytest.mark.parametrize("a1", sorted(_A1_WEIGHTS))
def test_b_matrix_matches_weighted_gram(a1, n_modes):
    # the cosine-moment assembly against the explicit E^T diag(w a1) E
    cfg = SpaceConfig(n_modes=n_modes, n_panels=256 if n_modes == 320 else 32)
    nodes, weights = quadrature_grid(cfg)
    basis = basis_matrix(cfg)
    gram = basis.T @ ((weights * _A1_WEIGHTS[a1](nodes))[:, None] * basis)
    m = bvp.b_matrix(_A1_WEIGHTS[a1], cfg).matrix
    assert np.max(np.abs(m - gram)) <= 1e-14
    assert np.array_equal(m, m.T)


def test_bvp_load_holds_one_basis_table(monkeypatch):
    # a cold 1280-mode load: the half table of the basis, and no full view,
    # weighted copy or Gram temporaries; the peak is the half table plus the
    # comparison matrix's assembly (two 13 MB tables), 1.72x here, where
    # a full 84 MB view on top would reach 3x
    overrides = ["space.n_modes=1280", "space.n_panels=1024"]
    half_bytes = 8 * (8 * 1024 // 2) * 1280
    space_mod._half_basis.cache_clear()

    def no_full_view(cfg):
        raise AssertionError("a load built the full basis view")

    monkeypatch.setattr(space_mod, "basis_matrix", no_full_view)
    tracemalloc.start()
    try:
        load_problem(PROBLEMS / "bvp_sqrt.cfg", overrides=overrides)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        assert space_mod._half_basis(1280, 8, 1024).nbytes == half_bytes
        space_mod._half_basis.cache_clear()
    assert peak <= 2.25 * half_bytes


@pytest.mark.parametrize(
    "cfg",
    [SpaceConfig(32, 8, 32), SpaceConfig(320, 8, 256), SpaceConfig(1280, 8, 1024), SpaceConfig(8, 3, 5)],
    ids=lambda c: f"{c.n_modes}x{c.quad_nodes * c.n_panels}",
)
def test_folded_apply_matches_the_full_table(cfg, rng):
    # the operator through the half table against f(t, E c) w through the
    # full view, on a t-dependent nonlinearity and a batch and a single row
    nl = bvp.sublinear_affine()
    nodes, weights = quadrature_grid(cfg)
    try:
        full = basis_matrix(cfg)
        op = bvp.bvp_operator(nl, cfg)
        coeffs = rng.standard_normal((4, cfg.n_modes)) / np.arange(1, cfg.n_modes + 1)
        reference = (nl.f(nodes, coeffs @ full.T) * weights) @ full
        scale = np.max(np.abs(reference))
        assert np.max(np.abs(op.apply_batch(coeffs) - reference)) <= 1e-14 * scale
        assert np.max(np.abs(op.apply_coeffs(coeffs[0]) - reference[0])) <= 1e-14 * scale
        energy = weights @ nl.antiderivative(nodes, full @ coeffs[0])
        assert abs(op.potential_coeffs(coeffs[0]) - energy) <= 1e-14 * abs(energy)
    finally:
        if cfg.n_modes == 1280:
            space_mod._half_basis.cache_clear()


@pytest.mark.parametrize("n_modes, n_panels", [(32, 32), (320, 256), (1280, 1024)])
def test_profile_cache_keeps_apply_bitwise(n_modes, n_panels, rng):
    # the apply after a potential at the same point reuses its grid profile
    # and must stay bitwise equal to a one-row apply_batch; a vector changed
    # in place must never be served the old profile
    cfg = SpaceConfig(n_modes=n_modes, n_panels=n_panels)
    try:
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
    finally:
        if n_modes == 1280:
            space_mod._half_basis.cache_clear()


def test_b_self_adjoint(space32, sublinear_nl, rng):
    b = bvp.b_matrix(sublinear_nl.a1, space32)
    for _ in range(20):
        u = H1Vector(rng.standard_normal(32))
        v = H1Vector(rng.standard_normal(32))
        assert abs(inner(b.apply(u), v) - inner(u, b.apply(v))) <= 1e-10


def _inner_rule_operator(nl, cfg):
    # without a closed-form antiderivative bvp_operator integrates F by its
    # inner Gauss-Legendre rule
    return bvp.bvp_operator(replace(nl, antiderivative=None), cfg)


def test_bvp_energy_zero(space32, sublinear_nl):
    op = _inner_rule_operator(sublinear_nl, space32)
    assert functional_J(op, zero_vector(32)) == 0.0


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
    fine_nodes, fine_weights = quadrature_grid(fine)
    nodes, weights = quadrature_grid(space32)
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
    nodes, weights = quadrature_grid(space32)
    int_a2 = float(weights @ sublinear_nl.a2(nodes))
    assert int_a2 == pytest.approx(0.75, rel=1e-12)  # r1^(1/2) * int (1+t) dt
    assert cert.c <= 1.1 * int_a2
    assert cert.b >= 0.0


def test_growth_chain_bound(space32, sublinear_nl, sublinear_op, rng):
    # ||A u|| <= (int a2) ||u||^theta + (int a3), the integrals taken with
    # the same quadrature that defines the discrete operator
    nodes, weights = quadrature_grid(space32)
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


def test_check_d1_example(space32, sublinear_nl):
    rep = bvp.check_d1(sublinear_nl, 0.25, space32)
    assert rep.verdict == "sampled-pass"
    assert -1e-12 <= rep.margin <= 1e-9  # binding exactly at |u| = r1


def test_check_d1_validation(space32, sublinear_nl):
    with pytest.raises(ValueError):
        bvp.check_d1(sublinear_nl, 1.5, space32)


def test_check_d2_example_passes(space32, sublinear_nl):
    rep = bvp.check_d2(sublinear_nl, space32)
    assert rep.verdict == "sampled-pass"
    assert rep.margin > 0.0


def test_check_d2_linear_fails(space32):
    rep = bvp.check_d2(bvp.linear_nonlinearity(5.0), space32)
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
    assert bvp.first_eigenvalue("spectral") == np.pi**2
    assert bvp.dirichlet_eigenvalue(2, "spectral") == pytest.approx(4.0 * np.pi**2)
    fd = bvp.first_eigenvalue("finite-difference", n=1000)
    assert abs(fd - np.pi**2) / np.pi**2 <= 1e-4
    # closed form of the second-difference eigenvalue
    h = 1.0 / 1001.0
    assert fd == pytest.approx(2.0 * (1.0 - np.cos(np.pi * h)) / h**2, rel=1e-10)
    coarse = bvp.first_eigenvalue("finite-difference", n=4)
    assert abs(coarse - np.pi**2) / np.pi**2 > 1e-4
    with pytest.raises(ValueError):
        bvp.first_eigenvalue("finite-difference", n=2)
    with pytest.raises(ValueError):
        bvp.first_eigenvalue("unknown")
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
    assert abs(sol.terminal) <= 1e-10
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
