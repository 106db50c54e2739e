"""End-to-end acceptance gate.

One test per criterion; every test prints a single PASS/FAIL line with the
measured quantity next to the tolerance it must meet (run with -s to see
them).  The expensive searches are shared through module-scoped fixtures.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from fixpairs import (
    H1Vector,
    LinearOperatorSpec,
    SolverConfig,
    SpaceConfig,
    avez_potential,
    basis_vector,
    check_h2_prime,
    circle_seeds,
    evaluate,
    fd_gradient_check,
    functional_J,
    genus_of_sphere,
    growth_fit,
    inner,
    lower_bound_J,
    quadratic_form_margin,
    find_pairs,
)
from fixpairs import bvp
from fixpairs.models import clipped_cubic_operator, radial_power_operator
from fixpairs.space import quadrature_grid


def _record(name, ok, detail=""):
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"{name} failed: {detail}"


@pytest.fixture(scope="module")
def one_d_search():
    op = radial_power_operator(2.0, 0.5, n_modes=1)
    t0 = time.perf_counter()
    report = find_pairs(op, [H1Vector([0.5])], SolverConfig())
    return op, report, time.perf_counter() - t0


@pytest.fixture(scope="module")
def cubic_search():
    op = clipped_cubic_operator()
    e1, e2 = basis_vector(1, 2), basis_vector(2, 2)
    b2 = LinearOperatorSpec.scaled_identity(1.5, 2)
    t0 = time.perf_counter()
    h1p = quadratic_form_margin(b2, e1, e2)
    h2p = check_h2_prime(op, b2, e1, e2, r2=0.5)
    report = find_pairs(op, circle_seeds(e1, e2, 0.5, 16), SolverConfig(dedup_tol=1e-4))
    return op, h1p, h2p, report, time.perf_counter() - t0


@pytest.fixture(scope="module")
def sqrt_bvp():
    cfg = SpaceConfig(n_modes=320, quad_nodes=8, n_panels=256)
    nl = bvp.power_nonlinearity(10.0, 0.5)
    t0 = time.perf_counter()
    op = bvp.bvp_operator(nl, cfg)
    report = find_pairs(
        op,
        [3.0 * basis_vector(1, 320)],
        SolverConfig(grad_tol=1e-10, max_iter=800, dedup_tol=1e-2),
    )
    oracle = bvp.shooting_oracle(nl, (2.0, 20.0), n_slopes=10, tol=1e-10, n_steps=4000)
    return op, report, oracle, time.perf_counter() - t0


def test_c01_gradient_identity(sublinear_op):
    rng = np.random.default_rng(1)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        u = H1Vector(rng.standard_normal(32))
        v = rng.standard_normal(32)
        v /= np.linalg.norm(v)
        disc = fd_gradient_check(sublinear_op, u, H1Vector(v), 1e-5)
        worst = max(worst, disc / max(1.0, abs(functional_J(sublinear_op, u))))
    elapsed = time.perf_counter() - t0
    _record(
        "01 gradient-identity",
        worst <= 1e-6 and elapsed < 5.0,
        f"max rel discrepancy {worst:.3e} <= 1e-6, {elapsed:.2f}s < 5s",
    )


def test_c02_analytic_fixed_point(one_d_search):
    _, report, elapsed = one_d_search
    ok = report.n_pairs == 1
    point = report.pairs[0]
    du = abs(point.u.coeffs[0] - 4.0)
    dj = abs(point.j_value + 8.0 / 3.0)
    ok = ok and du <= 1e-8 and dj <= 1e-8 and elapsed < 1.0
    _record(
        "02 analytic-1d-fixed-point",
        ok,
        f"|u-4| = {du:.2e} <= 1e-8, |J+8/3| = {dj:.2e} <= 1e-8, {elapsed:.2f}s < 1s",
    )


def test_c03_pair_symmetry(one_d_search, cubic_search, sqrt_bvp):
    worst = -np.inf
    count = 0
    for op, report in (
        (one_d_search[0], one_d_search[1]),
        (cubic_search[0], cubic_search[3]),
        (sqrt_bvp[0], sqrt_bvp[1]),
    ):
        for p in report.pairs:
            res_neg = (-p.u - op.apply(-p.u)).norm()
            worst = max(worst, res_neg - 2.0 * p.fp_residual)
            count += 1
    _record(
        "03 pair-symmetry",
        worst <= 1e-12 and count >= 4,
        f"max residual(-u) - 2 residual(u) = {worst:.2e} <= 1e-12 over {count} points",
    )


def test_c04_genus_values():
    values = [genus_of_sphere(d) for d in (1, 2, 3)]
    _record("04 genus-values", values == [1, 2, 3], f"genus(1,2,3) = {values}")


def test_c05_eigenvalue():
    t0 = time.perf_counter()
    spectral = bvp.first_eigenvalue("spectral")
    fd = bvp.first_eigenvalue("finite-difference", n=1000)
    elapsed = time.perf_counter() - t0
    d_spec = abs(spectral - np.pi**2)
    d_fd = abs(fd - np.pi**2) / np.pi**2
    _record(
        "05 dirichlet-eigenvalue",
        d_spec <= 1e-12 and d_fd <= 1e-4 and elapsed < 2.0,
        f"spectral err {d_spec:.1e} <= 1e-12, fd rel err {d_fd:.2e} <= 1e-4, {elapsed:.2f}s < 2s",
    )


def test_c06_green_operator(space32, sublinear_nl):
    g = bvp.green_operator(space32)
    sym = float(np.max(np.abs(g.kernel - g.kernel.T)))

    def f(t, u):
        return (2.0 + np.cos(np.pi * t)) * u / (1.0 + u**2) + np.sin(np.pi * t)

    rng = np.random.default_rng(6)
    h = 1e-4
    pts = (np.arange(16) + 0.5) / 16.0
    worst_resid = 0.0
    for _ in range(10):
        u = H1Vector(rng.standard_normal(32) / np.arange(1, 33) ** 2)
        prof = lambda s: f(s, evaluate(u, s))
        for t in pts:
            am, a0, ap = bvp.green_profile(prof, np.array([t - h, t, t + h]))
            d2 = (am - 2.0 * a0 + ap) / h**2
            worst_resid = max(worst_resid, abs(-d2 - f(t, evaluate(u, t))))

    b = bvp.b_matrix(sublinear_nl.a1, space32)
    worst_adj = 0.0
    for _ in range(20):
        u = H1Vector(rng.standard_normal(32))
        v = H1Vector(rng.standard_normal(32))
        worst_adj = max(worst_adj, abs(inner(b.apply(u), v) - inner(u, b.apply(v))))
    _record(
        "06 green-operator",
        sym == 0.0 and worst_resid <= 1e-6 and worst_adj <= 1e-10,
        f"kernel asym {sym}, ode residual {worst_resid:.2e} <= 1e-6, "
        f"self-adjointness {worst_adj:.2e} <= 1e-10",
    )


def test_c07_lower_bound(sublinear_nl, sublinear_op):
    rng = np.random.default_rng(7)
    worst = np.inf
    radial = radial_power_operator(2.0, 0.5, n_modes=4)
    cert_r = growth_fit(radial, [0.5, 1, 2, 4, 8, 16], dirs_per_radius=16, seed=3)
    for _ in range(1000):
        r = rng.uniform(0.5, 16.0)
        d = rng.standard_normal(4)
        u = H1Vector(r * d / np.linalg.norm(d))
        worst = min(worst, functional_J(radial, u) - lower_bound_J(cert_r, r))
    cert_b = growth_fit(sublinear_op, [0.5, 1, 2, 4, 8], dirs_per_radius=16, seed=3)
    for _ in range(1000):
        r = rng.uniform(0.5, 8.0)
        d = rng.standard_normal(32)
        u = H1Vector(r * d / np.linalg.norm(d))
        worst = min(worst, functional_J(sublinear_op, u) - lower_bound_J(cert_b, r))
    _record(
        "07 coercivity-bound",
        worst >= -1e-9,
        f"min J(u) - bound(||u||) = {worst:.3e} >= -1e-9 over 2000 samples",
    )


def _brute_force_roots():
    """Sign-change enumeration of u = A(u) for the componentwise cubic on
    [-2, 2]^2 (401 x 401), refined by nested subdivision to below 1e-4."""

    def residual(x, y):
        return x**3 - x, y**3 - y

    xs = np.linspace(-2.0, 2.0, 401)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    r1, r2 = residual(X, Y)

    def change(r):
        s = np.sign(r)
        lo = np.minimum(
            np.minimum(s[:-1, :-1], s[1:, :-1]), np.minimum(s[:-1, 1:], s[1:, 1:])
        )
        hi = np.maximum(
            np.maximum(s[:-1, :-1], s[1:, :-1]), np.maximum(s[:-1, 1:], s[1:, 1:])
        )
        return (lo <= 0.0) & (hi >= 0.0)

    cells = np.argwhere(change(r1) & change(r2))

    def refine(i, j):
        x0, x1 = xs[i], xs[i + 1]
        y0, y1 = xs[j], xs[j + 1]
        for _ in range(8):
            gx = np.linspace(x0, x1, 5)
            gy = np.linspace(y0, y1, 5)
            gX, gY = np.meshgrid(gx, gy, indexing="ij")
            c1, c2 = residual(gX, gY)
            hit = None
            for a in range(4):
                for b in range(4):
                    w1 = c1[a : a + 2, b : b + 2]
                    w2 = c2[a : a + 2, b : b + 2]
                    if (
                        w1.min() <= 0.0 <= w1.max()
                        and w2.min() <= 0.0 <= w2.max()
                    ):
                        hit = (a, b)
                        break
                if hit:
                    break
            if hit is None:
                break
            x0, x1 = gx[hit[0]], gx[hit[0] + 1]
            y0, y1 = gy[hit[1]], gy[hit[1] + 1]
        return 0.5 * (x0 + x1), 0.5 * (y0 + y1)

    roots = {tuple(np.round(refine(i, j), 5)) for i, j in cells}
    return np.array(sorted(roots))


def test_c08_two_pair_reproduction(cubic_search):
    _, h1p, h2p, report, elapsed = cubic_search
    t0 = time.perf_counter()
    roots = _brute_force_roots()
    elapsed += time.perf_counter() - t0
    hypotheses_ok = h1p.verdict == "pass" and h2p.verdict == "sampled-pass"
    worst_loc = 0.0
    for p in report.pairs:
        dists = np.linalg.norm(roots - p.u.coeffs[None, :], axis=1)
        worst_loc = max(worst_loc, float(dists.min()))
    ok = hypotheses_ok and report.n_pairs >= 2 and worst_loc <= 1e-3 and elapsed < 30.0
    _record(
        "08 two-pair-reproduction",
        ok,
        f"conditions pass, {report.n_pairs} pairs >= 2, localization {worst_loc:.2e} <= 1e-3, "
        f"{elapsed:.1f}s < 30s ({roots.shape[0]} enumerated roots)",
    )


def test_c09_bvp_shooting_match(sqrt_bvp):
    _, report, oracle, elapsed = sqrt_bvp
    ok = report.n_pairs >= 1 and len(oracle.solutions) >= 1 and not oracle.degenerate
    ts = np.linspace(0.0, 1.0, 1001)
    worst_gap = np.inf
    if ok:
        for p in report.pairs:
            prof = evaluate(p.u, ts)
            gap = min(
                float(np.max(np.abs(prof - s.us))) for s in oracle.solutions
            )
            worst_gap = gap if worst_gap is np.inf else max(worst_gap, gap)
    ok = ok and worst_gap <= 1e-6 and elapsed < 30.0
    _record(
        "09 bvp-shooting-match",
        ok,
        f"{report.n_pairs} pair(s), sup-norm gap {worst_gap:.2e} <= 1e-6, {elapsed:.1f}s < 30s",
    )


def test_c10_checker_fidelity(space32, sublinear_nl):
    d4 = bvp.check_d4(1.0, 2.0)
    expected = np.pi**4 + 1.0 - 4.0 - 2.0 * np.pi**2
    d4_ok = d4.verdict == "pass" and d4.margin == pytest.approx(expected, rel=1e-14)
    d3 = bvp.check_d3(sublinear_nl, space32)
    w = d3.witnesses[0]
    d3_ok = (
        d3.verdict == "fail"
        and w["analytic_ceiling"] < 1.0
        and "infeasible" in d3.note
    )
    _record(
        "10 checker-fidelity",
        d4_ok and d3_ok,
        f"D4 margin {d4.margin:.4f} (= pi^4+1-4-2pi^2 = {expected:.4f}) > 0; "
        f"D3 fails with ceiling {w['analytic_ceiling']:.4f} < 1",
    )


def test_c11_functional_consistency(space32, sublinear_nl, sublinear_op):
    # the inner-rule potential: bvp_operator of a nonlinearity without a
    # closed-form antiderivative
    inner_rule_op = bvp.bvp_operator(replace(sublinear_nl, antiderivative=None), space32)
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(20):
        u = H1Vector(rng.standard_normal(32))
        a = 0.5 * inner(u, u) - avez_potential(sublinear_op, u)
        b = functional_J(inner_rule_op, u)
        worst = max(worst, abs(a - b))
    _record(
        "11 functional-consistency",
        worst <= 1e-8,
        f"max |line-integral J - inner-rule J| = {worst:.2e} <= 1e-8",
    )
