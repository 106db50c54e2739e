import dataclasses
from pathlib import Path

import numpy as np
import pytest

from fixpairs import (
    H1Vector,
    LinearOperatorSpec,
    OperatorDivergenceError,
    PotentialOperatorSpec,
    SolverConfig,
    basis_vector,
    check_h1,
    check_h2,
    check_h2_prime,
    circle_seeds,
    descend,
    find_pairs,
    inner,
    ps_check,
    quadratic_form_margin,
)
from fixpairs.models import clipped_cubic_operator, linear_operator, radial_power_operator
from fixpairs.problems import load_problem
from fixpairs.solver import (
    _ARMIJO_C,
    _deflated_energy,
    _descend,
    _energy_and_gradient,
    _minimize,
    _minimize_with_polish,
    axis_seeds,
    canonicalize,
)

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


@pytest.fixture(scope="module")
def model_1d():
    return radial_power_operator(2.0, 0.5, n_modes=1)


@pytest.fixture(scope="module")
def cubic():
    return clipped_cubic_operator()


def two_well_operator():
    """1-d potential operator whose energy has minima exactly at +/-1, +/-3.

    J'(u) = u (u^2-1)(u^2-4)(u^2-9) / 36, so A(u) = u - J'(u); the energy is
    a polynomial and loses accuracy to cancellation near the roots, which is
    why tests on it use a modest gradient tolerance.
    """

    def apply_batch(stacked):
        u = stacked
        p = u * (u**2 - 1.0) * (u**2 - 4.0) * (u**2 - 9.0) / 36.0
        return u - p

    def potential(c):
        u = float(c[0])
        prim = (u**8 / 8 - 14 * u**6 / 6 + 49 * u**4 / 4 - 18 * u**2) / 36.0
        return 0.5 * u * u - prim

    return PotentialOperatorSpec(
        n_modes=1,
        apply_coeffs=lambda c: apply_batch(c[None, :])[0],
        odd=True,
        theta=0.0,
        potential_coeffs=potential,
        apply_batch=apply_batch,
        label="two-well",
    )


def test_descend_model_fixed_point(model_1d):
    point = descend(model_1d, H1Vector([1.0]), SolverConfig())
    assert point.u.coeffs[0] == pytest.approx(4.0, abs=1e-8)
    assert point.fp_residual <= 1e-8
    assert point.j_value == pytest.approx(-8.0 / 3.0, abs=1e-8)


def test_descend_respects_odd_symmetry(model_1d):
    point = descend(model_1d, H1Vector([-1.0]), SolverConfig())
    assert point.u.coeffs[0] == pytest.approx(-4.0, abs=1e-8)


def test_descend_zero_operator():
    op = linear_operator(np.zeros((3, 3)))
    point = descend(op, H1Vector([1.0, -2.0, 0.5]), SolverConfig())
    assert point.u.norm() <= 1e-10


def test_monotone_descent_property(model_1d):
    cfg = SolverConfig()
    _, trace = _descend(model_1d, _energy_and_gradient(model_1d), np.array([0.5]), cfg)
    n_armijo = len(trace.j_values) - trace.n_polish
    for k in range(n_armijo - 1):
        step = trace.steps[k]
        if step <= 0.0:
            continue
        decrease = _ARMIJO_C * step * trace.grad_norms[k] ** 2
        assert trace.j_values[k + 1] <= trace.j_values[k] - decrease + 1e-15


def test_stalled_line_search_stops_at_resolution():
    # J never decreases, so every trial is rejected; the search halves the
    # step only until c - step*g equals c bitwise (c = g = 1: 54 trials,
    # steps 1 .. 2**-53), with no absolute step floor
    trials = []

    def j_fn(c):
        trials.append(c.copy())
        return 0.0

    c0 = np.array([1.0])
    c, iterations, trace = _minimize(j_fn, lambda c: np.ones(1), c0, SolverConfig())
    trials = trials[1:]  # the first call is J(c0)
    assert np.array_equal(c, c0) and iterations == 0
    assert trace.steps == [0.0]
    assert len(trials) == 54
    assert all(not np.array_equal(t, c0) for t in trials)
    assert np.array_equal(c0 - 2.0**-54 * np.ones(1), c0)


def test_grad_norm_equals_fp_residual(model_1d):
    point = descend(model_1d, H1Vector([0.7]), SolverConfig())
    assert point.grad_norm == point.fp_residual


def test_ps_check_on_convergent_run(model_1d):
    j_fn, g_fn = _energy_and_gradient(model_1d)
    iterates = []

    def recording_g(c):
        iterates.append(c.copy())
        return g_fn(c)

    c, _, _ = _minimize_with_polish(j_fn, recording_g, np.array([0.5]), SolverConfig())
    v = model_1d.apply(H1Vector(c))
    assert len(iterates) > 3
    assert ps_check(iterates, v, model_1d) <= 1e-12
    # constant sequence at the fixed point
    fixed = H1Vector([4.0])
    assert ps_check([fixed.coeffs], model_1d.apply(fixed), model_1d) <= 1e-12


def test_find_pairs_model(model_1d):
    report = find_pairs(model_1d, [H1Vector([0.5])], SolverConfig())
    assert report.n_pairs == 1
    assert report.pairs[0].u.coeffs[0] == pytest.approx(4.0, abs=1e-8)
    assert report.n_starts == 2
    assert report.note == ""


def test_find_pairs_zero_operator_reports_trivial():
    op = linear_operator(np.zeros((2, 2)))
    report = find_pairs(op, [basis_vector(1, 2)], SolverConfig())
    assert report.n_pairs == 0
    assert report.rejected_trivial == 2
    assert "trivial" in report.note


def test_find_pairs_cubic_model(cubic):
    seeds = circle_seeds(basis_vector(1, 2), basis_vector(2, 2), 0.5, 8)
    report = find_pairs(cubic, seeds, SolverConfig(dedup_tol=1e-4))
    assert report.n_pairs >= 2
    for p in report.pairs:
        assert p.j_value < 0.0
        # canonical representative: first significant coefficient positive
        lead = p.u.coeffs[np.flatnonzero(np.abs(p.u.coeffs) > 1e-4)[0]]
        assert lead > 0.0
    # distinct modulo sign
    for i, pi in enumerate(report.pairs):
        for pj in report.pairs[i + 1 :]:
            d = min(
                np.linalg.norm(pi.u.coeffs - pj.u.coeffs),
                np.linalg.norm(pi.u.coeffs + pj.u.coeffs),
            )
            assert d > 1e-4


def test_reported_pairs_are_symmetric(cubic):
    seeds = circle_seeds(basis_vector(1, 2), basis_vector(2, 2), 0.5, 8)
    report = find_pairs(cubic, seeds, SolverConfig(dedup_tol=1e-4))
    for p in report.pairs:
        res_neg = (-p.u - cubic.apply(-p.u)).norm()
        assert res_neg <= 2.0 * p.fp_residual + 1e-12


def test_find_pairs_deterministic(cubic):
    seeds = circle_seeds(basis_vector(1, 2), basis_vector(2, 2), 0.5, 8)
    cfg = SolverConfig(dedup_tol=1e-4)
    a = find_pairs(cubic, seeds, cfg)
    b = find_pairs(cubic, seeds, cfg)
    assert a.n_pairs == b.n_pairs
    for pa, pb in zip(a.pairs, b.pairs):
        assert np.array_equal(pa.u.coeffs, pb.u.coeffs)
        assert pa.j_value == pb.j_value


def test_deflation_finds_second_well():
    op = two_well_operator()
    cfg = SolverConfig(
        grad_tol=1e-6, max_iter=300, dedup_tol=1e-3, deflation_radius=1.2
    )
    report = find_pairs(op, [H1Vector([1.5]), H1Vector([1.6])], cfg)
    roots = sorted(round(abs(p.u.coeffs[0]), 4) for p in report.pairs)
    assert report.n_pairs == 2
    assert roots == [1.0, 3.0]


@pytest.mark.parametrize(
    "problem",
    ["power_law_1d", "linear2d", "bvp_zero", "sublinear_affine", "cubic2d", "bvp_sqrt"],
)
def test_descent_mirror_is_exact(problem):
    # find_pairs records the start -s as the mirror of the descent from s;
    # that is only sound while the mirror holds bit for bit
    setup = load_problem(PROBLEMS / f"{problem}.cfg")
    for seed in setup.seeds:
        if problem == "linear2d":
            for start in (seed, -seed):
                with pytest.raises(OperatorDivergenceError):
                    descend(setup.operator, start, setup.solver)
            continue
        pos = descend(setup.operator, seed, setup.solver)
        neg = descend(setup.operator, -seed, setup.solver)
        assert np.array_equal(neg.u.coeffs, -pos.u.coeffs)
        assert neg.iterations == pos.iterations
        assert neg.j_value == pos.j_value
        assert neg.grad_norm == pos.grad_norm


# potential calls, apply calls, n_starts, summed ps_trace lengths
WORK_BOUNDS = {
    "bvp_sqrt": (14, 15, 2, 26),
    "cubic2d": (808, 366, 32, 288),
    "sublinear_affine": (934, 406, 16, 180),
}


@pytest.mark.parametrize("problem", list(WORK_BOUNDS))
def test_find_pairs_work_counters(problem):
    setup = load_problem(PROBLEMS / f"{problem}.cfg")
    op = setup.operator
    calls = {"potential": 0, "apply": 0}

    def potential(c):
        calls["potential"] += 1
        return op.potential_coeffs(c)

    def apply(c):
        calls["apply"] += 1
        return op.apply_coeffs(c)

    counted = dataclasses.replace(op, potential_coeffs=potential, apply_coeffs=apply)
    calls.update(potential=0, apply=0)  # replace() re-ran the oddness sampling
    report = find_pairs(counted, setup.seeds, setup.solver)
    max_potential, max_apply, n_starts, trace_len = WORK_BOUNDS[problem]
    assert calls["potential"] <= max_potential
    assert calls["apply"] <= max_apply
    assert report.n_starts == n_starts
    assert sum(len(t) for t in report.ps_trace) == trace_len


@pytest.mark.parametrize("n", [2, 8, 16])
def test_circle_seeds_antipodes_are_exact(n):
    e1, e2 = basis_vector(1, 3), basis_vector(2, 3)
    seeds = circle_seeds(e1, e2, 0.7, n)
    for j in range(n // 2):
        assert seeds[j + n // 2].coeffs.tobytes() == (-seeds[j].coeffs).tobytes()


@pytest.mark.parametrize("problem, retries", [("cubic2d", 4), ("sublinear_affine", 3)])
def test_deflated_retry_count(problem, retries, monkeypatch):
    # antipodal seeds are recorded as mirrors and pay no deflated retry
    setup = load_problem(PROBLEMS / f"{problem}.cfg")
    calls = []

    def counted(*args):
        calls.append(args)
        return _deflated_energy(*args)

    monkeypatch.setattr("fixpairs.solver._deflated_energy", counted)
    report = find_pairs(setup.operator, setup.seeds, setup.solver)
    assert len(calls) == retries
    assert report.n_starts == 2 * len(setup.seeds)


def test_antipodal_seed_is_recorded_as_mirror(cubic):
    seeds = circle_seeds(basis_vector(1, 2), basis_vector(2, 2), 0.5, 8)
    cfg = SolverConfig(dedup_tol=1e-4)
    full = find_pairs(cubic, seeds, cfg)
    half = find_pairs(cubic, seeds[:4], cfg)
    assert full.n_starts == 16 and len(full.ps_trace) == 16
    assert full.ps_trace[8:] == half.ps_trace
    assert full.rejected_trivial == 2 * half.rejected_trivial
    assert full.n_nonconverged == 2 * half.n_nonconverged
    assert [p.to_dict() for p in full.pairs] == [p.to_dict() for p in half.pairs]


def test_find_pairs_rejects_non_odd_operator():
    # A(u) = u/2 + 1 has the single fixed point 2; -2 is not a fixed point,
    # so a result "modulo sign" would report a pair that does not exist
    op = PotentialOperatorSpec(
        n_modes=1,
        apply_coeffs=lambda c: 0.5 * c + 1.0,
        odd=False,
        potential_coeffs=lambda c: 0.25 * float(c @ c) + float(c.sum()),
    )
    with pytest.raises(ValueError, match="odd"):
        find_pairs(op, [H1Vector([0.5])], SolverConfig())


def test_blowup_raises():
    op = linear_operator(2.0 * np.eye(2))
    with pytest.raises(OperatorDivergenceError):
        find_pairs(
            op,
            circle_seeds(basis_vector(1, 2), basis_vector(2, 2), 0.5, 2),
            SolverConfig(max_iter=2500),
        )


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(max_iter=0)
    with pytest.raises(ValueError):
        SolverConfig(grad_tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(deflation_radius=0.0)


def test_canonicalize_flips_negative_lead(model_1d):
    point = descend(model_1d, H1Vector([-1.0]), SolverConfig())
    canonical = canonicalize(point, 1e-4)
    assert canonical.u.coeffs[0] > 0.0
    assert canonical.j_value == point.j_value
    assert canonical.fp_residual == point.fp_residual


def test_seed_helpers():
    e1, e2 = basis_vector(1, 2), basis_vector(2, 2)
    assert len(axis_seeds(e1, 0.5)) == 1
    seeds = circle_seeds(e1, e2, 2.0, 4)
    assert len(seeds) == 4
    for s in seeds:
        assert s.norm() == pytest.approx(2.0)
    with pytest.raises(ValueError):
        axis_seeds(e1, 0.0)
    with pytest.raises(ValueError):
        circle_seeds(e1, e2, 1.0, 0)


def test_one_pair_conditions_imply_found_pair(model_1d):
    # when both one-pair conditions hold, the seeded search succeeds with
    # a negative critical level
    b1 = LinearOperatorSpec.scaled_identity(1.5, 1)
    e1 = basis_vector(1, 1)
    assert check_h1(b1, e1).verdict == "pass"
    assert check_h2(model_1d, b1, e1, r1=0.01).verdict == "sampled-pass"
    report = find_pairs(model_1d, axis_seeds(e1, 0.01), SolverConfig())
    assert report.n_pairs >= 1
    assert report.pairs[0].j_value < 0.0


def test_two_pair_conditions_imply_two_found_pairs(cubic):
    b2 = LinearOperatorSpec.scaled_identity(1.5, 2)
    e1, e2 = basis_vector(1, 2), basis_vector(2, 2)
    _, h1p = quadratic_form_margin(b2, e1, e2)
    h2p = check_h2_prime(cubic, b2, e1, e2, r2=0.5, n_angle=64, n_s=64)
    assert h1p.verdict == "pass" and h2p.verdict == "sampled-pass"
    report = find_pairs(cubic, circle_seeds(e1, e2, 0.5, 16), SolverConfig(dedup_tol=1e-4))
    assert report.n_pairs >= 2
    assert all(p.j_value < 0.0 for p in report.pairs)


def test_solve_report_serialization(model_1d):
    report = find_pairs(model_1d, [H1Vector([0.5])], SolverConfig())
    payload = report.to_dict()
    assert payload["n_pairs"] == 1
    assert len(payload["pairs"][0]["coeffs"]) == 1
    assert payload["pairs"][0]["grad_norm"] == payload["pairs"][0]["fp_residual"]
