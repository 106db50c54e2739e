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
    find_pairs,
    quadratic_form_margin,
)
from fixpairs.models import clipped_cubic_operator, linear_operator, radial_power_operator
from fixpairs.operators import energy_coeffs
from fixpairs.problems import load_problem
from fixpairs.solver import (
    _ARMIJO_C,
    _ENERGY_FLOOR,
    _bump_distances,
    _deflated_energy,
    _descend,
    _energy_and_gradient,
    axis_seeds,
    canonicalize,
)

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def descend(A, u0, cfg):
    """One main descent from u0 on A's own energy: its critical point."""
    return _descend(_energy_and_gradient(A), u0.coeffs, cfg)[0]


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
    _, trace = _descend(_energy_and_gradient(model_1d), np.array([0.5]), cfg)
    for k in range(len(trace.j_values) - 1):
        step = trace.steps[k]
        if step <= 0.0:
            continue
        decrease = _ARMIJO_C * step * trace.grad_norms[k] ** 2
        assert trace.j_values[k + 1] <= trace.j_values[k] - decrease + 1e-15


def test_stalled_line_search_stops_at_resolution():
    # J never decreases, so every trial is rejected; the search halves the
    # step only until c - step*g equals c bitwise (c = 1, g = 2**30: 84
    # trials, steps 1 .. 2**-83), with no absolute step floor; the trials'
    # decreases step * g**2 stay above J's rounding all the way
    trials = []

    def j_fn(c):
        trials.append(c.copy())
        return 0.0

    c0 = np.array([1.0])
    point, trace = _descend((j_fn, lambda c: np.full(1, 2.0**30)), c0, SolverConfig())
    # the first call is J(c0); the scoring reuses it and makes no call
    assert np.array_equal(trials.pop(0), c0)
    assert point.j_value == 0.0
    assert np.array_equal(point.u.coeffs, c0) and point.iterations == 0
    assert trace.steps == [0.0]
    assert len(trials) == 84
    assert all(not np.array_equal(t, c0) for t in trials)
    assert np.array_equal(c0 - 2.0**-84 * 2.0**30, c0)


def test_search_within_energy_rounding_is_decided_by_the_residual():
    # J rises by an ulp at every call, so the Armijo test rejects every
    # trial; the first trial's decrease step * ||J'||^2 is 1e-18, within J's
    # rounding, so the residual decides it, and it lands on the fixed point
    calls = []

    def j_fn(c):
        calls.append(c)
        return 1.0 + len(calls) * 2.0**-52

    point, trace = _descend((j_fn, lambda c: c - 3.0), np.array([3.0 + 1e-9]), SolverConfig())
    assert trace.steps == [1.0, 0.0]
    assert point.iterations == 1 and len(calls) == 2
    assert point.u.coeffs[0] == 3.0 and point.grad_norm == 0.0


def test_descent_stops_at_the_energy_floor():
    # J is flat and J'(c) = c: the Armijo test rejects every trial until
    # the decrease step * ||J'||^2 falls within J's rounding at step 2**-50,
    # where the lower residual accepts it.  J is unchanged and the step is
    # below 1e-6, so the descent stops there, after one iteration, not at
    # max_iter (each further iteration would repeat the same search)
    point, trace = _descend((lambda c: 0.0, lambda c: c.copy()), np.array([1.0]), SolverConfig(max_iter=50))
    assert trace.steps == [2.0**-50]
    assert trace.j_values == [0.0] and trace.grad_norms == [1.0]
    assert point.iterations == 1
    assert point.u.coeffs[0] == 1.0 - 2.0**-50 and point.grad_norm == 1.0 - 2.0**-50


def test_grad_norm_equals_fp_residual(model_1d):
    point = descend(model_1d, H1Vector([0.7]), SolverConfig())
    assert point.grad_norm == point.fp_residual


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


def record_descents(monkeypatch):
    """Record (deflated, point, trace) of every descent find_pairs runs."""
    runs = []

    def recording(energy, c0, cfg, deflated=None):
        point, trace = _descend(energy, c0, cfg, deflated)
        runs.append((deflated is not None, point, trace))
        return point, trace

    monkeypatch.setattr("fixpairs.solver._descend", recording)
    return runs


def test_deflation_finds_second_well(monkeypatch):
    op = two_well_operator()
    cfg = SolverConfig(
        grad_tol=1e-6, max_iter=300, dedup_tol=1e-3, deflation_radius=1.2
    )
    runs = record_descents(monkeypatch)
    report = find_pairs(op, [H1Vector([1.5]), H1Vector([1.6])], cfg)
    roots = sorted(round(abs(p.u.coeffs[0]), 4) for p in report.pairs)
    assert report.n_pairs == 2
    assert roots == [1.0, 3.0]
    # the retry from 1.6 starts inside the bump at 1 and is free to leave it
    retries = [point for deflated, point, _ in runs if deflated]
    assert len(retries) == 1 and retries[0] is not None
    assert retries[0].u.coeffs[0] == pytest.approx(3.0, abs=1e-4)


def test_descent_is_abandoned_only_when_it_enters_a_bump_from_outside():
    # J = c^2/4 descends 2 -> 1 -> 0 and 0.4 -> 0.2 -> 0; the bump is |c| < 0.5
    def j_fn(c):
        return 0.25 * float(c @ c)

    def g_fn(c):
        return 0.5 * c

    def in_bump(c):
        return abs(c[0]) < 0.5

    energy = (j_fn, g_fn)
    point, trace = _descend(energy, np.array([2.0]), SolverConfig(), (j_fn, g_fn, in_bump))
    assert point is None and len(trace.steps) == 2
    point, _ = _descend(energy, np.array([0.4]), SolverConfig(), (j_fn, g_fn, in_bump))
    assert point is not None and point.u.coeffs[0] == 0.0 and point.iterations == 2


@pytest.mark.parametrize("problem", ["cubic2d", "sublinear_affine"])
def test_retry_is_abandoned_when_it_reenters_a_bump(problem, monkeypatch):
    # every retry on these problems falls back into a bump from outside
    # within a few iterations; it is abandoned there and adds no pair
    setup = load_problem(PROBLEMS / f"{problem}.cfg")
    runs = record_descents(monkeypatch)
    find_pairs(setup.operator, setup.seeds, setup.solver)
    retries = [(point, trace) for deflated, point, trace in runs if deflated]
    assert retries
    for point, trace in retries:
        assert point is None
        assert len(trace.steps) <= 10


def test_residual_decided_searches_reach_a_tight_tolerance(monkeypatch):
    # at grad_tol 1e-12 the energy cannot resolve the last searches on
    # sublinear_affine; the residual decides them, and every main descent
    # reaches the tolerance before max_iter
    setup = load_problem(PROBLEMS / "sublinear_affine.cfg", ["solver.grad_tol=1e-12"])
    runs = record_descents(monkeypatch)
    report = find_pairs(setup.operator, setup.seeds, setup.solver)
    main = [(point, trace) for deflated, point, trace in runs if not deflated]
    assert len(main) == 4
    for point, trace in main:
        assert point.grad_norm < 1e-12 and point.iterations < setup.solver.max_iter
        # at least one accepted step was within the rounding of J
        assert any(
            step > 0.0 and step * gn**2 <= _ENERGY_FLOOR * max(1.0, abs(j))
            for step, gn, j in zip(trace.steps, trace.grad_norms, trace.j_values)
        )
    assert report.n_pairs == 1
    assert report.pairs[0].fp_residual < 1e-12


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


def counting_operator(op, scale=1.0):
    """op with its potential and apply, scaled by scale, counted in calls."""
    calls = {"potential": 0, "apply": 0}

    def potential(c):
        calls["potential"] += 1
        return op.potential_coeffs(c) * scale

    def apply(c):
        calls["apply"] += 1
        return op.apply_coeffs(c) * scale

    counted = dataclasses.replace(op, potential_coeffs=potential, apply_coeffs=apply)
    calls.update(potential=0, apply=0)  # replace() re-ran the oddness sampling
    return counted, calls


def test_max_iter_bounds_every_descent(monkeypatch):
    # at max_iter 3 every cubic2d descent, main or retry, stops after 3
    # iterations
    setup = load_problem(PROBLEMS / "cubic2d.cfg", ["solver.max_iter=3"])
    counted, calls = counting_operator(setup.operator)
    runs = record_descents(monkeypatch)
    report = find_pairs(counted, setup.seeds, setup.solver)
    assert (calls["potential"], calls["apply"]) == (46, 32)
    assert report.n_nonconverged == report.n_starts == 32
    assert report.n_pairs == 0
    assert [len(t) for t in report.ps_trace] == [4] * 32
    for _, point, trace in runs:
        assert point.iterations == 3 and len(trace.steps) == 4


def test_residual_rule_ends_a_descent_below_the_rounding_floor():
    # grad_tol 1e-300 is below cubic2d's rounding floor: every descent stops
    # before max_iter, on a zero residual or on a last search that finds no
    # trial lowering the residual.  Four of the eight descended seeds end at
    # 1.1e-16, where the first trial already equals the iterate bitwise,
    # and one at 1.4e-15, on a residual-decided trial (J never sees it) with
    # a higher residual; with their mirror starts and mirror seeds that is
    # 20 nonconverged starts
    setup = load_problem(PROBLEMS / "cubic2d.cfg", ["solver.grad_tol=1e-300"])
    report = find_pairs(setup.operator, setup.seeds, setup.solver)
    assert report.n_pairs == 3 and report.n_nonconverged == 20
    last_trials = []
    for seed in setup.seeds:
        j_fn, g_fn = _energy_and_gradient(setup.operator)
        j_seen, g_seen = [], []

        def j_rec(c):
            j_seen.append(c.tobytes())
            return j_fn(c)

        def g_rec(c):
            g_seen.append(c.copy())
            return g_fn(c)

        point, trace = _descend((j_rec, g_rec), seed.coeffs, setup.solver)
        assert point.iterations < setup.solver.max_iter and trace.steps[-1] == 0.0
        if point.grad_norm == 0.0:
            continue
        assert point.grad_norm == trace.grad_norms[-1] < 1e-14
        final = point.u.coeffs
        first = next(k for k, c in enumerate(g_seen) if np.array_equal(c, final))
        trials = [c for c in g_seen[first:] if not np.array_equal(c, final)]
        for trial in trials:
            assert trial.tobytes() not in j_seen
            assert np.linalg.norm(g_fn(trial)) >= point.grad_norm
        last_trials.append(len(trials))
    assert sorted(last_trials) == [0] * 8 + [1] * 2


# potential calls, apply calls, n_starts, summed ps_trace lengths
WORK_BOUNDS = {
    "bvp_sqrt": (13, 13, 2, 26),
    "cubic2d": (136, 80, 32, 288),
    "sublinear_affine": (62, 48, 16, 180),
}


@pytest.mark.parametrize("problem", list(WORK_BOUNDS))
def test_find_pairs_work_counters(problem):
    setup = load_problem(PROBLEMS / f"{problem}.cfg")
    counted, calls = counting_operator(setup.operator)
    report = find_pairs(counted, setup.seeds, setup.solver)
    max_potential, max_apply, n_starts, trace_len = WORK_BOUNDS[problem]
    assert calls["potential"] <= max_potential
    assert calls["apply"] <= max_apply
    assert report.n_starts == n_starts
    assert sum(len(t) for t in report.ps_trace) == trace_len


@pytest.mark.parametrize(
    "problem, n_potential, n_apply, n_pairs",
    [("sublinear_affine", 62, 48, 1), ("cubic2d", 136, 80, 4), ("bvp_sqrt", 13, 13, 1)],
)
def test_find_pairs_work_ignores_rounding_noise(problem, n_potential, n_apply, n_pairs):
    # scaling the operator's output by 1 + k ulp must not move the work:
    # a retry that ran on to a bump rim made these counts chaotic, and so
    # did Armijo tests below the rounding of J (13 to 153 potential calls
    # on bvp_sqrt)
    setup = load_problem(PROBLEMS / f"{problem}.cfg")
    for k in [*range(-20, 0), *range(1, 21)]:
        noisy, calls = counting_operator(setup.operator, 1.0 + k * 2.0**-52)
        report = find_pairs(noisy, setup.seeds, setup.solver)
        assert (calls["potential"], calls["apply"], report.n_pairs) == (
            n_potential,
            n_apply,
            n_pairs,
        ), k


def test_find_pairs_work_at_the_benchmark_resolution():
    # bvp_sqrt at 1,280 modes on 8,192 nodes, the benchmark's bvp_highres
    # grid: 13, 18 or 25 potential calls over these scalings (105 at
    # k = 5) before the residual decided the searches below the rounding
    # of J
    overrides = ["space.n_modes=1280", "space.n_panels=1024"]
    setup = load_problem(PROBLEMS / "bvp_sqrt.cfg", overrides)
    for k in range(-3, 4):
        noisy, calls = counting_operator(setup.operator, 1.0 + k * 2.0**-52)
        report = find_pairs(noisy, setup.seeds, setup.solver)
        assert (calls["potential"], calls["apply"], report.n_pairs) == (13, 13, 1), k


def recording_operator(op):
    """op with the argument bytes of every potential and apply call recorded."""
    args = {"potential": [], "apply": []}

    def potential(c):
        args["potential"].append(c.tobytes())
        return op.potential_coeffs(c)

    def apply(c):
        args["apply"].append(c.tobytes())
        return op.apply_coeffs(c)

    recorded = dataclasses.replace(op, potential_coeffs=potential, apply_coeffs=apply)
    for seen in args.values():
        seen.clear()  # replace() re-ran the oddness sampling
    return recorded, args


@pytest.mark.parametrize("problem", ["power_law_1d", "cubic2d", "sublinear_affine", "bvp_sqrt"])
def test_main_descent_evaluates_each_iterate_once(problem):
    # the final iterate is not evaluated again by the scoring, and no accepted trial point is evaluated twice
    setup = load_problem(PROBLEMS / f"{problem}.cfg")
    recorded, args = recording_operator(setup.operator)
    for seed in setup.seeds:
        for seen in args.values():
            seen.clear()
        point = descend(recorded, seed, setup.solver)
        assert point.grad_norm <= setup.solver.grad_tol
        for name, seen in args.items():
            assert len(seen) == len(set(seen)), name


@pytest.mark.parametrize("problem", ["cubic2d", "sublinear_affine"])
def test_find_pairs_evaluates_each_point_once(problem):
    # a retry starts at its seed and repeats the main descent point for
    # point until it nears a bump; those points are served from the main
    # descent's evaluations (28 potential and 14 apply calls of cubic2d's
    # 164 and 94 were repeats when the retry evaluated them again)
    setup = load_problem(PROBLEMS / f"{problem}.cfg")
    recorded, args = recording_operator(setup.operator)
    find_pairs(recorded, setup.seeds, setup.solver)
    for name, seen in args.items():
        assert len(seen) == len(set(seen)), name


def test_retries_compute_bump_distances_once_per_point(monkeypatch):
    # the deflated value and gradient at a point share one computation of
    # the bump distances (2,142 on these two problems when each computed its
    # own, 1,530 before a retry was abandoned on falling back into a bump)
    points = []

    def recording(c, centers):
        points.append(c)
        return _bump_distances(c, centers)

    monkeypatch.setattr("fixpairs.solver._bump_distances", recording)
    for problem in ("cubic2d", "sublinear_affine"):
        setup = load_problem(PROBLEMS / f"{problem}.cfg")
        find_pairs(setup.operator, setup.seeds, setup.solver)
    # every recorded array is kept alive, so its id names one point
    assert len({id(c) for c in points}) == len(points)
    assert len(points) <= 102


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


def test_find_pairs_and_the_energy_reject_an_operator_without_a_potential():
    # the energy fell back to a 16-point Avez quadrature in s, whose minimum
    # sits about 1e-4 from the fixed point u = 4: from the shipped seed 0.01
    # the descents stopped near u = 4.00012 and found no pair, silently
    op = dataclasses.replace(radial_power_operator(2.0, 0.5, 1), potential_coeffs=None)
    with pytest.raises(ValueError, match="potential_coeffs"):
        find_pairs(op, axis_seeds(basis_vector(1, 1), 0.01), SolverConfig(max_iter=400))
    with pytest.raises(ValueError, match="no potential_coeffs"):
        energy_coeffs(op, np.array([4.0]))


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
    h1p = quadratic_form_margin(b2, e1, e2)
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
