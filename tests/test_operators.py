from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import linprog

from analytic_reference import avez_potential, green_kernel
from fixpairs import (
    GrowthCertificate,
    H1Vector,
    LinearOperatorSpec,
    PotentialOperatorSpec,
    basis_vector,
    check_h2,
    check_h2_prime,
    fd_gradient_check,
    functional_J,
    gradient_J,
    growth_fit,
    inner,
    lower_bound_J,
)
from fixpairs import operators as operators_mod
from fixpairs.models import linear_operator, radial_power_operator
from fixpairs.operators import OddnessError
from fixpairs.problems import load_problem
from fixpairs.space import evaluate

PROBLEMS = Path(__file__).resolve().parents[1] / "problems"


@pytest.fixture(scope="module")
def model_1d():
    return radial_power_operator(2.0, 0.5, n_modes=1)


@pytest.fixture(scope="module")
def zero_op():
    return linear_operator(np.zeros((3, 3)), label="zero")


def test_avez_linear_identity_exact():
    op = linear_operator(np.eye(2))
    u = H1Vector([2.0, 0.0])
    assert avez_potential(op, u) == pytest.approx(2.0, abs=1e-12)


def test_avez_zero(zero_op):
    assert avez_potential(zero_op, H1Vector([1.0, 2.0, 3.0])) == 0.0


def test_avez_sublinear_model_vs_quad_oracle(model_1d):
    # closed form: int_0^1 (A(s*4), 4) ds = int 16 sqrt(s) ds = 32/3
    u = H1Vector([4.0])
    oracle, _ = quad(lambda s: 2.0 * np.sqrt(4.0 * s) * 4.0, 0.0, 1.0, epsabs=1e-13)
    assert oracle == pytest.approx(32.0 / 3.0, abs=1e-10)
    t16 = avez_potential(model_1d, u, s_order=16)
    assert abs(t16 - oracle) <= 1e-3  # endpoint sqrt singularity limits the rule
    t64 = avez_potential(model_1d, u, s_order=64)
    assert abs(t64 - oracle) < abs(t16 - oracle)


def test_avez_order_validation(model_1d):
    with pytest.raises(ValueError):
        avez_potential(model_1d, H1Vector([1.0]), s_order=1)


def test_functional_zero_at_origin(model_1d):
    assert functional_J(model_1d, H1Vector(np.zeros(1))) == 0.0


def test_functional_closed_form_fixed_point(model_1d):
    assert functional_J(model_1d, H1Vector([4.0])) == pytest.approx(-8.0 / 3.0, abs=1e-12)


def test_functional_even_for_odd_operator(rng):
    op = radial_power_operator(2.0, 0.5, n_modes=4)
    for _ in range(100):
        u = H1Vector(rng.standard_normal(4) * 3.0)
        assert abs(functional_J(op, u) - functional_J(op, -u)) <= 1e-12


def test_functional_modes_agree_for_linear(rng):
    m = rng.standard_normal((3, 3))
    op = linear_operator(0.5 * (m + m.T))
    u = H1Vector(rng.standard_normal(3))
    assert 0.5 * inner(u, u) - avez_potential(op, u) == pytest.approx(
        functional_J(op, u), abs=1e-12
    )


def test_gradient_identity_operator():
    op = linear_operator(np.eye(3))
    u = H1Vector([0.3, -0.7, 2.0])
    assert gradient_J(op, u).norm() == 0.0


def test_gradient_at_model_fixed_point(model_1d):
    assert gradient_J(model_1d, H1Vector([4.0])).norm() == 0.0


def test_gradient_zero_operator(zero_op, rng):
    u = H1Vector(rng.standard_normal(3))
    assert np.array_equal(gradient_J(zero_op, u).coeffs, u.coeffs)


def test_fd_gradient_check_linear(rng):
    m = rng.standard_normal((5, 5))
    op = linear_operator(0.5 * (m + m.T))
    for _ in range(5):
        u = H1Vector(rng.standard_normal(5))
        v = rng.standard_normal(5)
        v /= np.linalg.norm(v)
        assert fd_gradient_check(op, u, H1Vector(v), 1e-5) <= 1e-9


def test_fd_gradient_check_at_origin(zero_op):
    z = H1Vector(np.zeros(3))
    assert fd_gradient_check(zero_op, z, z, 1e-5) == 0.0
    with pytest.raises(ValueError):
        fd_gradient_check(zero_op, z, z, 0.0)


CERT = GrowthCertificate(
    c=2.0, b=1.0, theta=0.5, sampled_max_ratio=2.0, radii_tested=(1.0,), sample_maxima=(2.0,)
)


def test_lower_bound_arithmetic():
    assert lower_bound_J(CERT, 0.0) == 0.0
    assert lower_bound_J(CERT, 9.0) == pytest.approx(-4.5, abs=1e-12)
    assert lower_bound_J(CERT, 1e4) > 0.0
    with pytest.raises(ValueError):
        lower_bound_J(CERT, -1.0)


OP2 = radial_power_operator(2.0, 0.5, n_modes=2)
B2 = LinearOperatorSpec.scaled_identity(0.5, 2)
E1, E2 = basis_vector(1, 2), basis_vector(2, 2)


@pytest.mark.parametrize(
    "call",
    [
        lambda x: check_h2(OP2, B2, E1, x),
        lambda x: check_h2_prime(OP2, B2, E1, E2, x),
        lambda x: growth_fit(OP2, [x]),
        lambda x: growth_fit(OP2, [0.5, x]),
        lambda x: lower_bound_J(CERT, x),
        lambda x: evaluate(H1Vector([1.0, 0.5]), x),
        lambda x: evaluate(H1Vector([1.0, 0.5]), [0.5, x]),
        lambda x: green_kernel(x, 0.5),
        lambda x: green_kernel(0.5, x),
    ],
    ids=[
        "check_h2",
        "check_h2_prime",
        "growth_fit",
        "growth_fit_last",
        "lower_bound_J",
        "evaluate",
        "evaluate_array",
        "green_kernel_t",
        "green_kernel_s",
    ],
)
@pytest.mark.parametrize("x", [np.nan, np.inf])
def test_nan_and_inf_arguments_are_value_errors(call, x):
    # a bad argument, not an operator blow-up (OperatorDivergenceError) and
    # not a NaN result
    with pytest.raises(ValueError):
        call(x)


def test_lower_bound_validity_radial(rng):
    op = radial_power_operator(2.0, 0.5, n_modes=4)
    cert = growth_fit(op, [0.5, 1, 2, 4, 8, 16], dirs_per_radius=16, seed=3)
    for _ in range(1000):
        r = rng.uniform(0.5, 16.0)
        d = rng.standard_normal(4)
        d /= np.linalg.norm(d)
        u = H1Vector(r * d)
        assert functional_J(op, u) >= lower_bound_J(cert, r) - 1e-9


def test_growth_fit_zero_operator(zero_op):
    cert = growth_fit(zero_op, [1.0, 2.0], dirs_per_radius=4, seed=0)
    assert cert.sampled_max_ratio == 0.0
    assert cert.b == 0.0
    assert cert.c <= 1e-12


def test_growth_fit_radial_model():
    op = radial_power_operator(2.0, 0.5, n_modes=4)
    cert = growth_fit(op, [0.5, 1, 2, 4, 8], dirs_per_radius=16, seed=3)
    assert cert.sampled_max_ratio == pytest.approx(2.0, abs=1e-9)
    assert cert.c == pytest.approx(2.2, rel=1e-9)  # fitted 2.0 plus 10% slack
    assert cert.b == 0.0
    assert cert.kind == "sampled-envelope"
    # the envelope covers its own samples
    assert cert.coverage_margin() >= 0.0
    for r, y in zip(cert.radii_tested, cert.sample_maxima):
        assert y <= cert.bound(r) + 1e-12


def test_growth_fit_deterministic():
    op = radial_power_operator(2.0, 0.5, n_modes=3)
    a = growth_fit(op, [1.0, 2.0], dirs_per_radius=8, seed=42)
    b = growth_fit(op, [1.0, 2.0], dirs_per_radius=8, seed=42)
    assert a == b


def test_growth_fit_applies_once_and_matches_per_radius_loop(sublinear_op):
    calls = []

    def counted(stacked):
        calls.append(len(stacked))
        return sublinear_op.apply_batch(stacked)

    op = replace(sublinear_op, apply_batch=counted)
    calls.clear()  # construction ran the oddness check
    radii = [0.5, 1.0, 2.0, 4.0, 8.0]
    cert = growth_fit(op, radii, dirs_per_radius=8, seed=7)
    assert calls == [len(radii) * 8]
    # reference: one draw and one apply per radius, in radius order
    rng = np.random.default_rng(7)
    reference = []
    for r in radii:
        dirs = rng.standard_normal((8, op.n_modes))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        images = sublinear_op.apply_many(r * dirs)
        reference.append(float(np.max(np.linalg.norm(images, axis=1))))
    assert np.allclose(cert.sample_maxima, reference, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize(
    "n_modes, n_panels, chunks", [(320, 256, [16] * 3), (1280, 1024, [4] * 12)], ids=["320", "1280"]
)
def test_growth_fit_chunks_keep_every_image(monkeypatch, n_modes, n_panels, chunks):
    # bvp_sqrt's 48 (H) rows in chunks against one batch, on the panel
    # transform: every image bit for bit, so every norm and the
    # certificate.  _BATCH_CELLS itself makes the chunks: 16 rows of 4,096
    # transform cells at 320 modes, 4 rows of 16,384 at 1,280
    setup = load_problem(
        PROBLEMS / "bvp_sqrt.cfg", [f"space.n_modes={n_modes}", f"space.n_panels={n_panels}"]
    )
    op, hyp = setup.operator, setup.hyp
    batch = op.apply_batch
    images = []

    def recorded(stacked):
        images.append(batch(stacked))
        return images[-1]

    counted = replace(op, odd=False, apply_batch=recorded)

    def fit(cells):
        images.clear()
        monkeypatch.setattr(operators_mod, "_BATCH_CELLS", cells)
        cert = growth_fit(counted, hyp.growth_radii, hyp.dirs_per_radius, seed=setup.seed)
        return cert, [len(x) for x in images], np.vstack(images)

    chunked, chunk_sizes, chunked_images = fit(operators_mod._BATCH_CELLS)
    whole, whole_sizes, whole_images = fit(48 * op.row_width)
    assert chunk_sizes == chunks and whole_sizes == [48]
    assert np.array_equal(chunked_images, whole_images)
    assert chunked == whole


def test_growth_fit_measures_a_row_whose_squares_overflow():
    # every entry is finite and so is the norm, but the squares overflow: the
    # row is scaled by its largest entry, not reported as a blow-up
    big = growth_fit(radial_power_operator(1e300, 0.5, n_modes=4), [0.5, 1.0, 2.0], dirs_per_radius=4, seed=1)
    unit = growth_fit(radial_power_operator(1.0, 0.5, n_modes=4), [0.5, 1.0, 2.0], dirs_per_radius=4, seed=1)
    assert np.allclose(big.sample_maxima, 1e300 * np.array(unit.sample_maxima), rtol=1e-14, atol=0.0)
    assert big.c + big.b == pytest.approx(1e300 * (unit.c + unit.b), rel=1e-12)


def _cover_fit(powers, values):
    return operators_mod._cover_fit(powers, values, values / powers)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(0.01, 100.0), min_size=1, max_size=40, unique=True),
    st.floats(0.0, 1.0, exclude_max=True),
    st.data(),
)
def test_cover_fit_is_the_lp_optimum(radii, theta, data):
    # the fit against HiGHS on min c + b s.t. c p_k + b >= v_k, c, b >= 0
    powers = np.sort(radii) ** theta
    value = st.one_of(st.just(0.0), st.floats(0.0, 100.0))
    values = np.array(data.draw(st.lists(value, min_size=powers.size, max_size=powers.size)))
    c, b = _cover_fit(powers, values)
    assert c >= 0.0 and b >= 0.0
    assert np.all(c * powers + b >= values - 1e-12 * max(1.0, values.max()))
    # HiGHS on the values over their largest, at its tightest tolerances: its
    # feasibility tolerance is absolute, and 1e-7 at the default
    scale = values.max() or 1.0
    cover = -np.column_stack([powers, np.ones_like(powers)])
    tight = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
    lp = linprog([1.0, 1.0], A_ub=cover, b_ub=-values / scale, method="highs", options=tight)
    assert lp.status == 0
    # the fit's own tolerance, 1e-12 max(1, max v), bounds how far a vertex it
    # counts as feasible may lie under the optimum
    assert c + b == pytest.approx(scale * lp.fun, rel=1e-12, abs=1e-12 * max(1.0, values.max()))


def test_cover_fit_ties():
    # theta = 0: (0, max v) and (max v, 0) are both optimal, and the smaller b wins
    powers = np.ones(4)
    assert _cover_fit(powers, np.array([1.0, 3.0, 2.0, 0.5])) == (3.0, 0.0)
    # all values zero: every vertex is (0, 0), and the first is kept
    c, b = _cover_fit(np.array([0.5, 1.0, 2.0]) ** 0.5, np.zeros(3))
    assert (c, b) == (0.0, 0.0) and not np.signbit(c)


def test_growth_fit_validation(model_1d):
    with pytest.raises(ValueError):
        growth_fit(model_1d, [])
    with pytest.raises(ValueError):
        growth_fit(model_1d, [2.0, 1.0])
    with pytest.raises(ValueError):
        growth_fit(model_1d, [-1.0, 1.0])


def test_avez_linear_is_half_quadratic_form(rng):
    m = rng.standard_normal((4, 4))
    m = 0.5 * (m + m.T)
    op = linear_operator(m)
    for _ in range(20):
        u = rng.standard_normal(4)
        expected = 0.5 * float(u @ (m @ u))
        assert avez_potential(op, H1Vector(u)) == pytest.approx(expected, abs=1e-12)


def test_oddness_validation_rejects_shifted():
    shift = np.array([0.0, 1.0])
    with pytest.raises(OddnessError):
        PotentialOperatorSpec(
            n_modes=2, apply_coeffs=lambda c: c + shift, odd=True, label="shifted"
        )
    # NaN compares False against any tolerance and must not pass as odd
    with pytest.raises(OddnessError):
        PotentialOperatorSpec(
            n_modes=2, apply_coeffs=lambda c: np.full_like(c, np.nan), odd=True, label="nan"
        )


def test_oddness_validation_rejects_nonzero_origin():
    # odd everywhere except pinned away from zero at the origin
    def apply(c):
        if np.all(c == 0.0):
            return np.ones_like(c)
        return c

    with pytest.raises(OddnessError):
        PotentialOperatorSpec(n_modes=2, apply_coeffs=apply, odd=True)


def test_operator_spec_validation():
    with pytest.raises(ValueError):
        PotentialOperatorSpec(n_modes=2, apply_coeffs=lambda c: c, theta=1.0)
    with pytest.raises(ValueError):
        PotentialOperatorSpec(n_modes=0, apply_coeffs=lambda c: c)


def test_linear_operator_spec_validation():
    with pytest.raises(ValueError):
        LinearOperatorSpec(matrix=np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        LinearOperatorSpec(matrix=np.zeros((2, 3)))
    with pytest.raises(ValueError, match="empty"):
        LinearOperatorSpec(matrix=np.zeros((0, 0)))
    spec = LinearOperatorSpec.scaled_identity(2.0, 3)
    assert spec.form(basis_vector(1, 3), basis_vector(1, 3)) == 2.0


def test_comparison_block_reads_its_span():
    # a 2 x 2 block reads the first two coordinates of a longer vector and
    # rejects any vector with a non-zero coordinate past them
    block = LinearOperatorSpec(matrix=np.array([[2.0, 0.5], [0.5, 3.0]]))
    u, v = H1Vector([1.0, 2.0, 0.0, 0.0]), H1Vector([3.0, -1.0, 0.0, 0.0])
    assert block.form(u, v) == 3.0 * 3.0 - 1.0 * 6.5
    assert block.forms(np.stack([u.coeffs, v.coeffs])).tolist() == [16.0, 18.0]
    for outside in (basis_vector(3, 4), H1Vector([1.0, 0.0, 0.0, 1e-300])):
        with pytest.raises(ValueError, match="outside span"):
            block.form(outside, u)
        with pytest.raises(ValueError, match="outside span"):
            block.form(u, outside)
        with pytest.raises(ValueError, match="outside span"):
            block.forms(np.stack([u.coeffs, outside.coeffs]))
    with pytest.raises(ValueError, match="outside span"):
        block.form(H1Vector([1.0]), H1Vector([1.0]))


@pytest.mark.parametrize("k, l", [(1, 0), (0, 599), (599, 0), (300, 299), (5, 260), (520, 515)])
def test_symmetry_check_compares_every_tile(rng, k, l):
    # one entry off the mirror anywhere in a 600 x 600 matrix, in either triangle
    m = rng.standard_normal((600, 600))
    m = m + m.T
    for gap, symmetric in ((1e-9, False), (1e-13, True)):
        tilted = m.copy()
        tilted[k, l] += gap
        assert bool(np.max(np.abs(tilted - tilted.T)) <= 1e-12) is symmetric
        if symmetric:
            LinearOperatorSpec(matrix=tilted)
        else:
            with pytest.raises(ValueError, match="symmetric"):
                LinearOperatorSpec(matrix=tilted)


def test_apply_wrapper_dimension_check(model_1d):
    with pytest.raises(ValueError):
        model_1d.apply(basis_vector(1, 2))
    out = model_1d.apply(H1Vector([4.0]))
    assert out.coeffs[0] == pytest.approx(4.0)
