import json
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fixpairs import (
    H1Vector,
    LinearOperatorSpec,
    OperatorDivergenceError,
    PotentialOperatorSpec,
    basis_vector,
    check_h1,
    check_h2,
    check_h2_prime,
    genus_of_sphere,
    quadratic_form_margin,
    span_form_probe,
)
from fixpairs import cli
from fixpairs.cli import main
from fixpairs.hypotheses import HypothesisReport, h2_prime_chunk
from fixpairs.models import clipped_cubic_operator, linear_operator, radial_power_operator
from fixpairs.problems import load_problem

E1 = basis_vector(1, 2)
E2 = basis_vector(2, 2)
PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def test_h1_scaled_identity():
    rep = check_h1(LinearOperatorSpec.scaled_identity(2.0, 2), E1)
    assert rep.verdict == "pass"
    assert rep.margin == pytest.approx(1.0)


def test_h1_boundary_case_fails_strictly():
    rep = check_h1(LinearOperatorSpec.scaled_identity(1.0, 2), E1)
    assert rep.verdict == "fail"
    assert rep.margin == 0.0
    assert "strict" in rep.note


def test_h1_diagonal():
    b = LinearOperatorSpec(matrix=np.diag([1.5, 0.2]))
    rep = check_h1(b, E1)
    assert rep.verdict == "pass"
    assert rep.margin == pytest.approx(0.5)


def test_h1_requires_unit_vector():
    with pytest.raises(ValueError):
        check_h1(LinearOperatorSpec.scaled_identity(2.0, 2), H1Vector([2.0, 0.0]))


def test_h1_sign_flip_invariance():
    b = LinearOperatorSpec(matrix=np.diag([1.5, 0.2]))
    plus = check_h1(b, E1)
    minus = check_h1(b, -E1)
    assert plus.verdict == minus.verdict
    assert plus.margin == minus.margin


def test_h2_equality_case_is_sampled_pass():
    a = linear_operator(2.0 * np.eye(2))
    b = LinearOperatorSpec.scaled_identity(2.0, 2)
    rep = check_h2(a, b, E1, r1=1.0)
    assert rep.verdict == "sampled-pass"
    assert abs(rep.margin) <= 1e-12


def test_h2_dominated_fails():
    a = linear_operator(2.0 * np.eye(2))
    b = LinearOperatorSpec.scaled_identity(3.0, 2)
    rep = check_h2(a, b, E1, r1=1.0)
    assert rep.verdict == "fail"
    assert rep.margin < 0.0


def test_h2_sublinear_dominates_near_origin():
    op = radial_power_operator(2.0, 0.5, n_modes=2)
    b = LinearOperatorSpec.scaled_identity(1.5, 2)
    rep = check_h2(op, b, E1, r1=0.01)
    assert rep.verdict == "sampled-pass"
    assert rep.margin > 0.0


def test_h2_validation():
    op = radial_power_operator(2.0, 0.5, n_modes=2)
    b = LinearOperatorSpec.scaled_identity(1.5, 2)
    with pytest.raises(ValueError):
        check_h2(op, b, E1, r1=-1.0)
    with pytest.raises(ValueError):
        check_h2(op, b, E1, r1=1.0, n_s=5)


def test_quadratic_form_scaled_identity():
    rep = quadratic_form_margin(LinearOperatorSpec.scaled_identity(2.0, 2), E1, E2)
    data = rep.witnesses[0]
    assert (data["b22"], data["b33"], data["b23"]) == (2.0, 2.0, 0.0)
    assert data["discriminant"] == pytest.approx(-1.0)
    assert data["circle_max"] == pytest.approx(-0.5)
    assert rep.verdict == "pass"


def test_quadratic_form_positive_discriminant_fails():
    b = LinearOperatorSpec(matrix=np.array([[1.5, 1.0], [1.0, 1.5]]))
    rep = quadratic_form_margin(b, E1, E2)
    data = rep.witnesses[0]
    assert data["discriminant"] == pytest.approx(0.75)
    assert rep.verdict == "fail"


def test_quadratic_form_mixed_case():
    b = LinearOperatorSpec(matrix=np.array([[3.0, 1.0], [1.0, 2.0]]))
    rep = quadratic_form_margin(b, E1, E2)
    data = rep.witnesses[0]
    assert data["discriminant"] == pytest.approx(-1.0)
    # eigenvalues of [[-1, -1/2], [-1/2, -1/2]]
    expected_max = (-1.5 + np.sqrt(1.25)) / 2.0
    assert data["circle_max"] == pytest.approx(expected_max, abs=1e-12)
    assert data["circle_max"] < 0.0
    assert rep.verdict == "pass"


def test_quadratic_form_requires_orthonormal_pair():
    b = LinearOperatorSpec.scaled_identity(2.0, 2)
    with pytest.raises(ValueError):
        quadratic_form_margin(b, E1, E1)
    with pytest.raises(ValueError):
        quadratic_form_margin(b, H1Vector([2.0, 0.0]), E2)


@given(
    st.floats(-3.0, 3.0),
    st.floats(-3.0, 3.0),
    st.floats(-3.0, 3.0),
)
def test_circle_max_equivalence_brute_force(b22, b33, b23):
    # circle_max < 0  <=>  b22 > 1 and b33 > 1 and discriminant < 0,
    # checked against a dense angular scan of the quadratic form (3600
    # angles; a parabolic vertex fit through the best sample removes the
    # O(grid^2) scan bias, the form being a second-order trig polynomial)
    m = np.array([[b22, b23], [b23, b33]])
    data = quadratic_form_margin(LinearOperatorSpec(matrix=m), E1, E2).witnesses[0]
    phis = np.linspace(0.0, 2.0 * np.pi, 3600, endpoint=False)
    al, be = np.cos(phis), np.sin(phis)
    q = 0.5 * (1.0 - b22) * al**2 + 0.5 * (1.0 - b33) * be**2 - al * be * b23
    i = int(np.argmax(q))
    y0, yp, ym = q[i], q[(i + 1) % 3600], q[i - 1]
    curvature = 2.0 * y0 - yp - ym
    refined = y0 if curvature <= 0.0 else y0 + (yp - ym) ** 2 / (8.0 * curvature)
    assert np.max(q) <= data["circle_max"] + 1e-12  # samples never beat the true max
    assert abs(refined - data["circle_max"]) <= 1e-9
    condition = b22 > 1.0 and b33 > 1.0 and data["discriminant"] < 0.0
    if abs(data["circle_max"]) > 1e-6:  # stay away from the degenerate boundary
        assert (data["circle_max"] < 0.0) == condition


def test_h2_prime_equality_case():
    a = linear_operator(2.0 * np.eye(2))
    b = LinearOperatorSpec.scaled_identity(2.0, 2)
    rep = check_h2_prime(a, b, E1, E2, r2=0.5)
    assert rep.verdict == "sampled-pass"
    assert abs(rep.margin) <= 1e-12


def test_h2_prime_zero_operator_fails():
    a = linear_operator(np.zeros((2, 2)))
    b = LinearOperatorSpec.scaled_identity(2.0, 2)
    rep = check_h2_prime(a, b, E1, E2, r2=0.5, n_angle=16, n_s=32)
    assert rep.verdict == "fail"
    # gap is -2 s r2^2, most negative at the largest grid s
    s_max = 32.0 / 33.0
    assert rep.margin == pytest.approx(-2.0 * s_max * 0.25, rel=1e-12)


def test_h2_prime_cubic_model_passes():
    op = clipped_cubic_operator()
    b = LinearOperatorSpec.scaled_identity(1.5, 2)
    rep = check_h2_prime(op, b, E1, E2, r2=0.5)
    assert rep.verdict == "sampled-pass"
    assert rep.margin > 0.0


def test_h2_prime_superlinear_excess_passes():
    # A(u) = B2 u + ||u|| u: the gap (A(su), u) - (B2(su), u) = s^2 ||u||^3
    # is positive on the whole circle, smallest at the smallest grid s
    from fixpairs.operators import PotentialOperatorSpec

    b = LinearOperatorSpec.scaled_identity(2.0, 2)

    def apply_batch(stacked):
        norms = np.linalg.norm(stacked, axis=-1, keepdims=True)
        return stacked @ b.matrix.T + norms * stacked

    op = PotentialOperatorSpec(
        n_modes=2,
        apply_coeffs=lambda c: apply_batch(c[None, :])[0],
        odd=True,
        theta=0.0,
        potential_coeffs=lambda c: 0.5 * float(c @ (b.matrix @ c))
        + float(np.linalg.norm(c)) ** 3 / 3.0,
        apply_batch=apply_batch,
        label="comparison-plus-cubic-norm",
    )
    n_s = 64
    rep = check_h2_prime(op, b, E1, E2, r2=0.5, n_angle=32, n_s=n_s)
    assert rep.verdict == "sampled-pass"
    s_min = 1.0 / (n_s + 1.0)
    assert rep.margin == pytest.approx(s_min**2 * 0.5**3, rel=1e-12)


def _h2_prime_by_angle(A, B2, e2, e3, r2, n_angle, n_s):
    """(margin, witness) of (H2)' scanned one angle at a time: the first
    minimum in (angle, s) order, with a strict < between angles."""
    a = e2.coeffs / np.linalg.norm(e2.coeffs)
    b = e3.coeffs - np.dot(a, e3.coeffs) * a
    b = b / np.linalg.norm(b)
    s = np.arange(1, n_s + 1) / (n_s + 1.0)
    margin, witness = np.inf, {}
    for phi in 2.0 * np.pi * np.arange(n_angle) / n_angle:
        u = r2 * (np.cos(phi) * a + np.sin(phi) * b)
        gaps = A.apply_many(s[:, None] * u[None, :]) @ u - s * float(u @ (B2.matrix @ u))
        i = int(np.argmin(gaps))
        if gaps[i] < margin:
            margin = float(gaps[i])
            witness = {"phi": float(phi), "s": float(s[i]), "gap": float(gaps[i])}
    return margin, witness


@pytest.mark.parametrize(
    "problem, n_angle, n_s",
    [
        ("cubic2d", None, None),
        ("linear2d", None, None),
        ("sublinear_affine", None, None),
        # chunks of 4 angles that do not divide the circle
        ("cubic2d", 37, 256),
        ("linear2d", 37, 256),
        ("sublinear_affine", 37, 16),
    ],
)
def test_h2_prime_chunks_match_the_angle_scan(problem, n_angle, n_s):
    setup = load_problem(PROBLEMS / f"{problem}.cfg")
    hyp = replace(setup.hyp, n_angle=n_angle or setup.hyp.n_angle, n_s=n_s or setup.hyp.n_s)
    if n_angle is not None:
        assert n_angle % h2_prime_chunk(hyp.n_s, setup.space.n_modes) != 0
    e2, e3 = setup.e_vectors
    args = (setup.operator, setup.comparison, e2, e3, setup.radius)
    rep = check_h2_prime(*args, n_angle=hyp.n_angle, n_s=hyp.n_s)
    margin, witness = _h2_prime_by_angle(*args, hyp.n_angle, hyp.n_s)
    assert rep.margin == margin
    assert rep.witnesses == [witness]


def test_h2_prime_chunks_count_a_bvp_row_by_its_grid(monkeypatch):
    # a two-pair bvp problem of 2 modes on 8,192 nodes: every row carries
    # an 8,192-node profile, so `check` sweeps one angle of n_s rows at a
    # time (102 angles, 1,020 rows, when the chunk counted coefficient
    # cells only), with the margin and witness of the angle-by-angle scan
    overrides = [
        "problem.mode=two_pair",
        "space.n_modes=2",
        "space.n_panels=1024",
        "hypotheses.n_s=10",
        "hypotheses.n_angle=409",
    ]
    setup = load_problem(PROBLEMS / "bvp_sqrt.cfg", overrides)
    assert setup.row_width == 8192 and h2_prime_chunk(10, setup.row_width) == 1
    rows = []

    def counted(stacked):
        rows.append(len(stacked))
        return setup.operator.apply_many(stacked)

    op = PotentialOperatorSpec(
        n_modes=2, apply_coeffs=setup.operator.apply_coeffs, odd=False, apply_batch=counted
    )
    reports = []

    def recording(A, *args, **kwargs):
        reports.append(check_h2_prime(op, *args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(cli, "check_h2_prime", recording)
    cli.run_check(setup)
    assert rows == [10] * 409
    e2, e3 = setup.e_vectors
    margin, witness = _h2_prime_by_angle(
        setup.operator, setup.comparison, e2, e3, setup.radius, 409, 10
    )
    assert reports[0].margin == margin
    assert reports[0].witnesses == [witness]


def test_h2_prime_tie_goes_to_the_earlier_angle():
    # A pushes back by one unit along an axis when the point lies on that
    # axis beyond a threshold.  With B2 = 0, on a 12-angle circle of radius
    # 0.5, the gap is exactly -0.5 on the axis angles 0 and 6 from s > 0.8,
    # on 3 and 9 from s > 0.4, and 0 elsewhere.  Angles 0 and 3 share the
    # first chunk: the earlier angle wins although angle 3 reaches the
    # minimum at a smaller s, and no later chunk takes the tie over
    def apply_batch(v):
        on1 = (np.abs(v[:, 0]) > 0.4) & (np.abs(v[:, 1]) < 1e-3)
        on2 = (np.abs(v[:, 1]) > 0.2) & (np.abs(v[:, 0]) < 1e-3)
        return -np.column_stack([np.sign(v[:, 0]) * on1, np.sign(v[:, 1]) * on2])

    op = PotentialOperatorSpec(
        n_modes=2, apply_coeffs=lambda c: apply_batch(c[None, :])[0], apply_batch=apply_batch
    )
    zero = LinearOperatorSpec.scaled_identity(0.0, 2)
    n_angle, n_s = 12, 256
    assert h2_prime_chunk(n_s, 2) == 4
    rep = check_h2_prime(op, zero, E1, E2, r2=0.5, n_angle=n_angle, n_s=n_s)
    witness = {"phi": 0.0, "s": 206 / 257, "gap": -0.5}
    assert rep.margin == -0.5 and rep.witnesses == [witness]
    assert _h2_prime_by_angle(op, zero, E1, E2, 0.5, n_angle, n_s) == (-0.5, witness)


def test_h2_prime_non_finite_gap_raises_quietly():
    # exp overflows once s u1 exceeds about 0.36, on the rays near phi = 0
    def apply_batch(stacked):
        return stacked * np.exp(2000.0 * stacked[:, :1])

    op = PotentialOperatorSpec(
        n_modes=2,
        apply_coeffs=lambda c: apply_batch(c[None, :])[0],
        odd=False,
        apply_batch=apply_batch,
    )
    b = LinearOperatorSpec.scaled_identity(1.5, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OperatorDivergenceError, match=r"max \|u_k\| = 5\.000e-01"):
            check_h2_prime(op, b, E1, E2, r2=0.5, n_angle=16, n_s=64)


@pytest.mark.parametrize("problem", ["cubic2d", "sublinear_affine"])
def test_h2_prime_batch_rows(problem):
    setup = load_problem(PROBLEMS / f"{problem}.cfg")
    rows = []

    def counted(stacked):
        rows.append(len(stacked))
        return setup.operator.apply_many(stacked)

    op = PotentialOperatorSpec(
        n_modes=setup.space.n_modes,
        apply_coeffs=setup.operator.apply_coeffs,
        odd=False,
        apply_batch=counted,
    )
    e2, e3 = setup.e_vectors
    n_angle, n_s = setup.hyp.n_angle, setup.hyp.n_s
    check_h2_prime(op, setup.comparison, e2, e3, setup.radius, n_angle=n_angle, n_s=n_s)
    assert sum(rows) == n_angle * n_s
    if problem == "sublinear_affine":
        assert max(rows) <= n_s  # its 256-node grid profiles stay one angle at a time
    else:
        assert min(rows) >= 4 * n_s


def test_clipped_cubic_maps_its_fixed_values_exactly(tmp_path):
    op = clipped_cubic_operator()
    values = np.array([[0.0, 1.0], [-1.0, 0.0], [1.0, -1.0], [-0.0, -1.0]])
    assert np.array_equal(op.apply_many(values), values)
    assert np.array_equal(op.apply_coeffs(values[2]), values[2])
    out = tmp_path / "grad.json"
    assert main(["gradcheck", "--problem", str(PROBLEMS / "cubic2d.cfg"), "--output", str(out)]) == 0
    assert json.loads(out.read_text())["max_rel_discrepancy"] <= 1e-6


def test_genus_of_sphere():
    assert genus_of_sphere(1) == 1
    assert genus_of_sphere(2) == 2
    assert genus_of_sphere(3) == 3
    with pytest.raises(ValueError):
        genus_of_sphere(0)


def test_span_form_probe():
    basis = [basis_vector(k, 4) for k in (1, 2, 3)]
    out = span_form_probe(LinearOperatorSpec.scaled_identity(2.0, 4), basis)
    assert out["dimension"] == 3
    assert out["negative_definite"] is True
    assert all(v == pytest.approx(-0.5) for v in out["eigenvalues"])
    out2 = span_form_probe(LinearOperatorSpec.scaled_identity(0.5, 4), basis)
    assert out2["negative_definite"] is False


def test_report_serialization_round_trips():
    rep = check_h1(LinearOperatorSpec.scaled_identity(2.0, 2), E1)
    payload = rep.to_dict()
    assert set(payload) == {"name", "verdict", "margin", "witnesses", "grid", "note"}
    text = json.dumps(payload, sort_keys=True)
    assert json.loads(text) == payload
    assert isinstance(rep, HypothesisReport)
