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
)
from fixpairs import cli
from fixpairs import operators as operators_mod
from fixpairs import space as space_mod
from fixpairs.cli import main
from fixpairs.hypotheses import _CHUNK_CELLS, HypothesisReport
from fixpairs.models import clipped_cubic_operator, linear_operator, radial_power_operator
from fixpairs.operators import _batches, _oddness_samples
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


@pytest.mark.parametrize(
    "problem, mode",
    [
        ("bvp_sqrt", "one_pair"),
        ("power_law_1d", "one_pair"),
        ("power_law_1d", "two_pair"),
        ("sublinear_affine", "two_pair"),
    ],
)
def test_checkers_reject_a_vector_outside_the_block(problem, mode):
    # e3 in the place of the checked span: the k x k comparison block has
    # no form for it and must not truncate one
    overrides = ["space.n_modes=4", f"problem.mode={mode}"]
    setup = load_problem(PROBLEMS / f"{problem}.cfg", overrides=overrides)
    e3 = basis_vector(3, 4)
    if setup.mode == "one_pair":
        with pytest.raises(ValueError, match="outside span"):
            check_h1(setup.comparison, e3)
        with pytest.raises(ValueError, match="outside span"):
            check_h2(setup.operator, setup.comparison, e3, setup.radius)
        return
    e1, e2 = setup.e_vectors
    with pytest.raises(ValueError, match="outside span"):
        quadratic_form_margin(setup.comparison, e1, e3)
    with pytest.raises(ValueError, match="outside span"):
        check_h2_prime(setup.operator, setup.comparison, e3, e2, setup.radius)


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
    minimum in (angle, s) order, with a strict < between angles.  Each
    angle's forms come from a ray_forms call of that one ray."""
    a = e2.coeffs / np.linalg.norm(e2.coeffs)
    b = e3.coeffs - np.dot(a, e3.coeffs) * a
    b = b / np.linalg.norm(b)
    s = np.arange(1, n_s + 1) / (n_s + 1.0)
    margin, witness = np.inf, {}
    for phi in 2.0 * np.pi * np.arange(n_angle) / n_angle:
        u = r2 * (np.cos(phi) * a + np.sin(phi) * b)
        gaps = A.ray_forms(u[None, :], s)[0] - s * B2.form(H1Vector(u), H1Vector(u))
        i = int(np.argmin(gaps))
        if gaps[i] < margin:
            margin = float(gaps[i])
            witness = {"phi": float(phi), "s": float(s[i]), "gap": float(gaps[i])}
    return margin, witness


def _angle_chunk(n_s, row_width):
    """Angles of one (H2)' ray_forms call in check_h2_prime's sweep."""
    return next(_batches(2**31, n_s * row_width, _CHUNK_CELLS)).stop


@pytest.mark.parametrize(
    "problem, n_angle, n_s",
    [
        ("cubic2d", None, None),
        ("linear2d", None, None),
        ("sublinear_affine", None, None),
        # chunks of 32 (cubic2d, linear2d) and 4 angles that do not divide
        # the circle
        ("cubic2d", 37, 256),
        ("linear2d", 37, 256),
        ("sublinear_affine", 37, 16),
    ],
)
def test_h2_prime_chunks_match_the_angle_scan(problem, n_angle, n_s):
    setup = load_problem(PROBLEMS / f"{problem}.cfg")
    hyp = replace(setup.hyp, n_angle=n_angle or setup.hyp.n_angle, n_s=n_s or setup.hyp.n_s)
    if n_angle is not None:
        assert n_angle % _angle_chunk(hyp.n_s, setup.space.n_modes) != 0
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
    # cells only): one ray_forms call of one ray and n_s points an angle,
    # and no batched apply, with the margin and witness of the
    # angle-by-angle scan
    overrides = [
        "problem.mode=two_pair",
        "space.n_modes=2",
        "space.n_panels=1024",
        "hypotheses.n_s=10",
        "hypotheses.n_angle=409",
    ]
    setup = load_problem(PROBLEMS / "bvp_sqrt.cfg", overrides)
    assert setup.operator.row_width == 8192 and _angle_chunk(10, setup.operator.row_width) == 1
    rows, rays = [], []

    def counted(stacked):
        rows.append(len(stacked))
        return setup.operator.apply_many(stacked)

    def counted_forms(chunk, s):
        rays.append((len(chunk), s.size))
        return setup.operator.ray_forms(chunk, s)

    op = replace(setup.operator, odd=False, apply_batch=counted, forms_batch=counted_forms)
    reports = []

    def recording(A, *args, **kwargs):
        reports.append(check_h2_prime(op, *args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(cli, "check_h2_prime", recording)
    cli.run_check(setup)
    assert rays == [(1, 10)] * 409
    assert rows == []
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
    # minimum at a smaller s, and no later chunk takes the tie over.  The
    # 2,048-point s-grid keeps 4 angles a chunk
    def apply_batch(v):
        on1 = (np.abs(v[:, 0]) > 0.4) & (np.abs(v[:, 1]) < 1e-3)
        on2 = (np.abs(v[:, 1]) > 0.2) & (np.abs(v[:, 0]) < 1e-3)
        return -np.column_stack([np.sign(v[:, 0]) * on1, np.sign(v[:, 1]) * on2])

    op = PotentialOperatorSpec(
        n_modes=2, apply_coeffs=lambda c: apply_batch(c[None, :])[0], apply_batch=apply_batch
    )
    zero = LinearOperatorSpec.scaled_identity(0.0, 2)
    n_angle, n_s = 12, 2048
    assert _angle_chunk(n_s, 2) == 4
    rep = check_h2_prime(op, zero, E1, E2, r2=0.5, n_angle=n_angle, n_s=n_s)
    witness = {"phi": 0.0, "s": 1640 / 2049, "gap": -0.5}
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
    rows, rays = [], []

    def counted(stacked):
        rows.append(len(stacked))
        return setup.operator.apply_many(stacked)

    def counted_forms(chunk, s):
        rays.append((len(chunk), s.size))
        return setup.operator.ray_forms(chunk, s)

    op = replace(
        setup.operator,
        odd=False,
        apply_batch=counted,
        forms_batch=counted_forms if setup.operator.forms_batch is not None else None,
    )
    e2, e3 = setup.e_vectors
    n_angle, n_s = setup.hyp.n_angle, setup.hyp.n_s
    check_h2_prime(op, setup.comparison, e2, e3, setup.radius, n_angle=n_angle, n_s=n_s)
    if problem == "sublinear_affine":
        # its 256-node grid profiles stay one angle at a time: a form call
        # of one ray and n_s points an angle, and no batched apply
        assert rays == [(1, n_s)] * n_angle
        assert rows == []
    else:
        assert rays == []
        assert sum(rows) == n_angle * n_s
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


def test_report_serialization_round_trips():
    rep = check_h1(LinearOperatorSpec.scaled_identity(2.0, 2), E1)
    payload = rep.to_dict()
    assert set(payload) == {"name", "verdict", "margin", "witnesses", "grid", "note"}
    text = json.dumps(payload, sort_keys=True)
    assert json.loads(text) == payload
    assert isinstance(rep, HypothesisReport)


# every shipped problem, and bvp_sqrt at 1,280 modes on 8,192 nodes, a
# table-free grid whose products take the panel transform
_CHUNK_LOADS = [(p.stem, []) for p in sorted(PROBLEMS.glob("*.cfg"))] + [
    ("bvp_sqrt", ["space.n_modes=1280", "space.n_panels=1024"])
]
_CHUNK_IDS = [":".join([p, *o]) for p, o in _CHUNK_LOADS]


def _assert_close(a, b, tol):
    """a == b, or each number of a within tol of b's when tol is non-zero."""
    if isinstance(a, dict):
        assert a.keys() == b.keys()
        for key in a:
            _assert_close(a[key], b[key], tol)
    elif isinstance(a, (list, tuple, np.ndarray)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            _assert_close(x, y, tol)
    elif tol and isinstance(a, float):
        assert abs(a - b) <= tol
    else:
        assert a == b


@pytest.mark.parametrize("problem, overrides", _CHUNK_LOADS, ids=_CHUNK_IDS)
def test_chunked_batches_change_no_result(monkeypatch, problem, overrides):
    # with chunks of one cell every checker batch splits into single rows,
    # and every s-grid into pairs of points: (H), (H2), (H2)' and the
    # oddness check keep their verdicts and witnesses.  Bit for bit, but
    # for a bvp batch on a table grid, whose moments round with the batch's
    # row count: its (H) values within 1e-14 of its largest norm
    path = PROBLEMS / f"{problem}.cfg"
    setup = load_problem(path, overrides=overrides)
    op = setup.operator
    table_route = setup.kind == "bvp" and not space_mod._table_free(setup.space)
    samples = np.vstack(list(_oddness_samples(op.n_modes, op.row_width)))
    plain = cli.run_check(setup)
    images = op.apply_many(samples)

    monkeypatch.setattr(operators_mod, "_BATCH_CELLS", 1)
    monkeypatch.setattr(operators_mod, "_GROWTH_CELLS", 1)
    chunked = cli.run_check(load_problem(path, overrides=overrides))
    reports = {r["name"]: r for r in plain["reports"]}
    for r in chunked["reports"]:
        tol = 0.0
        if table_route and r["name"] == "(H)":
            tol = 1e-14 * max(reports["(H)"]["witnesses"][0]["sample_maxima"])
        _assert_close(r, reports[r["name"]], tol)
    assert chunked["all_pass"] == plain["all_pass"]
    # the oddness rows: drawn a row at a time from the same stream, and
    # applied a row at a time by a copy without the bvp hook
    rows = list(_oddness_samples(op.n_modes, op.row_width))
    assert len(rows) == 100 and np.array_equal(np.vstack(rows), samples)
    batch = op.apply_batch
    unhooked = replace(op, apply_batch=lambda x: batch(x))
    chunked_images = np.vstack([unhooked.apply_many(u) for u in rows])
    _assert_close(chunked_images, images, 1e-14 * np.abs(images).max() if table_route else 0.0)


@pytest.mark.parametrize("problem, overrides", _CHUNK_LOADS, ids=_CHUNK_IDS)
def test_a_shipped_check_takes_each_batch_in_one_call(monkeypatch, problem, overrides):
    # every shipped batch but bvp_highres's (H) rows fits one chunk, so a
    # load and a check make the apply_many, ray_forms and forms_batch calls
    # of one call a batch: the oddness rows of a coefficient operator both
    # ways (a bvp load applies none), the (H) rows, the (H2) s-grid, and
    # one call for each chunk of whole (H)' angles.  bvp_highres's 48 (H)
    # rows of 16,384 transform cells take three calls of 16
    calls = []
    apply_many, ray_forms = PotentialOperatorSpec.apply_many, PotentialOperatorSpec.ray_forms

    def recording_apply(self, stacked):
        calls.append(("apply_many", stacked.shape))
        return apply_many(self, stacked)

    def recording_forms(self, rays, s):
        calls.append(("ray_forms", rays.shape, s.size))
        return ray_forms(self, rays, s)

    monkeypatch.setattr(PotentialOperatorSpec, "apply_many", recording_apply)
    monkeypatch.setattr(PotentialOperatorSpec, "ray_forms", recording_forms)
    setup = load_problem(PROBLEMS / f"{problem}.cfg", overrides=overrides)
    op, hyp, n = setup.operator, setup.hyp, setup.space.n_modes
    odd_rows = [] if setup.kind == "bvp" else [("apply_many", (100, n))] * 2
    assert calls == odd_rows
    calls.clear()
    forms_batch = op.forms_batch
    if forms_batch is not None:

        def recorded(rays, s):
            calls.append(("forms_batch", rays.shape, s.size))
            return forms_batch(rays, s)

        op = replace(op, odd=False, forms_batch=recorded)
    cli.run_check(replace(setup, operator=op))

    def ray_calls(k, n_s):
        inner = ("forms_batch", (k, n), n_s) if forms_batch else ("apply_many", (k * n_s, n))
        return [("ray_forms", (k, n), n_s), inner]

    h_calls = 3 if op.row_width == 16384 else 1
    h_rows = len(hyp.growth_radii) * hyp.dirs_per_radius
    expected = [("apply_many", (h_rows // h_calls, n))] * h_calls
    if setup.mode == "one_pair":
        expected += ray_calls(1, hyp.n_s)
    else:
        k = max(1, _CHUNK_CELLS // (hyp.n_s * op.row_width))
        assert hyp.n_angle % k == 0
        expected += ray_calls(k, hyp.n_s) * (hyp.n_angle // k)
    assert calls == expected
