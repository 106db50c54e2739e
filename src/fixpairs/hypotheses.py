"""Machine-checkable verdicts for the pair-existence conditions.

Two families of conditions are checked, matching the two search modes of the
solver:

  one-pair mode   (H1)  (B1 e1, e1) > 1
                  (H2)  (A(s r1 e1), r1 e1) >= s r1^2 (B1 e1, e1)  on s in (0,1)

  two-pair mode   (H1)' (B2 e_i, e_i) > 1 for the orthonormal pair, and
                        (B2 e2, e3)^2 - (1 - (B2 e2,e2))(1 - (B2 e3,e3)) < 0
                  (H2)' (A(s u), u) >= (B2 (s u), u) on the circle of radius
                        r2 in span{e2, e3} and s in (0,1)

Conditions quantified over a continuum are checked on uniform grids with the
endpoints excluded, and such verdicts are reported as "sampled-pass": a grid
cannot certify an open-set quantifier.  Strict inequalities must clear a
small strictness tolerance; an exact-zero margin on a strict condition is a
fail.  Margins are signed distances to violation (positive = satisfied).
A checker that meets a non-finite value raises OperatorDivergenceError
instead of reporting it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .operators import LinearOperatorSpec, OperatorDivergenceError, PotentialOperatorSpec
from .space import H1Vector

__all__ = [
    "HypothesisReport",
    "QuadraticFormData",
    "STRICT_TOL",
    "check_h1",
    "check_h2",
    "check_h2_prime",
    "genus_of_sphere",
    "quadratic_form_margin",
    "span_form_probe",
]

STRICT_TOL = 1e-12

PASS = "pass"
FAIL = "fail"
SAMPLED_PASS = "sampled-pass"


@dataclass(frozen=True)
class HypothesisReport:
    name: str
    verdict: str
    margin: float
    witnesses: list[dict] = field(default_factory=list)
    grid: dict = field(default_factory=dict)
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.verdict in (PASS, SAMPLED_PASS)

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "verdict": self.verdict,
            "margin": self.margin,
            "witnesses": self.witnesses,
            "grid": self.grid,
            "note": self.note,
        }


@dataclass(frozen=True)
class QuadraticFormData:
    """Entries of the 2x2 comparison form and its discriminant."""

    b22: float
    b23: float
    b33: float
    discriminant: float
    circle_max: float


def _require_unit(e: H1Vector, name: str) -> None:
    if abs(e.norm() - 1.0) > 1e-10:
        raise ValueError(f"{name} must have unit norm (got {e.norm()!r})")


def _open_grid(n: int) -> np.ndarray:
    """n uniform points in the open interval (0, 1)."""
    return np.arange(1, n + 1) / (n + 1.0)


def _ray_gaps(A: PotentialOperatorSpec, u: np.ndarray, form: float, s: np.ndarray):
    """(gaps, lhs, rhs) of (A(s u), u) >= s (B u, u) on the s-grid; form = (B u, u)."""
    lhs = A.apply_many(s[:, None] * u[None, :]) @ u
    rhs = s * form
    gaps = lhs - rhs
    if not np.all(np.isfinite(gaps)):
        raise OperatorDivergenceError(f"non-finite ray gap at max |u_k| = {np.max(np.abs(u)):.3e}")
    return gaps, lhs, rhs


def check_h1(B1: LinearOperatorSpec, e1: H1Vector) -> HypothesisReport:
    """(B1 e1, e1) > 1, strictly."""
    _require_unit(e1, "e1")
    value = B1.form(e1, e1)
    margin = value - 1.0
    verdict = PASS if margin > STRICT_TOL else FAIL
    note = "" if verdict == PASS else "strict inequality not satisfied"
    return HypothesisReport(
        name="(H1)",
        verdict=verdict,
        margin=margin,
        witnesses=[{"form_value": value}],
        note=note,
    )


def check_h2(
    A: PotentialOperatorSpec,
    B1: LinearOperatorSpec,
    e1: H1Vector,
    r1: float,
    n_s: int = 256,
) -> HypothesisReport:
    """(A(s r1 e1), r1 e1) >= s r1^2 (B1 e1, e1) sampled on an s-grid."""
    _require_unit(e1, "e1")
    if r1 <= 0.0:
        raise ValueError("r1 must be positive")
    if n_s < 10:
        raise ValueError("n_s must be >= 10")
    s = _open_grid(n_s)
    # a numpy square is inf on overflow, where a Python float raises; _ray_gaps reports it
    with np.errstate(over="ignore", invalid="ignore"):
        gaps, lhs, rhs = _ray_gaps(A, r1 * e1.coeffs, np.float64(r1) ** 2 * B1.form(e1, e1), s)
    i = int(np.argmin(gaps))
    margin = float(gaps[i])
    verdict = SAMPLED_PASS if margin >= -STRICT_TOL else FAIL
    return HypothesisReport(
        name="(H2)",
        verdict=verdict,
        margin=margin,
        witnesses=[{"s": float(s[i]), "lhs": float(lhs[i]), "rhs": float(rhs[i])}],
        grid={"n_s": n_s},
    )


def _orthonormalize(e2: H1Vector, e3: H1Vector) -> tuple[np.ndarray, np.ndarray]:
    """Validate near-orthonormality, then Gram-Schmidt to exact orthonormality."""
    _require_unit(e2, "e2")
    _require_unit(e3, "e3")
    if abs(float(np.dot(e2.coeffs, e3.coeffs))) > 1e-10:
        raise ValueError("e2 and e3 must be orthogonal")
    a = e2.coeffs / np.linalg.norm(e2.coeffs)
    b = e3.coeffs - np.dot(a, e3.coeffs) * a
    b = b / np.linalg.norm(b)
    return a, b


def quadratic_form_margin(
    B2: LinearOperatorSpec, e2: H1Vector, e3: H1Vector
) -> tuple[QuadraticFormData, HypothesisReport]:
    """The 2x2 form conditions of the two-pair mode.

    Requires b22 > 1, b33 > 1 and discriminant b23^2 - (1-b22)(1-b33) < 0.
    Also reports the maximum over the unit circle of

        q(alpha, beta) = 0.5 (1-b22) alpha^2 + 0.5 (1-b33) beta^2
                         - alpha beta b23,

    the largest eigenvalue of the associated symmetric 2x2 form; its
    negativity is equivalent to the three inequalities and is what drives
    the energy below zero on the seed circle.
    """
    a, b = _orthonormalize(e2, e3)
    m = B2.matrix
    b22 = float(a @ (m @ a))
    b33 = float(b @ (m @ b))
    b23 = float(a @ (m @ b))
    with np.errstate(over="ignore", invalid="ignore"):
        discriminant = float(np.float64(b23) ** 2 - (1.0 - b22) * (1.0 - b33))
    if not np.isfinite(discriminant):
        raise OperatorDivergenceError(f"non-finite (H1)' form: b22 = {b22:.3e}, b33 = {b33:.3e}")
    s = np.array(
        [[0.5 * (1.0 - b22), -0.5 * b23], [-0.5 * b23, 0.5 * (1.0 - b33)]]
    )
    circle_max = float(np.linalg.eigvalsh(s)[-1])
    data = QuadraticFormData(
        b22=b22, b23=b23, b33=b33, discriminant=discriminant, circle_max=circle_max
    )
    margin = min(b22 - 1.0, b33 - 1.0, -discriminant, -circle_max)
    verdict = PASS if margin > STRICT_TOL else FAIL
    report = HypothesisReport(
        name="(H1)'",
        verdict=verdict,
        margin=margin,
        witnesses=[
            {
                "b22": b22,
                "b23": b23,
                "b33": b33,
                "discriminant": discriminant,
                "circle_max": circle_max,
            }
        ],
        note="" if verdict == PASS else "strict inequalities not satisfied",
    )
    return data, report


def check_h2_prime(
    A: PotentialOperatorSpec,
    B2: LinearOperatorSpec,
    e2: H1Vector,
    e3: H1Vector,
    r2: float,
    n_angle: int = 256,
    n_s: int = 256,
) -> HypothesisReport:
    """(A(s u), u) >= (B2 (s u), u) sampled on the circle and an s-grid."""
    if r2 <= 0.0:
        raise ValueError("r2 must be positive")
    if n_angle < 10 or n_s < 10:
        raise ValueError("n_angle and n_s must be >= 10")
    a, b = _orthonormalize(e2, e3)
    phis = 2.0 * np.pi * np.arange(n_angle) / n_angle
    s = _open_grid(n_s)
    margin = np.inf
    witness: dict = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for phi in phis:
            u = r2 * (np.cos(phi) * a + np.sin(phi) * b)
            gaps, _, _ = _ray_gaps(A, u, float(u @ (B2.matrix @ u)), s)
            i = int(np.argmin(gaps))
            if gaps[i] < margin:
                margin = float(gaps[i])
                witness = {"phi": float(phi), "s": float(s[i]), "gap": float(gaps[i])}
    verdict = SAMPLED_PASS if margin >= -STRICT_TOL else FAIL
    return HypothesisReport(
        name="(H2)'",
        verdict=verdict,
        margin=margin,
        witnesses=[witness],
        grid={"n_angle": n_angle, "n_s": n_s},
    )


def genus_of_sphere(subspace_dim: int) -> int:
    """Genus of a centered sphere in a d-dimensional subspace: exactly d.

    The map u -> u/||u|| sends the sphere odd-homeomorphically onto
    S^(d-1) in R^d, which pins the genus at d.
    """
    if subspace_dim < 1:
        raise ValueError("subspace_dim must be >= 1")
    return int(subspace_dim)


def span_form_probe(
    B: LinearOperatorSpec, basis: list[H1Vector]
) -> dict[str, Any]:
    """Experimental probe for seed spheres spanned by n orthonormal vectors.

    Computes the eigenvalues of 0.5 * (I - G) with G_ij = (B e_i, e_j) and
    reports whether the form is negative definite, i.e. whether the
    comparison estimate pushes the energy below zero on the whole sphere.
    No existence claim is attached to the outcome; for n > 2 this is a
    numeric sign report only.
    """
    if len(basis) < 1:
        raise ValueError("basis must be nonempty")
    n = len(basis)
    for i, e in enumerate(basis):
        _require_unit(e, f"basis[{i}]")
    for i in range(n):
        for j in range(i + 1, n):
            if abs(float(np.dot(basis[i].coeffs, basis[j].coeffs))) > 1e-10:
                raise ValueError("basis vectors must be pairwise orthogonal")
    gram = np.array([[B.form(bi, bj) for bj in basis] for bi in basis])
    gram = 0.5 * (gram + gram.T)
    eigenvalues = np.linalg.eigvalsh(0.5 * (np.eye(n) - gram))
    return {
        "dimension": n,
        "eigenvalues": [float(v) for v in eigenvalues],
        "negative_definite": bool(eigenvalues[-1] < -STRICT_TOL),
    }
