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
instead of reporting it.  (H2) and (H2)' take their left sides
(A(s u), u) from the operator's ray_forms, never the images A(s u)
themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .operators import LinearOperatorSpec, OperatorDivergenceError, PotentialOperatorSpec
from .space import H1Vector

__all__ = [
    "HypothesisReport",
    "STRICT_TOL",
    "check_h1",
    "check_h2",
    "check_h2_prime",
    "genus_of_sphere",
    "open_grid",
    "quadratic_form_margin",
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


def _require_unit(e: H1Vector, name: str) -> None:
    if abs(e.norm() - 1.0) > 1e-10:
        raise ValueError(f"{name} must have unit norm (got {e.norm()!r})")


def open_grid(n: int) -> np.ndarray:
    """n uniform points in the open interval (0, 1)."""
    return np.arange(1, n + 1) / (n + 1.0)


def _ray_gaps(A: PotentialOperatorSpec, rays: np.ndarray, forms: np.ndarray, s: np.ndarray):
    """(gaps, lhs, rhs) of (A(s u), u) >= s (B u, u) on the s-grid, one row
    per row u of rays; forms holds the (B u, u).

    lhs is one A.ray_forms call for all rays: an operator with a
    forms_batch (bvp, with a declared degree) evaluates each ray once,
    any other applies A to the scaled rows.
    """
    lhs = A.ray_forms(rays, s)
    rhs = forms[:, None] * s
    gaps = lhs - rhs
    finite = np.isfinite(gaps).all(axis=1)
    if not finite.all():
        u = rays[~finite][0]
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
    if not 0.0 < r1 < np.inf:  # rejects NaN as well
        raise ValueError("r1 must be positive and finite")
    if n_s < 10:
        raise ValueError("n_s must be >= 10")
    s = open_grid(n_s)
    # a numpy square is inf on overflow, where a Python float raises; _ray_gaps reports it
    with np.errstate(over="ignore", invalid="ignore"):
        form = np.float64(r1) ** 2 * B1.form(e1, e1)
        gaps, lhs, rhs = (row[0] for row in _ray_gaps(A, r1 * e1.coeffs[None, :], np.array([form]), s))
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
) -> HypothesisReport:
    """The 2x2 form conditions of the two-pair mode.

    Requires b22 > 1, b33 > 1 and discriminant b23^2 - (1-b22)(1-b33) < 0.
    Also reports the maximum over the unit circle of

        q(alpha, beta) = 0.5 (1-b22) alpha^2 + 0.5 (1-b33) beta^2
                         - alpha beta b23,

    the largest eigenvalue of the associated symmetric 2x2 form; its
    negativity is equivalent to the three inequalities and is what drives
    the energy below zero on the seed circle.
    """
    a, b = (H1Vector(x) for x in _orthonormalize(e2, e3))
    b22 = B2.form(a, a)
    b33 = B2.form(b, b)
    b23 = B2.form(b, a)
    with np.errstate(over="ignore", invalid="ignore"):
        discriminant = float(np.float64(b23) ** 2 - (1.0 - b22) * (1.0 - b33))
    if not np.isfinite(discriminant):
        raise OperatorDivergenceError(f"non-finite (H1)' form: b22 = {b22:.3e}, b33 = {b33:.3e}")
    s = np.array(
        [[0.5 * (1.0 - b22), -0.5 * b23], [-0.5 * b23, 0.5 * (1.0 - b33)]]
    )
    circle_max = float(np.linalg.eigvalsh(s)[-1])
    margin = min(b22 - 1.0, b33 - 1.0, -discriminant, -circle_max)
    verdict = PASS if margin > STRICT_TOL else FAIL
    return HypothesisReport(
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


def check_h2_prime(
    A: PotentialOperatorSpec,
    B2: LinearOperatorSpec,
    e2: H1Vector,
    e3: H1Vector,
    r2: float,
    n_angle: int = 256,
    n_s: int = 256,
) -> HypothesisReport:
    """(A(s u), u) >= (B2 (s u), u) sampled on the circle and an s-grid.

    The circle points, their forms and gaps are taken in A.ray_blocks, a
    point counted as its ray's A.ray_cells(n_s), which covers its
    coefficients and its n_s gaps, so that each block is one chunk of one
    ray_forms call.  The witness is the first minimum in (angle, s) order,
    as a scan angle by angle finds it.
    """
    if not 0.0 < r2 < np.inf:  # rejects NaN as well
        raise ValueError("r2 must be positive and finite")
    if n_angle < 10 or n_s < 10:
        raise ValueError("n_angle and n_s must be >= 10")
    a, b = _orthonormalize(e2, e3)
    s = open_grid(n_s)
    margin = np.inf
    witness: dict = {}
    with np.errstate(over="ignore", invalid="ignore"):
        for block in A.ray_blocks(n_angle, n_s):
            phis = 2.0 * np.pi * np.arange(block.start, block.stop) / n_angle
            circle = r2 * (np.cos(phis)[:, None] * a + np.sin(phis)[:, None] * b)
            gaps = _ray_gaps(A, circle, B2.forms(circle), s)[0]
            k, i = divmod(int(np.argmin(gaps)), n_s)
            if gaps[k, i] < margin:
                margin = float(gaps[k, i])
                witness = {"phi": float(phis[k]), "s": float(s[i]), "gap": margin}
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
