"""Two-point Dirichlet boundary value problems as fixed-point problems.

Solutions of

    -u''(t) = f(t, u(t)),   u(0) = u(1) = 0

are the fixed points of the Green-kernel operator

    (A u)(t) = int_0^1 G(t, s) f(s, u(s)) ds,
    G(t, s)  = t (1 - s) for t <= s,   s (1 - t) for s <= t.

In the sine basis the H1_0 projection of A u has coefficients

    c_k(A u) = int_0^1 f(t, u(t)) e_k(t) dt,

the exact composition of the Green integral with the projection (the kernel
side integrates in closed form against e_k).  This is how the operator is
assembled here: it keeps the operator self-adjoint for linear f and the
energy/gradient pair consistent to rounding, which the descent tolerances
rely on.  Profiles are evaluated pointwise from the sine series
(space.evaluate).  The kernel itself, the reference of acceptance criterion
c06, lives with the tests (tests/analytic_reference.py).

The module also provides the comparison operator B u = G * (a1 u) as its
k x k block on span{e_1, ..., e_k}, the span the conditions read it on
(b_matrix), the solvability condition checkers (D1)-(D4), the Dirichlet
eigenvalues, a family of ready-made nonlinearities, and an independent
shooting oracle for cross-validating solver output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Callable

import numpy as np

from .hypotheses import FAIL, SAMPLED_PASS, STRICT_TOL, PASS, HypothesisReport, open_grid
from .operators import LinearOperatorSpec, OperatorDivergenceError, PotentialOperatorSpec, batches
from .space import (
    Grid,
    SpaceConfig,
    gauss_rule,
    moments,
    panel_analysis,
    profiles,
    row_cells,
)

__all__ = [
    "Nonlinearity",
    "ORACLE_GRID_POINTS",
    "ShootingResult",
    "ShootingSolution",
    "b_matrix",
    "bvp_operator",
    "check_d1",
    "check_d2",
    "check_d3",
    "check_d4",
    "d1_magnitudes",
    "dirichlet_eigenvalue",
    "sublinear_affine",
    "linear_nonlinearity",
    "power_nonlinearity",
    "shooting_oracle",
    "zero_nonlinearity",
]


@dataclass(frozen=True, eq=False)
class Nonlinearity:
    """Right-hand side f(t, u) with its growth data.

    f, a1, a2, a3 are vectorized callables.  a1 is the comparison weight
    (essentially bounded, with inf m and sup M estimated on the quadrature
    grid); a2, a3 bound the growth f <= a2 |u|^theta + a3.  antiderivative,
    when given, is F(t, u) = int_0^u f(t, v) dv in closed form and makes the
    descent energy exactly consistent with the operator.  degree, when
    given, declares f positively homogeneous of that degree in u,
    f(t, s u) = s**degree f(t, u) for every s > 0, so that the ray forms
    take one f evaluation a ray (bvp_operator), not an apply a point of s.
    """

    f: Callable[[np.ndarray, np.ndarray], np.ndarray]
    theta: float
    a1: Callable[[np.ndarray], np.ndarray]
    a2: Callable[[np.ndarray], np.ndarray]
    a3: Callable[[np.ndarray], np.ndarray]
    antiderivative: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    label: str = "nonlinearity"
    degree: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.theta < 1.0:
            raise ValueError("theta must lie in [0, 1)")

    @property
    def has_forms(self) -> bool:
        """Whether bvp_operator gives a forms_batch: for a declared degree."""
        return self.degree is not None

    def coefficient_range(self, cfg: SpaceConfig) -> tuple[float, float]:
        """Grid estimates (m, M) of the essential range of a1."""
        nodes, _ = gauss_rule(cfg.quad_nodes, cfg.n_panels)
        vals = np.asarray(self.a1(nodes), dtype=float)
        return float(vals.min()), float(vals.max())


# the |u| values at which the oddness hook of bvp_operator compares
# f(t, -u) with -f(t, u)
_ODD_MAGNITUDES = np.geomspace(1e-8, 1e3, 100)
# the hook's magnitudes are geometric, m_(j-1) = s m_j for this s up to
# rounding, so for a declared degree d it compares f(t, s m) with
# s**d f(t, m) on neighbouring rows of the f(t, m) values it takes anyway.
# Below the normal floats a value keeps no relative digits to compare
_DEGREE_SCALE = float(_ODD_MAGNITUDES[0] / _ODD_MAGNITUDES[1])
_DEGREE_RTOL = 1e-12


def _check_degree(nl: Nonlinearity, fm: np.ndarray) -> None:
    """Raise ValueError unless each row of fm = f(t, m), m consecutive
    _ODD_MAGNITUDES, matches _DEGREE_SCALE**degree times the row after it,
    to a relative _DEGREE_RTOL or within the smallest normal float (equal
    infinities match; a mismatch on a non-finite value is named so)."""
    lower, expected = fm[:-1], _DEGREE_SCALE**nl.degree * fm[1:]
    if not np.allclose(lower, expected, rtol=_DEGREE_RTOL, atol=np.finfo(float).tiny):
        if not np.isfinite(fm).all():
            raise ValueError(f"{nl.label}: f(t, u) is non-finite on the degree sample, |u| <= 1e3")
        raise ValueError(
            f"{nl.label}: f(t, s u) differs from s**{nl.degree} f(t, u) at s = {_DEGREE_SCALE:.6g}"
        )


def bvp_operator(nl: Nonlinearity, cfg: SpaceConfig, odd: bool = True) -> PotentialOperatorSpec:
    """The fixed-point operator of the boundary value problem.

    The potential is the integral of F(t, u(t)) over the grid, using the
    closed-form antiderivative when the nonlinearity carries one (then the
    discrete gradient equals u - A(u) to rounding) and a 16-point inner
    Gauss-Legendre rule along the ray otherwise.  When nl declares a
    degree d, f(t, s u) = s**d f(t, u), so the forms (A(s u), u) of the ray
    checks are s**d times the grid sum of w f(t, u(t)) u(t), from one
    synthesis and one f evaluation of each ray and no moments
    (forms_batch); without a degree forms_batch is None and ray_forms
    applies the operator to the scaled rays.
    Operators built with odd=True are validated for oddness at
    construction.  Their hook (apply_batch.odd_at) compares f(t, -m) with
    -f(t, m) at every grid node t and 100 log-spaced magnitudes m in
    [1e-8, 1e3], a range that holds the profiles of the sampled rows, and
    needs no synthesis; only where f differs are the rows applied both ways
    (operators._check_oddness).  The check samples f and proves nothing:
    with odd=True, a custom f is checked only at those nodes and
    magnitudes, so an f that is not odd between them or above 1e3 passes.
    Pass odd=False for nonlinearities that are not odd in u (they fall
    outside the pair-existence machinery).  A declared degree is sampled
    the same way, not trusted: on the hook's f(t, m) values, f(t, s m) must
    match s**d f(t, m) for s = _DEGREE_SCALE (the ratio of neighbouring
    magnitudes, about 0.77) to a relative _DEGREE_RTOL at every node and
    magnitude, or the build raises ValueError; with odd=False the build
    runs the hook for that alone.  The closures hold the operator's own
    space.Grid of cfg.
    """
    g = Grid(cfg)
    nodes, weights = g.nodes, g.weights

    def apply_batch(stacked: np.ndarray) -> np.ndarray:
        # f's values are weighted into the profile's own array, which nothing
        # reads after f: one (B, N) array is held through the analysis
        values = profiles(stacked, g)
        return moments(np.multiply(nl.f(nodes, values), weights, out=values), g)

    def odd_at() -> bool:
        # profiles, the weights and moments are linear, and each of their
        # roundings flips sign with its input, so apply_batch is odd value
        # for value wherever f is.  f is compared at every grid node and
        # every _ODD_MAGNITUDES value, a sample of the |u(t)| the oddness
        # check's rows reach: their norms are at most 10, and |u(t)| <=
        # ||u|| / 2 in H1_0.  One f call takes all 100 magnitudes on one of
        # the operators.batches of the nodes, up to 655 of them.  A declared
        # degree is compared on the same f(t, m) values, each chunk holding
        # every pair of neighbouring magnitudes, so it is sampled at every
        # magnitude whatever the oddness verdict
        m = _ODD_MAGNITUDES[:, None]
        odd_so_far = True
        for cols in batches(nodes.size, _ODD_MAGNITUDES.size):
            t = nodes[None, cols]
            with np.errstate(over="ignore", invalid="ignore"):
                fm = nl.f(t, m)
                odd_so_far = odd_so_far and np.array_equal(nl.f(t, -m), -fm)
                if nl.degree is not None:
                    _check_degree(nl, fm)
                elif not odd_so_far:
                    return False
        return odd_so_far

    apply_batch.odd_at = odd_at  # type: ignore[attr-defined]
    if nl.degree is not None and not odd:
        odd_at()

    def forms_batch(rays: np.ndarray, s: np.ndarray) -> np.ndarray:
        # (A(s u), u) = sum_k u_k sum_i w_i f(t_i, s u(t_i)) e_k(t_i)
        #             = s**d sum_i w_i f(t_i, u(t_i)) u(t_i):
        # one synthesis of the rays, one f call and no moments.  The grid
        # sum is numpy's, along each row's contiguous axis, not a BLAS call,
        # so its bytes do not depend on the BLAS thread count
        values = profiles(rays, g)
        base = (nl.f(nodes, values) * (weights * values)).sum(axis=-1)
        return base[:, None] * s**nl.degree

    # the grid profile of the last single point: the descent asks for the
    # potential and then the apply at the same point, and both callables are
    # public, so the point is matched by value, not identity
    last: list[Any] = [None, None]

    def profile_row(c: np.ndarray) -> np.ndarray:
        key = (c.dtype, c.tobytes())
        if key != last[0]:
            # the same one-row synthesis as apply_batch, so that the apply
            # below matches it bit for bit
            last[0], last[1] = key, profiles(c[None, :], g)
        return last[1]

    def apply_coeffs(c: np.ndarray) -> np.ndarray:
        # the cached profile is read, not overwritten
        return moments(nl.f(nodes, profile_row(c)) * weights, g)[0]

    if nl.antiderivative is not None:
        anti = nl.antiderivative

        def potential(c: np.ndarray) -> float:
            profile = profile_row(c)[0]
            return float(np.vdot(weights, np.asarray(anti(nodes, profile))))

    else:
        sv, wv = gauss_rule(16)

        def potential(c: np.ndarray) -> float:
            profile = profile_row(c)[0]
            scaled = sv[:, None] * profile
            fvals = nl.f(nodes, scaled)
            return float(np.vdot(weights, profile * np.tensordot(wv, fvals, 1)))

    return PotentialOperatorSpec(
        n_modes=cfg.n_modes,
        apply_coeffs=apply_coeffs,
        odd=odd,
        theta=nl.theta,
        potential_coeffs=potential,
        apply_batch=apply_batch,
        forms_batch=forms_batch if nl.has_forms else None,
        label=f"bvp({nl.label})",
        row_width=row_cells(cfg),
    )


def b_matrix(a1: Callable[[np.ndarray], np.ndarray], cfg: SpaceConfig, k: int) -> LinearOperatorSpec:
    """The comparison operator B u = int G(t,s) a1(s) u(s) ds on span{e_1, ..., e_k}.

    In the sine basis B has entries int a1 e_i e_j dt.  Since
    2 sin(i x) sin(j x) = cos((i-j) x) - cos((i+j) x), they are

        B_ij = (C_|i-j| - C_(i+j)) / (i j pi^2),   C_m = int a1 cos(m pi t) dt,

    so the k x k block takes the 2k+1 cosine moments of a1 on the
    quadrature grid, the real parts of one space.panel_analysis.  It is
    symmetric bit for bit.
    """
    # the bins j <= 2k are those of the grid of 2k modes on the same rule
    g = Grid(replace(cfg, n_modes=2 * k))
    weighted = g.weights * np.asarray(a1(g.nodes), dtype=float)
    c = panel_analysis(weighted[None, :], g, cosine=True)[0]
    idx = np.arange(1, k + 1)
    m = c[np.abs(idx[:, None] - idx)] - c[idx[:, None] + idx]
    kpi = idx * np.pi
    m /= np.outer(kpi, kpi)
    return LinearOperatorSpec(matrix=m)


# ---------------------------------------------------------------------------
# solvability condition checkers


# (D1) and (D2) sample this many t-points and |u|-magnitudes of each sign
_D_GRID = 64


def d1_magnitudes(r1: float) -> np.ndarray:
    """The |u| samples of (D1), r1 * logspace(-8, 0).

    Raises ValueError unless r1 lies in (0, 1) and every sample is a normal
    float: below the normals f(t, u)/u loses its digits, and at zero it is
    0/0.
    """
    if not 0.0 < r1 < 1.0:
        raise ValueError("r1 must lie in (0, 1)")
    u_pos = r1 * np.logspace(-8, 0, _D_GRID)
    if not u_pos[0] >= np.finfo(float).tiny:
        raise ValueError(f"r1 = {r1!r} takes the (D1) samples below the normal floats")
    return u_pos


def check_d1(nl: Nonlinearity, r1: float) -> HypothesisReport:
    """f(t, u)/u >= a1(t) for 0 < |u| <= r1, sampled on a (t, u) grid.

    The u-grid is log-spaced in (0, r1] (d1_magnitudes) plus mirrored
    negatives: the bound is tightest near |u| = r1 for sublinear
    nonlinearities.
    """
    t = open_grid(_D_GRID)
    u_pos = d1_magnitudes(r1)
    u = np.concatenate([-u_pos[::-1], u_pos])
    tt, uu = np.meshgrid(t, u, indexing="ij")
    gaps = nl.f(tt, uu) / uu - nl.a1(tt)
    i, j = np.unravel_index(int(np.argmin(gaps)), gaps.shape)
    margin = float(gaps[i, j])
    verdict = SAMPLED_PASS if margin >= -STRICT_TOL else FAIL
    return HypothesisReport(
        name="(D1)",
        verdict=verdict,
        margin=margin,
        witnesses=[{"t": float(tt[i, j]), "u": float(uu[i, j])}],
        grid={"nt": _D_GRID, "nu": 2 * _D_GRID, "r1": r1},
    )


def check_d2(nl: Nonlinearity) -> HypothesisReport:
    """f(t, u) <= a2(t) |u|^theta + a3(t), sampled over t and |u| <= 1e3."""
    t = open_grid(_D_GRID)
    u_pos = np.logspace(-6, 3, _D_GRID)
    u = np.concatenate([-u_pos[::-1], [0.0], u_pos])
    tt, uu = np.meshgrid(t, u, indexing="ij")
    gaps = nl.a2(tt) * np.abs(uu) ** nl.theta + nl.a3(tt) - nl.f(tt, uu)
    i, j = np.unravel_index(int(np.argmin(gaps)), gaps.shape)
    margin = float(gaps[i, j])
    verdict = SAMPLED_PASS if margin >= -STRICT_TOL else FAIL
    return HypothesisReport(
        name="(D2)",
        verdict=verdict,
        margin=margin,
        witnesses=[{"t": float(tt[i, j]), "u": float(uu[i, j])}],
        grid={"nt": _D_GRID, "nu": 2 * _D_GRID + 1, "u_max": 1e3},
    )


def check_d3(nl: Nonlinearity, cfg: SpaceConfig) -> HypothesisReport:
    """Is there an orthonormal pair with m |e_i|_{L2} > 1 for both members?

    The best pair is known in closed form.  In the sine basis |e|^2_{L2} has
    eigenvalues 1/(k pi)^2, so by Ky Fan's maximum principle no orthonormal
    pair has min(|e|^2, |e'|^2) above (1/pi^2 + 1/(4 pi^2))/2 = 5/(8 pi^2),
    and the pair (e1 +- e2)/sqrt(2) attains it.  Both the stated reading
    m |e|_{L2} > 1 and the squared variant m |e|^2_{L2} > 1 are reported,
    because the two appear interchangeably in derivations of this condition.
    The Poincare inequality caps |e|_{L2} at 1/pi for unit vectors, so the
    analytic ceiling m/pi is reported alongside: the condition is
    infeasible whenever m <= pi.  The verdict stays sampled because m is a
    grid estimate.
    """
    m_inf, _ = nl.coefficient_range(cfg)
    notes = []
    if cfg.n_modes >= 2:
        best_pair = "(e1+e2)/sqrt2, (e1-e2)/sqrt2"
        best_min_l2 = math.sqrt(5.0 / 8.0) / math.pi
    else:
        best_pair = ""
        best_min_l2 = 0.0
        notes.append("no orthonormal pair in a one-mode space")
    margin_stated = m_inf * best_min_l2 - 1.0
    margin_squared = m_inf * best_min_l2**2 - 1.0
    margin = max(margin_stated, margin_squared)
    verdict = SAMPLED_PASS if margin > STRICT_TOL else FAIL
    ceiling = m_inf / np.pi
    if ceiling <= 1.0:
        notes.append(
            f"infeasible for any unit vector: |e|_L2 <= 1/pi, so "
            f"m|e|_L2 <= {ceiling:.6f} <= 1"
        )
    return HypothesisReport(
        name="(D3)",
        verdict=verdict,
        margin=margin,
        witnesses=[
            {
                "m": m_inf,
                "best_pair": best_pair,
                "best_min_l2_norm": best_min_l2,
                "margin_stated": margin_stated,
                "margin_squared": margin_squared,
                "analytic_ceiling": float(ceiling),
            }
        ],
        note="; ".join(notes),
    )


def check_d4(m: float, big_m: float) -> HypothesisReport:
    """M^2 + 2 pi^2 m < pi^4 + m^2; margin is pi^4 + m^2 - M^2 - 2 pi^2 m."""
    m, big_m = np.float64(m), np.float64(big_m)
    with np.errstate(over="ignore", invalid="ignore"):
        margin = np.pi**4 + m**2 - big_m**2 - 2.0 * np.pi**2 * m
        if not np.isfinite(margin):  # m^2 or M^2 overflows
            margin = np.pi**4 + (m - big_m) * (m + big_m) - 2.0 * np.pi**2 * m
    if not np.isfinite(margin):
        raise OperatorDivergenceError(f"non-finite (D4) margin at m = {m:.3e}, M = {big_m:.3e}")
    verdict = PASS if margin > STRICT_TOL else FAIL
    return HypothesisReport(
        name="(D4)",
        verdict=verdict,
        margin=float(margin),
        witnesses=[{"m": float(m), "M": float(big_m)}],
    )


# ---------------------------------------------------------------------------
# eigenvalues


def dirichlet_eigenvalue(k: int, method: str = "spectral", n: int = 1000) -> float:
    """k-th eigenvalue of -u'' = lambda u with u(0) = u(1) = 0.

    "spectral" returns (k pi)^2 exactly (the sine basis diagonalizes the
    operator); "finite-difference" returns the k-th smallest eigenvalue of
    the second-difference matrix on n interior points, which converges at
    rate O(n^-2).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if method == "spectral":
        return float((k * np.pi) ** 2)
    if method == "finite-difference":
        if n < 3:
            raise ValueError("finite-difference needs n >= 3")
        if k > n:
            raise ValueError("k exceeds matrix size")
        from scipy.linalg import eigh_tridiagonal

        h = 1.0 / (n + 1)
        diag = np.full(n, 2.0 / h**2)
        off = np.full(n - 1, -1.0 / h**2)
        vals = eigh_tridiagonal(diag, off, select="i", select_range=(k - 1, k - 1), eigvals_only=True)
        return float(vals[0])
    raise ValueError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# nonlinearity families


def _odd_power(u: np.ndarray, theta: float) -> np.ndarray:
    # sign(u) |u|**theta, with one temporary (the sign) beside the result:
    # the same roundings as the product of the two, since x y == y x
    out = np.absolute(u, dtype=float)
    out **= theta
    out *= np.sign(u)
    return out


def sublinear_affine(r1: float = 0.25, theta: float = 0.5) -> Nonlinearity:
    """The worked sublinear family: a1 = 1 + t, a2 = r1^(1-theta) a1, a3 = t,
    f(t, u) = a2(t) * sign(u) |u|^theta.

    Odd by construction; m = 1 and M = 2.  Satisfies (D1), (D2), (D4); the
    checker reports (D3) infeasible since m = 1 < pi caps m |e|_{L2} below
    one for every unit vector.
    """
    if not 0.0 < r1 < 1.0:
        raise ValueError("r1 must lie in (0, 1)")
    if not 0.0 <= theta < 1.0:
        raise ValueError("theta must lie in [0, 1)")
    scale = r1 ** (1.0 - theta)

    def a1(t):
        return 1.0 + t

    def a2(t):
        return scale * (1.0 + t)

    def a3(t):
        return np.asarray(t, dtype=float)

    return Nonlinearity(
        f=lambda t, u: a2(t) * _odd_power(u, theta),
        theta=theta,
        a1=a1,
        a2=a2,
        a3=a3,
        antiderivative=lambda t, u: a2(t) * np.abs(u) ** (1.0 + theta) / (1.0 + theta),
        label=f"sublinear(r1={r1}, theta={theta})",
        degree=theta,
    )


def power_nonlinearity(amplitude: float = 10.0, theta: float = 0.5) -> Nonlinearity:
    """f(t, u) = amplitude * sign(u) |u|^theta, constant in t."""
    if amplitude <= 0.0:
        raise ValueError("amplitude must be positive")

    return Nonlinearity(
        f=lambda t, u: amplitude * _odd_power(u, theta),
        theta=theta,
        a1=lambda t: np.full_like(np.asarray(t, dtype=float), amplitude),
        a2=lambda t: np.full_like(np.asarray(t, dtype=float), amplitude),
        a3=lambda t: np.full_like(np.asarray(t, dtype=float), 0.01),
        antiderivative=lambda t, u: amplitude * np.abs(u) ** (1.0 + theta) / (1.0 + theta),
        label=f"power(amplitude={amplitude}, theta={theta})",
        degree=theta,
    )


def linear_nonlinearity(lam: float) -> Nonlinearity:
    """f(t, u) = lam * u; resonant exactly at the Dirichlet eigenvalues."""
    return Nonlinearity(
        f=lambda t, u: lam * u,
        theta=0.0,
        a1=lambda t: np.full_like(np.asarray(t, dtype=float), lam),
        a2=lambda t: np.full_like(np.asarray(t, dtype=float), abs(lam)),
        a3=lambda t: np.full_like(np.asarray(t, dtype=float), 1.0),
        antiderivative=lambda t, u: lam * u**2 / 2.0,
        label=f"linear(lam={lam})",
        degree=1.0,
    )


def zero_nonlinearity() -> Nonlinearity:
    """f = 0; the operator is identically zero and only the trivial solution exists."""
    return Nonlinearity(
        f=lambda t, u: np.zeros_like(np.asarray(u, dtype=float)),
        theta=0.0,
        a1=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        a2=lambda t: np.full_like(np.asarray(t, dtype=float), 1e-9),
        a3=lambda t: np.full_like(np.asarray(t, dtype=float), 1e-9),
        antiderivative=lambda t, u: np.zeros_like(np.asarray(u, dtype=float)),
        label="zero",
        degree=1.0,
    )


# ---------------------------------------------------------------------------
# shooting oracle


@dataclass(frozen=True, eq=False)
class ShootingSolution:
    sigma: float  # initial slope u'(0)
    us: np.ndarray  # u at ORACLE_GRID_POINTS uniform t-points, u(1) last


@dataclass(frozen=True, eq=False)
class ShootingResult:
    solutions: list[ShootingSolution]
    degenerate: bool

    def to_dict(self) -> dict[str, Any]:
        return {
            "n_solutions": len(self.solutions),
            "sigmas": [s.sigma for s in self.solutions],
            "degenerate": self.degenerate,
        }


def _rk4(f, sigmas: np.ndarray, n_steps: int, stride: int) -> np.ndarray:
    """Integrate u'' = -f(t, u), u(0) = 0, u'(0) = sigma for a batch of slopes.

    Classic fourth-order steps of size 1/n_steps.  f receives the scalar t
    and must broadcast it against u.  Row k holds u(t; sigmas[k]) at t = 0
    and after every stride-th step, so the last column is u(1).
    """
    p = np.asarray(sigmas, dtype=float)
    u = np.zeros_like(p)
    h = 1.0 / n_steps
    out = np.zeros((p.size, n_steps // stride + 1))
    for i in range(n_steps):
        t = i * h
        k1u, k1p = p, -f(t, u)
        k2u, k2p = p + 0.5 * h * k1p, -f(t + 0.5 * h, u + 0.5 * h * k1u)
        k3u, k3p = p + 0.5 * h * k2p, -f(t + 0.5 * h, u + 0.5 * h * k2u)
        k4u, k4p = p + h * k3p, -f(t + h, u + h * k3u)
        u = u + h / 6.0 * (k1u + 2 * k2u + 2 * k3u + k4u)
        p = p + h / 6.0 * (k1p + 2 * k2p + 2 * k3p + k4p)
        if (i + 1) % stride == 0:
            out[:, (i + 1) // stride] = u
    return out


# the oracle samples its profiles at this many uniform t-points, and the
# CLI writes the solver's profiles on the same points
ORACLE_GRID_POINTS = 1001


def shooting_oracle(
    nl: Nonlinearity,
    slope_range: tuple[float, float],
    n_slopes: int = 40,
    tol: float = 1e-10,
    n_steps: int = 4000,
) -> ShootingResult:
    """Independent solver: integrate u'' = -f(t, u), u(0) = 0, u'(0) = sigma
    over a slope grid and refine each sign change of u(1) by Brent's method.

    Fourth-order one-step integration with fixed step; the returned profiles
    are sampled on a uniform grid of ORACLE_GRID_POINTS points, so
    ORACLE_GRID_POINTS - 1 must divide n_steps.  A root is kept only when its profile ends within
    max(tol, 1e-12 max(1, |sigma|)) of zero.  If three or more consecutive
    scan slopes already satisfy |u(1)| below the detection threshold the
    problem is flagged degenerate (a resonant continuum) and no roots are
    emitted.
    """
    lo, hi = float(slope_range[0]), float(slope_range[1])
    if not hi > lo:
        raise ValueError("slope_range must be increasing")
    if n_slopes < 2:
        raise ValueError("n_slopes must be >= 2")
    stride, rest = divmod(n_steps, ORACLE_GRID_POINTS - 1)
    if stride < 1 or rest != 0:
        raise ValueError(f"n_steps must be a positive multiple of {ORACLE_GRID_POINTS - 1}")
    from scipy.optimize import brentq

    sigmas = np.linspace(lo, hi, n_slopes)
    terminal = _rk4(nl.f, sigmas, n_steps, n_steps)[:, -1]

    detection = 1e-6 * np.maximum(1.0, np.abs(sigmas))
    small = np.abs(terminal) < detection
    run = 0
    for flag in small:
        run = run + 1 if flag else 0
        if run >= 3:
            return ShootingResult(solutions=[], degenerate=True)

    def u1(sigma: float) -> float:
        return float(_rk4(nl.f, np.array([sigma]), n_steps, n_steps)[0, -1])

    roots: list[float] = []
    for i in range(n_slopes - 1):
        fa, fb = terminal[i], terminal[i + 1]
        if fa == 0.0:
            roots.append(float(sigmas[i]))
        elif fa * fb < 0.0:
            roots.append(float(brentq(u1, sigmas[i], sigmas[i + 1])))
    if terminal[-1] == 0.0:
        roots.append(float(sigmas[-1]))

    solutions = []
    if roots:
        profiles = _rk4(nl.f, np.array(roots), n_steps, stride)
        for sigma, us in zip(roots, profiles):
            if abs(us[-1]) <= max(tol, 1e-12 * max(1.0, abs(sigma))):
                solutions.append(ShootingSolution(sigma=sigma, us=us))
    return ShootingResult(solutions=solutions, degenerate=False)
