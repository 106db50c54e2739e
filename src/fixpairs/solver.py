"""Symmetric multi-start descent for fixed points of odd potential operators.

Gradient descent with Armijo backtracking on the energy J, each search
starting at the Barzilai-Borwein step; the gradient is u - A(u), so the
gradient norm of an iterate IS its fixed-point residual.  Every seed is
descended from once: the operator is odd, so J is even and the descent from
-s is the mirror of the descent from s, and the start -s is recorded as that
mirror; so is a seed that is exactly the negative of an earlier seed (the
antipodes of an even circle).  Results below the trivial threshold
are discarded, and the survivors are deduplicated modulo sign into canonical
pairs.  When a seed lands in an already-found basin it is retried once on a
deflated energy: compactly supported bumps are added at the found points
(and their negatives), which pushes the retry out of the known basins
without destroying boundedness from below.  The deflated energy is even as
well, so the retry from s also stands for -s.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable

import numpy as np

from .operators import OperatorDivergenceError, PotentialOperatorSpec, energy_coeffs
from .space import H1Vector

__all__ = [
    "CriticalPoint",
    "DescentTrace",
    "OperatorDivergenceError",
    "SolveReport",
    "SolverConfig",
    "axis_seeds",
    "circle_seeds",
    "descend",
    "find_pairs",
    "ps_check",
]

_ARMIJO_C = 1e-4  # sufficient-decrease constant of the Armijo test
_ARMIJO_SHRINK = 0.5  # backtracking factor
_INIT_STEP = 1.0  # first trial step when there is no Barzilai-Borwein step


@dataclass(frozen=True)
class SolverConfig:
    max_iter: int = 500
    grad_tol: float = 1e-10
    dedup_tol: float = 1e-4
    deflation_radius: float | None = None  # None: 0.1 * ||found point||

    def __post_init__(self) -> None:
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        # "not >" forms so that NaN is rejected as well
        if not (self.grad_tol > 0.0 and self.dedup_tol > 0.0):
            raise ValueError("tolerances must be positive")
        if self.deflation_radius is not None and not self.deflation_radius > 0.0:
            raise ValueError("deflation_radius must be positive")


@dataclass(frozen=True, eq=False)
class CriticalPoint:
    u: H1Vector
    j_value: float
    grad_norm: float
    iterations: int

    @property
    def fp_residual(self) -> float:
        """||u - A(u)||, the same number as grad_norm because J' = I - A."""
        return self.grad_norm

    def to_dict(self) -> dict[str, Any]:
        return {
            "coeffs": [float(c) for c in self.u.coeffs],
            "j_value": self.j_value,
            "grad_norm": self.grad_norm,
            "fp_residual": self.fp_residual,
            "iterations": self.iterations,
        }


@dataclass(frozen=True, eq=False)
class DescentTrace:
    j_values: list[float]
    grad_norms: list[float]
    steps: list[float]
    n_polish: int = 0  # residual-polish iterations appended after the Armijo phase


@dataclass(frozen=True, eq=False)
class SolveReport:
    pairs: list[CriticalPoint]  # canonical representatives; -u is implied
    n_pairs: int
    ps_trace: list[list[tuple[float, float]]]  # (J, ||J'||) per start
    rejected_trivial: int
    n_starts: int
    n_nonconverged: int
    note: str = ""

    def to_dict(self) -> dict[str, Any]:
        return {
            "pairs": [p.to_dict() for p in self.pairs],
            "n_pairs": self.n_pairs,
            "rejected_trivial": self.rejected_trivial,
            "n_starts": self.n_starts,
            "n_nonconverged": self.n_nonconverged,
            "note": self.note,
        }


def _minimize(
    j_fn: Callable[[np.ndarray], float],
    g_fn: Callable[[np.ndarray], np.ndarray],
    c0: np.ndarray,
    cfg: SolverConfig,
) -> tuple[np.ndarray, int, DescentTrace]:
    """Armijo-backtracked gradient descent; J never increases.

    The first trial step is _INIT_STEP on the first iteration and the
    Barzilai-Borwein step (s's)/(s'y) after it, with s and y the last
    change of iterate and gradient; when s'y <= 0, or the quotient is not a
    positive finite number, it is _INIT_STEP again.
    A search stops as soon as the trial point equals the iterate bitwise.
    """
    c = c0.copy()
    trace = DescentTrace(j_values=[], grad_norms=[], steps=[])
    j_cur = j_fn(c)
    iterations = 0
    c_prev = g_prev = None
    for _ in range(cfg.max_iter):
        if not np.isfinite(j_cur):
            raise OperatorDivergenceError(
                f"non-finite energy after {iterations} iterations (||u|| = {np.linalg.norm(c):.3e})"
            )
        g = g_fn(c)
        gn = float(np.linalg.norm(g))
        if not np.isfinite(gn):
            raise OperatorDivergenceError(
                f"non-finite gradient after {iterations} iterations"
            )
        trace.j_values.append(j_cur)
        trace.grad_norms.append(gn)
        if gn < cfg.grad_tol:
            trace.steps.append(0.0)
            return c, iterations, trace
        step = _INIT_STEP
        if c_prev is not None:
            s, y = c - c_prev, g - g_prev
            sy = float(s @ y)
            bb = float(s @ s) / sy if sy > 0.0 else 0.0
            if 0.0 < bb < np.inf:
                step = bb
        accepted = False
        while True:
            c_new = c - step * g
            if np.array_equal(c_new, c):
                break  # stalled: the step is below resolution
            j_new = j_fn(c_new)
            if j_new == -np.inf:
                # the energy is unbounded below along this direction
                raise OperatorDivergenceError(
                    f"energy diverged to -inf after {iterations} iterations "
                    f"(||u|| = {np.linalg.norm(c):.3e})"
                )
            if np.isfinite(j_new) and j_new <= j_cur - _ARMIJO_C * step * gn**2:
                accepted = True
                break
            step *= _ARMIJO_SHRINK
        trace.steps.append(step if accepted else 0.0)
        if not accepted:
            return c, iterations, trace
        if j_new == j_cur and step < 1e-6:
            # the energy is at its rounding floor and the step is tiny:
            # nothing left for the line search to resolve
            return c_new, iterations + 1, trace
        c_prev, g_prev = c, g
        c, j_cur = c_new, j_new
        iterations += 1
    trace.j_values.append(j_cur)
    trace.grad_norms.append(float(np.linalg.norm(g_fn(c))))
    trace.steps.append(0.0)
    return c, iterations, trace


def _energy_and_gradient(
    A: PotentialOperatorSpec,
) -> tuple[Callable[[np.ndarray], float], Callable[[np.ndarray], np.ndarray]]:
    def j_fn(c: np.ndarray) -> float:
        # overflow is handled by the caller (inf/nan trials are rejected,
        # -inf aborts), so let it propagate silently
        with np.errstate(over="ignore", invalid="ignore"):
            return energy_coeffs(A, c)

    def g_fn(c: np.ndarray) -> np.ndarray:
        return c - A.apply_coeffs(c)

    return j_fn, g_fn


def _polish(
    j_fn: Callable[[np.ndarray], float],
    g_fn: Callable[[np.ndarray], np.ndarray],
    c: np.ndarray,
    tol: float,
    trace: DescentTrace,
) -> tuple[np.ndarray, int]:
    """Full-step residual polish u <- u - J'(u) once the line search is done.

    Near a fixed point of a compact operator this map contracts and drives
    the residual to its rounding floor, below where the energy comparison of
    the Armijo test can still resolve a decrease.  The residual norm itself
    is monitored: the loop keeps the best iterate and stops as soon as a
    step fails to improve it, so non-contractive points are left untouched.
    """
    g = g_fn(c)
    best = float(np.linalg.norm(g))
    steps = 0
    for _ in range(200):
        if best < tol or not np.isfinite(best):
            break
        c_new = c - g
        g_new = g_fn(c_new)
        gn_new = float(np.linalg.norm(g_new))
        if not np.isfinite(gn_new) or gn_new >= best:
            break
        c, g, best = c_new, g_new, gn_new
        steps += 1
        trace.j_values.append(j_fn(c))
        trace.grad_norms.append(best)
        trace.steps.append(1.0)
    return c, steps


def _minimize_with_polish(
    j_fn: Callable[[np.ndarray], float],
    g_fn: Callable[[np.ndarray], np.ndarray],
    c0: np.ndarray,
    cfg: SolverConfig,
) -> tuple[np.ndarray, int, DescentTrace]:
    c, iterations, trace = _minimize(j_fn, g_fn, c0, cfg)
    if float(np.linalg.norm(g_fn(c))) >= cfg.grad_tol:
        c, n_polish = _polish(j_fn, g_fn, c, cfg.grad_tol, trace)
        trace = replace(trace, n_polish=n_polish)
        iterations += trace.n_polish
    return c, iterations, trace


def descend(A: PotentialOperatorSpec, u0: H1Vector, cfg: SolverConfig) -> CriticalPoint:
    """Run descent from u0; returns the critical-point record.

    Armijo descent first; if it exhausts what the energy's rounding can
    resolve while the residual is still above tolerance, a monotone
    residual polish finishes the job.  The returned grad_norm and
    fp_residual are the same number ||u - A(u)|| evaluated at the final
    iterate.  Raises OperatorDivergenceError when the energy blows up
    (e.g. the operator grows too fast for descent).
    """
    return _descend(A, _energy_and_gradient(A), u0.coeffs, cfg)[0]


def _descend(A: PotentialOperatorSpec, energy: tuple, c0: np.ndarray, cfg: SolverConfig):
    """Descend from c0 on the (J, J') pair energy; returns (point, trace).

    The point is scored on A's own energy and residual, also after a
    descent on the deflated energy.
    """
    c, iterations, trace = _minimize_with_polish(*energy, c0, cfg)
    point = CriticalPoint(
        u=H1Vector(c),
        j_value=energy_coeffs(A, c),
        grad_norm=float(np.linalg.norm(c - A.apply_coeffs(c))),
        iterations=iterations,
    )
    return point, trace


def ps_check(iterates: list[np.ndarray], v: H1Vector, A: PotentialOperatorSpec) -> float:
    """Numerical check of the compactness estimate along an iterate tail.

    Returns max_n [ ||u_n - v|| - (||J'(u_n)|| + ||A(u_n) - v||) ], which is
    bounded by zero up to rounding: the norm of u_n - v never exceeds the
    gradient norm plus the distance of A(u_n) to the limit candidate v.
    """
    worst = -np.inf
    vc = v.coeffs
    for c in iterates:
        img = A.apply_coeffs(c)
        g = float(np.linalg.norm(c - img))
        lhs = float(np.linalg.norm(c - vc))
        rhs = g + float(np.linalg.norm(img - vc))
        worst = max(worst, lhs - rhs)
    return float(worst)


def canonicalize(point: CriticalPoint, dedup_tol: float) -> CriticalPoint:
    """Pick the pair representative: first significant coefficient positive."""
    c = point.u.coeffs
    idx = np.flatnonzero(np.abs(c) > dedup_tol)
    lead = idx[0] if idx.size else int(np.argmax(np.abs(c)))
    if c[lead] < 0.0:
        return replace(point, u=-point.u)
    return point


def _is_duplicate(c: np.ndarray, found: list[CriticalPoint], tol: float) -> bool:
    for p in found:
        d = min(
            float(np.linalg.norm(c - p.u.coeffs)), float(np.linalg.norm(c + p.u.coeffs))
        )
        if d <= tol:
            return True
    return False


def _deflated_energy(
    A: PotentialOperatorSpec, found: list[CriticalPoint], cfg: SolverConfig
):
    """Energy plus compact bumps at every found point and its negative."""
    j_fn, g_fn = _energy_and_gradient(A)
    points = []
    radii = []
    amps = []
    for p in found:
        radius = (
            cfg.deflation_radius
            if cfg.deflation_radius is not None
            else 0.1 * max(p.u.norm(), 1e-12)
        )
        amp = 2.0 * max(1.0, abs(p.j_value))
        points.extend([p.u.coeffs, -p.u.coeffs])
        radii.extend([radius, radius])
        amps.extend([amp, amp])
    centers = np.array(points)
    r2 = np.array(radii) ** 2
    amp_arr = np.array(amps)

    def bump_terms(c: np.ndarray):
        diffs = c[None, :] - centers
        d2 = np.einsum("ij,ij->i", diffs, diffs)
        inside = d2 < r2
        if not np.any(inside):
            return 0.0, np.zeros_like(c)
        gap = r2[inside] - d2[inside]
        vals = amp_arr[inside] * np.exp(-d2[inside] / gap)
        value = float(vals.sum())
        scale = vals * (-r2[inside] / gap**2) * 2.0
        grad = scale @ diffs[inside]
        return value, grad

    def j_defl(c: np.ndarray) -> float:
        return j_fn(c) + bump_terms(c)[0]

    def g_defl(c: np.ndarray) -> np.ndarray:
        return g_fn(c) + bump_terms(c)[1]

    return j_defl, g_defl


def find_pairs(
    A: PotentialOperatorSpec, seeds: list[H1Vector], cfg: SolverConfig
) -> SolveReport:
    """Search for distinct fixed-point pairs from a seed set.

    Descends once from every seed s and records the start -s as its mirror:
    the same trace, the same triage, and the point -u, which is the same
    pair.  A seed that is bitwise the negative of an earlier seed is that
    seed's mirror too: it copies the earlier seed's traces and triage counts
    and runs no descent and no retry.  Drops results near the origin (the
    trivial fixed point) or without a converged residual, deduplicates
    modulo sign, and retries a seed whose basin is already known once on the
    deflated energy; that retry stands for -s too.  n_starts counts both
    signs of every seed.  Pairs come back sorted by energy, most negative
    first.  Raises ValueError unless A is odd, because the mirror and the
    pairing modulo sign need oddness.
    """
    if not A.odd:
        raise ValueError("find_pairs needs an odd operator")
    if not seeds:
        raise ValueError("seeds must be nonempty")
    trivial_cut = 1e-4 * max(max(s.norm() for s in seeds), 1e-12)
    energy = _energy_and_gradient(A)

    found: list[CriticalPoint] = []
    traces: list[list[tuple[float, float]]] = []
    # bytes of -s for every descended seed s -> (its trace, its triage)
    mirrors: dict[bytes, tuple[list[tuple[float, float]], str]] = {}
    counts = {"trivial": 0, "nonconverged": 0, "ok": 0}
    for seed in seeds:
        mirrored = mirrors.get(seed.coeffs.tobytes())
        if mirrored is not None:
            seed_trace, accepted = mirrored
            traces.extend([list(seed_trace), list(seed_trace)])
            counts[accepted] += 2
            continue
        point, trace = _descend(A, energy, seed.coeffs, cfg)
        seed_trace = list(zip(trace.j_values, trace.grad_norms))
        traces.extend([seed_trace, list(seed_trace)])
        accepted = _triage(point, cfg, trivial_cut)
        mirrors[(-seed.coeffs).tobytes()] = (seed_trace, accepted)
        counts[accepted] += 2
        if accepted != "ok":
            continue
        point = canonicalize(point, cfg.dedup_tol)
        if not _is_duplicate(point.u.coeffs, found, cfg.dedup_tol):
            found.append(point)
            continue
        # duplicate basin: one retry on the deflated energy, with a capped
        # budget (a retry stuck on a bump rim is not worth a full run)
        retry_cfg = replace(cfg, max_iter=min(cfg.max_iter, 150))
        retry, _ = _descend(A, _deflated_energy(A, found, cfg), seed.coeffs, retry_cfg)
        retry = canonicalize(retry, cfg.dedup_tol)
        if _triage(retry, cfg, trivial_cut) == "ok" and not _is_duplicate(
            retry.u.coeffs, found, cfg.dedup_tol
        ):
            found.append(retry)

    found.sort(key=lambda p: (p.j_value, tuple(p.u.coeffs)))
    note = ""
    if not found:
        note = (
            "no nontrivial fixed point found: every start converged to the "
            "trivial point or failed; existence conditions are likely not met"
        )
    return SolveReport(
        pairs=found,
        n_pairs=len(found),
        ps_trace=traces,
        rejected_trivial=counts["trivial"],
        n_starts=2 * len(seeds),
        n_nonconverged=counts["nonconverged"],
        note=note,
    )


def _triage(point: CriticalPoint, cfg: SolverConfig, trivial_cut: float) -> str:
    if point.grad_norm > cfg.grad_tol:
        return "nonconverged"
    if point.u.norm() <= trivial_cut:
        return "trivial"
    return "ok"


def axis_seeds(e1: H1Vector, r1: float) -> list[H1Vector]:
    """Seed set for the one-pair mode: the point r1*e1 (negation is implied)."""
    if r1 <= 0.0:
        raise ValueError("r1 must be positive")
    return [r1 * e1]


def circle_seeds(e2: H1Vector, e3: H1Vector, r2: float, n: int = 16) -> list[H1Vector]:
    """Equally spaced seeds on the radius-r2 circle in span{e2, e3}.

    For even n the second half is the first half negated, so the seed
    s_{j+n/2} is exactly -s_j and find_pairs records it as a mirror.
    """
    if r2 <= 0.0:
        raise ValueError("r2 must be positive")
    if n < 1:
        raise ValueError("n must be >= 1")
    half = n // 2 if n % 2 == 0 else n
    out = []
    for j in range(half):
        phi = 2.0 * np.pi * j / n
        out.append(H1Vector(r2 * (np.cos(phi) * e2.coeffs + np.sin(phi) * e3.coeffs)))
    return out + [-s for s in out[: n - half]]
