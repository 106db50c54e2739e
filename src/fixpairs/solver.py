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
well, so the retry from s also stands for -s.  An additive bump puts
spurious critical points on its rim, so a retry is abandoned, unscored,
once an accepted iterate enters a bump from outside every bump.

Near a fixed point the decrease a search can make falls below the rounding
of J, and rounding noise would decide its Armijo test and how far it
backtracks; such a trial is decided by the residual norm instead, so the
work of a descent does not depend on the last bits of J.  The residual rule
also ends a descent: once no trial lowers the residual, the search ends and
so does the descent, converged or not.

One routine, _descend, runs every descent, main or retry: the Armijo loop
and the scoring.  cfg.max_iter bounds every descent.

Each seed evaluates a point once: the energy and the gradient of a seed
remember every point they evaluated, keyed by its bytes, so the final
iterate is not evaluated again by the scoring, and a retry, which starts at
the seed and follows the main descent point for point until it nears a
bump, is served the points they share from the main descent's evaluations.  The record is dropped when the seed's retry ends.
The deflated energy builds on that pair and computes its bump distances
once per point.
"""

from __future__ import annotations

import math
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
]

_ARMIJO_C = 1e-4  # sufficient-decrease constant of the Armijo test
_ARMIJO_SHRINK = 0.5  # backtracking factor
# a trial whose first-order decrease step * ||J'||^2 is at most this times
# max(1, |J|) is within the rounding of J, and the residual decides it
_ENERGY_FLOOR = 4.0 * float(np.finfo(float).eps)
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
        # the bumps use the squared radius, which must not overflow
        r = self.deflation_radius
        if r is not None and not (r > 0.0 and math.isfinite(r * r)):
            raise ValueError("deflation_radius must be positive, with a finite square")


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


def _remember(fn: Callable[[np.ndarray], Any]) -> Callable[[np.ndarray], Any]:
    """fn with a cache of every point it evaluated, keyed by the point's bytes.

    The cache lives as long as fn's caller keeps the returned function: a
    seed's energy pair, or a retry's deflated one.
    """
    seen: dict[bytes, Any] = {}

    def remembered(c: np.ndarray) -> Any:
        key = c.tobytes()
        if key not in seen:
            seen[key] = fn(c)
        return seen[key]

    return remembered


def _energy_and_gradient(
    A: PotentialOperatorSpec,
) -> tuple[Callable[[np.ndarray], float], Callable[[np.ndarray], np.ndarray]]:
    """The (J, J') pair of A, each evaluating a point once."""

    def j_fn(c: np.ndarray) -> float:
        return energy_coeffs(A, c)

    def g_fn(c: np.ndarray) -> np.ndarray:
        return c - A.apply_coeffs(c)

    return _remember(j_fn), _remember(g_fn)


def descend(A: PotentialOperatorSpec, u0: H1Vector, cfg: SolverConfig) -> CriticalPoint:
    """Run descent from u0; returns the critical-point record.

    Armijo descent, whose searches below the rounding of the energy are
    decided by the residual; it ends once the residual is below
    cfg.grad_tol, when a search finds no acceptable trial, or after
    cfg.max_iter iterations.  The returned grad_norm and fp_residual are
    the same number ||u - A(u)|| evaluated at the final iterate.  Raises
    OperatorDivergenceError when the energy blows up (e.g. the operator
    grows too fast for descent).
    """
    return _descend(_energy_and_gradient(A), u0.coeffs, cfg)[0]


def _descend(
    energy: tuple, c0: np.ndarray, cfg: SolverConfig, deflated: tuple | None = None
) -> tuple[CriticalPoint | None, DescentTrace]:
    """Descend from c0 and score the final point; returns (point, trace).

    The descent runs on deflated, a (J, J', in_bump) triple, or by default on
    energy, A's own (J, J') pair; the final point is scored on energy: a
    main descent keeps the energy of its last iterate, a retry asks energy,
    which has evaluated the point already unless the last search stalled.
    Armijo-backtracked gradient descent, so J never increases: the first
    trial step is _INIT_STEP on the first iteration and the Barzilai-Borwein
    step (s's)/(s'y) after it, with s and y the last change of iterate and
    gradient; when s'y <= 0, or the quotient is not a positive finite
    number, it is _INIT_STEP again.  A search stops as soon as the trial
    point equals the iterate bitwise.  A trial whose decrease
    step * ||J'||^2 lies within the rounding of J (_ENERGY_FLOOR) is not
    put to the Armijo test: it is accepted when it lowers the residual
    ||J'||, and otherwise it ends the search.  The descent ends with a
    search that accepts no trial, an accepted step below 1e-6 that leaves
    J unchanged, an iterate below cfg.grad_tol, or cfg.max_iter
    iterations.  On a deflated energy the descent is abandoned, and point
    is None, at the first accepted iterate that lies in a bump while the
    iterate before it lay in none.
    """
    j_fn, g_fn = energy
    j_d, g_d, in_bump = deflated or (j_fn, g_fn, None)
    trace = DescentTrace(j_values=[], grad_norms=[], steps=[])
    c = c0.copy()
    # overflow is handled by the descent (inf/nan trials are rejected, -inf
    # aborts, a non-finite gradient raises), so let it propagate silently
    with np.errstate(over="ignore", invalid="ignore"):
        j_cur = j_d(c)
        inside = in_bump is not None and in_bump(c)
        iterations = 0
        c_prev = g_prev = None
        while True:
            if not math.isfinite(j_cur):
                raise OperatorDivergenceError(
                    f"non-finite energy after {iterations} iterations (||u|| = {np.linalg.norm(c):.3e})"
                )
            g = g_d(c)
            gn = float(np.linalg.norm(g))
            if not math.isfinite(gn):
                raise OperatorDivergenceError(
                    f"non-finite gradient after {iterations} iterations"
                )
            trace.j_values.append(j_cur)
            trace.grad_norms.append(gn)
            if gn < cfg.grad_tol or iterations == cfg.max_iter:
                trace.steps.append(0.0)
                break
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
                if (c_new == c).all():
                    break  # stalled: the step is below resolution
                if step * gn**2 <= _ENERGY_FLOOR * max(1.0, abs(j_cur)):
                    # the energy cannot decide this trial: rounding noise
                    # would, so the residual does
                    accepted = float(np.linalg.norm(g_d(c_new))) < gn
                    if accepted:
                        j_new = j_d(c_new)
                    break
                j_new = j_d(c_new)
                if j_new == -np.inf:
                    # the energy is unbounded below along this direction
                    raise OperatorDivergenceError(
                        f"energy diverged to -inf after {iterations} iterations "
                        f"(||u|| = {np.linalg.norm(c):.3e})"
                    )
                if math.isfinite(j_new) and j_new <= j_cur - _ARMIJO_C * step * gn**2:
                    accepted = True
                    break
                step *= _ARMIJO_SHRINK
            trace.steps.append(step if accepted else 0.0)
            if not accepted:
                break
            if in_bump is not None:
                was_inside, inside = inside, in_bump(c_new)
                if inside and not was_inside:
                    return None, trace
            # the energy at its rounding floor and a tiny step: nothing left
            # for the line search to resolve
            at_floor = j_new == j_cur and step < 1e-6
            c_prev, g_prev, c, j_cur = c, g, c_new, j_new
            iterations += 1
            if at_floor:
                break
        point = CriticalPoint(
            u=H1Vector(c),
            j_value=j_cur if deflated is None else j_fn(c),
            grad_norm=float(np.linalg.norm(g_fn(c))),
            iterations=iterations,
        )
    return point, trace


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


def _bump_distances(c: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The offsets c - center and their squared norms, one row per bump."""
    diffs = c[None, :] - centers
    return diffs, np.einsum("ij,ij->i", diffs, diffs)


def _deflated_energy(energy: tuple, found: list[CriticalPoint], cfg: SolverConfig):
    """The (J, J') pair energy plus compact bumps at every found point and
    its negative, with in_bump, the test whether a point lies in a support.

    The bump distances are computed once per point and serve the value, the
    gradient and in_bump.
    """
    j_fn, g_fn = energy
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

    @_remember
    def bumps(c: np.ndarray):
        """(vals, diffs, gap, r2) of the bumps whose support holds c, None if none does."""
        diffs, d2 = _bump_distances(c, centers)
        inside = d2 < r2
        if not inside.any():
            return None
        d2_in, r2_in = d2[inside], r2[inside]
        gap = r2_in - d2_in
        return amp_arr[inside] * np.exp(-d2_in / gap), diffs[inside], gap, r2_in

    def j_defl(c: np.ndarray) -> float:
        terms = bumps(c)
        return j_fn(c) + (0.0 if terms is None else float(terms[0].sum()))

    def g_defl(c: np.ndarray) -> np.ndarray:
        terms = bumps(c)
        if terms is None:
            return g_fn(c) + np.zeros_like(c)  # the sum turns -0.0 into 0.0, as a bump term would
        vals, diffs, gap, r2_in = terms
        return g_fn(c) + (vals * (-r2_in / gap**2) * 2.0) @ diffs

    return j_defl, _remember(g_defl), lambda c: bumps(c) is not None


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
    deflated energy; that retry stands for -s too, and it fails, adding no
    pair, once it falls back into a bump from outside.  n_starts counts both
    signs of every seed.  Pairs come back sorted by energy, most negative
    first.  Raises ValueError unless A is odd, because the mirror and the
    pairing modulo sign need oddness.
    """
    if not A.odd:
        raise ValueError("find_pairs needs an odd operator")
    if not seeds:
        raise ValueError("seeds must be nonempty")
    with np.errstate(over="ignore"):  # an infinite seed norm ends the descent as a blow-up
        trivial_cut = 1e-4 * max(max(s.norm() for s in seeds), 1e-12)

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
        # shared by the seed's main descent and its retry, dropped after them
        energy = _energy_and_gradient(A)
        point, trace = _descend(energy, seed.coeffs, cfg)
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
        # duplicate basin: one retry on the deflated energy
        retry, _ = _descend(energy, seed.coeffs, cfg, _deflated_energy(energy, found, cfg))
        if retry is None:  # abandoned: it fell back into a known bump
            continue
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
