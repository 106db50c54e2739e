"""Potential operators, the energy functional, and growth certificates.

A potential operator A is the gradient of a scalar functional T.  The energy

    J(u) = 0.5 * ||u||^2 - T(u),        T(u) = int_0^1 (A(s*u), u) ds

has gradient J' = I - A, so critical points of J are exactly fixed points of
A.  T is recovered from A by the Avez line integral above; operators that
ship a closed-form potential use it instead, which keeps the functional and
the gradient consistent to machine precision during descent.

Growth certificates record a sampled envelope ||A(u)|| <= c*||u||^theta + b.
Sampling cannot certify a limsup, so a certificate is evidence, not a proof;
every report carries the "sampled-envelope" kind to make that explicit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from .space import H1Vector, gauss_rule

__all__ = [
    "GrowthCertificate",
    "LinearOperatorSpec",
    "OddnessError",
    "OperatorDivergenceError",
    "PotentialOperatorSpec",
    "avez_potential",
    "energy_coeffs",
    "fd_gradient_check",
    "functional_J",
    "gradient_J",
    "growth_fit",
    "lower_bound_J",
]

_ODDNESS_SAMPLES = 100
_ODDNESS_SEED = 20260810
_ODDNESS_TOL = 1e-10
_GROWTH_SLACK = 1.1  # factor on the fitted c of a growth envelope
# cells one batch of the checkers holds at once, a row counted as its
# operator's row_width: twice the largest shipped batch, bvp_highres's (H2)
# forms (64 points of an 8,192-node profile), so every shipped check takes
# each batch but the (H) sample in one chunk
_BATCH_CELLS = 2**20
# cells of one chunk of the (H) sample in growth_fit, whose grid values set
# bvp_highres's peak memory: its 48 rows of 16,384 transform cells go in 3
# chunks, every other shipped sample in one
_GROWTH_CELLS = 2**18


class OddnessError(ValueError):
    """An operator flagged odd failed the sampled oddness check."""


class OperatorDivergenceError(RuntimeError):
    """Descent or a checker hit a non-finite value (operator blow-up)."""


@dataclass(frozen=True, eq=False)
class PotentialOperatorSpec:
    """An operator on coefficient vectors together with its potential data.

    apply_coeffs acts on raw coefficient arrays (the hot path); apply wraps
    it for H1Vector.  apply_batch, when given, maps an (m, n_modes) array of
    stacked inputs to stacked outputs and is used by grid-heavy checks.
    forms_batch, when given, maps k rays u_i and an s-grid to the (k, n_s)
    forms (A(s_j u_i), u_i), the left sides of the ray conditions, without
    the images A(s_j u_i) themselves; ray_forms falls back to apply_many
    without it.  dataclasses.replace keeps forms_batch, so a copy whose
    apply_batch is substituted must pass forms_batch=None or forms of its
    own to have them follow the new apply.  row_width counts the cells one
    row of a batch holds, at least n_modes (the default); every batch the
    checkers evaluate is taken in _batches of at most _BATCH_CELLS such
    cells.  theta is the declared growth exponent in [0, 1).  Operators
    flagged odd are validated by sampling at construction rather than
    trusted; an apply_batch may carry a test of its own for that (see
    _check_oddness).
    """

    n_modes: int
    apply_coeffs: Callable[[np.ndarray], np.ndarray]
    odd: bool = True
    theta: float = 0.0
    potential_coeffs: Callable[[np.ndarray], float] | None = None
    apply_batch: Callable[[np.ndarray], np.ndarray] | None = None
    forms_batch: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    label: str = "operator"
    row_width: int = 0

    def __post_init__(self) -> None:
        if self.n_modes < 1:
            raise ValueError("n_modes must be >= 1")
        object.__setattr__(self, "row_width", max(self.row_width, self.n_modes))
        if not 0.0 <= self.theta < 1.0:
            raise ValueError("theta must lie in [0, 1)")
        if self.odd:
            _check_oddness(self)

    def apply(self, u: H1Vector) -> H1Vector:
        if u.n_modes != self.n_modes:
            raise ValueError("vector does not match operator dimension")
        return H1Vector(self.apply_coeffs(u.coeffs))

    def apply_many(self, stacked: np.ndarray) -> np.ndarray:
        if self.apply_batch is not None:
            return self.apply_batch(stacked)
        return np.stack([self.apply_coeffs(row) for row in stacked])

    def ray_forms(self, rays: np.ndarray, s: np.ndarray) -> np.ndarray:
        """F[i, j] = (A(s_j u_i), u_i) for the (k, n_modes) rays u_i, as (k, s.size).

        Through forms_batch when given; otherwise one apply_many of the k
        * s.size scaled rows, and one stacked product whose slices are the
        matrix-vector products of a single ray.  Either takes the s-grid in
        _batches of k rows a point, and of at least two points: numpy's
        matmul takes a one-point product as a dot, which rounds otherwise.
        """
        k, n = rays.shape
        forms = []
        for cols in _batches(s.size, k * self.row_width, least=2):
            part = s[cols]
            if self.forms_batch is not None:
                forms.append(self.forms_batch(rays, part))
                continue
            images = self.apply_many((part[None, :, None] * rays[:, None, :]).reshape(k * part.size, n))
            forms.append((images.reshape(k, part.size, n) @ rays[:, :, None])[..., 0])
        return forms[0] if len(forms) == 1 else np.concatenate(forms, axis=1)


def _batches(
    count: int, row_cells: int, cells: int | None = None, least: int = 1
) -> Iterator[slice]:
    """Consecutive slices of range(count) of cells // row_cells rows, at
    least `least` (the last one takes up to least - 1 more, and all of a
    count below least); cells defaults to _BATCH_CELLS.  The chunks in
    which every checker batch is evaluated, so that one holds O(cells)
    values plus a row or two, whatever the count."""
    step = max(least, (cells or _BATCH_CELLS) // row_cells)
    start = 0
    while start < count:
        stop = start + step if count - start - step >= least else count
        yield slice(start, stop)
        start = stop


def _sampled_rows(
    seed: int,
    radii: np.ndarray,
    per_radius: int,
    n_modes: int,
    row_width: int,
    cells: int | None = None,
) -> Iterator[tuple[slice, np.ndarray]]:
    """(rows, u) for each of the _batches of `cells` (default _BATCH_CELLS)
    of the sampled rows u_i = r d_i, d_i a random unit direction and r =
    radii[i // per_radius].  The chunks are drawn in turn from one stream,
    so they are the rows of one draw of them all."""
    rng = np.random.default_rng(seed)
    for rows in _batches(radii.size * per_radius, row_width, cells):
        u = rng.standard_normal((rows.stop - rows.start, n_modes))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        u *= radii[np.arange(rows.start, rows.stop) // per_radius, None]
        yield rows, u


def _oddness_samples(n_modes: int, row_width: int) -> Iterator[np.ndarray]:
    """The rows u of the oddness check, random directions on log-spaced
    radii, in _batches of row_width cells a row."""
    radii = np.geomspace(1e-2, 10.0, _ODDNESS_SAMPLES)
    for _, u in _sampled_rows(_ODDNESS_SEED, radii, 1, n_modes, row_width):
        yield u


def _check_oddness(op: PotentialOperatorSpec) -> None:
    # apply_batch.odd_at(), when present, stands in for the check below.
    # It is True only where the operator's own test finds it odd value for
    # value on a sample of what the sampled rows (norm at most 10) feed it
    # (a bvp operator: f at every grid node and 100 magnitudes spanning the
    # values of their profiles, bvp.bvp_operator); on False the rows are
    # drawn and applied both ways as always.  It lives on the function, so
    # a spec whose apply_batch is replaced does not inherit it.
    odd_at = getattr(op.apply_batch, "odd_at", None)
    if odd_at is None or not odd_at():
        for samples in _oddness_samples(op.n_modes, op.row_width):
            plus = op.apply_many(samples)
            minus = op.apply_many(-samples)
            worst = float(np.max(np.linalg.norm(plus + minus, axis=1)))
            # "not <=" so that NaN fails the check
            if not worst <= _ODDNESS_TOL:
                raise OddnessError(
                    f"operator '{op.label}' flagged odd but ||A(-u) + A(u)|| reaches {worst:.3e}"
                )
    at_zero = float(np.linalg.norm(op.apply_coeffs(np.zeros(op.n_modes))))
    if not at_zero <= _ODDNESS_TOL:
        raise OddnessError(f"operator '{op.label}' flagged odd but ||A(0)|| = {at_zero:.3e}")


@dataclass(frozen=True, eq=False)
class LinearOperatorSpec:
    """A self-adjoint comparison operator as its symmetric k x k block on
    span{e_1, ..., e_k}, the span on which the conditions read its form.

    Vectors are full coefficient vectors: the forms read their first k
    coordinates and raise ValueError for a vector with a non-zero
    coordinate past k, whose form the block would silently truncate.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=float, copy=True)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("matrix must be square")
        if m.size == 0:
            raise ValueError("matrix must not be empty")
        if not np.all(np.isfinite(m)):
            raise ValueError("matrix must be finite")
        if np.max(np.abs(m - m.T)) > 1e-12:
            raise ValueError("matrix must be symmetric")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    def _span_coords(self, coeffs: np.ndarray) -> np.ndarray:
        """The first k coordinates of each row of coeffs; ValueError for a
        row with fewer, or with a non-zero coordinate past them."""
        k = self.matrix.shape[0]
        if coeffs.shape[-1] < k or np.any(coeffs[..., k:]):
            raise ValueError(f"vector lies outside span{{e_1, ..., e_{k}}} of the comparison block")
        return coeffs[..., :k]

    def form(self, u: H1Vector, v: H1Vector) -> float:
        """The bilinear form (B u, v)."""
        return float(self._span_coords(v.coeffs) @ (self.matrix @ self._span_coords(u.coeffs)))

    def forms(self, rows: np.ndarray) -> np.ndarray:
        """(B u, u) for each row u of rows, as one stacked product."""
        x = self._span_coords(rows)
        return (x[:, None, :] @ (self.matrix @ x[:, :, None]))[:, 0, 0]

    @staticmethod
    def scaled_identity(scale: float, k: int) -> "LinearOperatorSpec":
        return LinearOperatorSpec(matrix=scale * np.eye(k))


@dataclass(frozen=True)
class GrowthCertificate:
    """Sampled envelope ||A(u)|| <= c ||u||^theta + b.

    Covers every sample taken during the fit (with slack on c); it is not a
    proof of the limsup growth condition and is labelled accordingly.
    """

    c: float
    b: float
    theta: float
    sampled_max_ratio: float
    radii_tested: tuple[float, ...]
    sample_maxima: tuple[float, ...] = ()
    kind: str = field(default="sampled-envelope")

    def bound(self, r: float) -> float:
        return self.c * r**self.theta + self.b

    def coverage_margin(self) -> float:
        """Smallest gap between the envelope and the recorded sample maxima."""
        if not self.radii_tested:
            return float("nan")
        gaps = [self.bound(r) - y for r, y in zip(self.radii_tested, self.sample_maxima)]
        return float(min(gaps))

    def to_dict(self) -> dict:
        return {
            "c": self.c,
            "b": self.b,
            "theta": self.theta,
            "sampled_max_ratio": self.sampled_max_ratio,
            "radii_tested": list(self.radii_tested),
            "sample_maxima": list(self.sample_maxima),
            "kind": self.kind,
        }


def avez_potential(A: PotentialOperatorSpec, u: H1Vector, s_order: int = 16) -> float:
    """Recover the potential T(u) = int_0^1 (A(s*u), u) ds by quadrature.

    Exact for linear A (the integrand is linear in s); for sublinear power
    nonlinearities the s-integrand has an algebraic endpoint singularity and
    the default order is accurate to roughly 1e-4 relative.
    """
    if s_order < 2:
        raise ValueError("s_order must be >= 2")
    s, w = gauss_rule(s_order)
    return float(w @ A.ray_forms(u.coeffs[None, :], s)[0])


def energy_coeffs(A: PotentialOperatorSpec, c: np.ndarray) -> float:
    """J = 0.5 ||c||^2 - T(c) at a raw coefficient vector, with T the closed-form
    potential when the operator has one and the Avez quadrature otherwise."""
    if A.potential_coeffs is not None:
        potential = float(A.potential_coeffs(c))
    else:
        potential = avez_potential(A, H1Vector(c))
    return 0.5 * float(c @ c) - potential


def functional_J(A: PotentialOperatorSpec, u: H1Vector) -> float:
    """The energy J(u) = 0.5 ||u||^2 - T(u)."""
    return energy_coeffs(A, u.coeffs)


def gradient_J(A: PotentialOperatorSpec, u: H1Vector) -> H1Vector:
    """J'(u) = u - A(u); vanishes exactly at fixed points of A."""
    return H1Vector(u.coeffs - A.apply_coeffs(u.coeffs))


def fd_gradient_check(
    A: PotentialOperatorSpec, u: H1Vector, v: H1Vector, h: float
) -> float:
    """Central-difference check of the gradient along direction v.

    Returns |(J'(u), v) - (J(u + h v) - J(u - h v)) / (2 h)|.
    """
    if h <= 0.0:
        raise ValueError("h must be positive")
    analytic = float(np.dot(gradient_J(A, u).coeffs, v.coeffs))
    jp = functional_J(A, H1Vector(u.coeffs + h * v.coeffs))
    jm = functional_J(A, H1Vector(u.coeffs - h * v.coeffs))
    return abs(analytic - (jp - jm) / (2.0 * h))


def lower_bound_J(cert: GrowthCertificate, r: float) -> float:
    """Coercivity bound 0.5 r^2 - c r^(theta+1) / (theta+1) - b r.

    Valid for every u whose ray {s*u : s in (0,1]} stays inside the
    certified envelope; tends to +infinity as r grows since theta < 1.
    """
    if not 0.0 <= r < np.inf:  # rejects NaN as well
        raise ValueError("r must be nonnegative and finite")
    t1 = cert.theta + 1.0
    return 0.5 * r**2 - cert.c / t1 * r**t1 - cert.b * r


def growth_fit(
    A: PotentialOperatorSpec,
    radii,
    dirs_per_radius: int = 16,
    seed: int = 0,
) -> GrowthCertificate:
    """Fit a sampled growth envelope for ||A(u)||.

    Samples dirs_per_radius random directions at each radius, records the
    per-radius maxima of ||A(u)||, and picks the smallest (c, b) with
    c r^theta + b covering them (minimizing c + b over the feasible
    vertices); c then gets the slack factor _GROWTH_SLACK.  Deterministic given the seed.
    """
    radii = np.asarray(radii, dtype=float)
    if radii.size == 0:
        raise ValueError("radii must be nonempty")
    # "not >" forms so that NaN is rejected as well
    if not (np.all((radii > 0.0) & (radii < np.inf)) and np.all(np.diff(radii) > 0.0)):
        raise ValueError("radii must be positive, finite and increasing")
    # the rows of all radii in _batches of _GROWTH_CELLS drawn from one
    # stream; a row's norm does not depend on its batch, and each radius
    # keeps its largest
    maxima = np.full(radii.size, -np.inf)
    sampled = _sampled_rows(seed, radii, dirs_per_radius, A.n_modes, A.row_width, _GROWTH_CELLS)
    with np.errstate(over="ignore", invalid="ignore"):
        for rows, samples in sampled:
            norms = np.linalg.norm(A.apply_many(samples), axis=1)
            np.maximum.at(maxima, np.arange(rows.start, rows.stop) // dirs_per_radius, norms)
    if not np.all(np.isfinite(maxima)):
        r = float(radii[~np.isfinite(maxima)][0])
        raise OperatorDivergenceError(f"non-finite ||A(u)|| in the growth sample at radius {r!r}")

    theta = A.theta
    powers = radii**theta
    c_fit, b_fit = _cover_fit(powers, maxima)
    c_fit *= _GROWTH_SLACK
    covered = c_fit * powers + b_fit - maxima
    if np.min(covered) < -1e-9 * max(1.0, float(np.max(maxima))):
        raise AssertionError("growth fit failed to cover its own samples")
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(maxima > 0.0, maxima / powers, 0.0)
    return GrowthCertificate(
        c=c_fit,
        b=b_fit,
        theta=theta,
        sampled_max_ratio=float(np.max(ratios)),
        radii_tested=tuple(float(r) for r in radii),
        sample_maxima=tuple(float(y) for y in maxima),
    )


def _cover_fit(powers: np.ndarray, values: np.ndarray) -> tuple[float, float]:
    """Smallest (c, b) >= 0 with c * powers + b >= values, minimizing c + b."""

    def feasible(c: float, b: float) -> bool:
        return bool(np.all(c * powers + b >= values - 1e-12 * max(1.0, values.max(initial=0.0))))

    candidates: list[tuple[float, float]] = []
    vmax = float(values.max(initial=0.0))
    candidates.append((0.0, max(vmax, 0.0)))
    with np.errstate(divide="ignore", invalid="ignore"):
        pure = np.where(powers > 0.0, values / powers, 0.0)
    candidates.append((max(float(pure.max(initial=0.0)), 0.0), 0.0))
    n = powers.size
    for i in range(n):
        for j in range(i + 1, n):
            dp = powers[i] - powers[j]
            if dp == 0.0:
                continue
            c = (values[i] - values[j]) / dp
            b = values[i] - c * powers[i]
            if c >= 0.0 and b >= 0.0:
                candidates.append((float(c), float(b)))
    best = None
    for c, b in candidates:
        if not feasible(c, b):
            continue
        key = (c + b, b, c)
        if best is None or key < best[0]:
            best = (key, (c, b))
    if best is None:
        raise AssertionError("no feasible growth envelope found")
    return best[1]
