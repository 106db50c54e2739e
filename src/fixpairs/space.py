"""Discretization of the Sobolev space H1_0(0,1) in an orthonormal sine basis.

The basis functions

    e_k(t) = (sqrt(2) / (k*pi)) * sin(k*pi*t),        k = 1, 2, ...

are orthonormal for the inner product (u, v) = int_0^1 u'(t) v'(t) dt, so a
function is represented by its coefficient vector and

    (u, v)       = sum_k u_k v_k
    |u|_{L2}^2   = sum_k u_k^2 / (k*pi)^2

hold exactly in coefficient arithmetic.  The basis diagonalizes -d^2/dt^2
under Dirichlet conditions, which makes the first eigenvalue pi^2 exact and
the Poincare inequality |u|_{L2} <= ||u|| / pi an algebraic identity.

Integrals over [0,1] use a composite Gauss-Legendre rule.  The default
(8 nodes, 32 panels) keeps the projection of every retained mode pair below
1e-10 even after the (k*pi)^2 amplification of the integration-by-parts
formula; 16 panels are enough when only the lower half of the modes carry
energy.

The grid is symmetric under t -> 1 - t, and e_k(1 - t) = d_k e_k(t) with
d_k = (-1)^(k+1), so the basis is tabulated on the left half of the grid
only, the nodes t_i < 1/2 and, for an odd node count, the middle node.  Grid
values are handled folded: row 0 of a folded array holds the left-half
nodes t_i and row 1 their mirrors t_(N-1-i), and a middle node appears in
both rows with half its weight each (folded_grid).  One product per
direction goes through the half table, with every grid row stacked with its
mirror: profiles synthesizes [c; d c] and moments analyses the stacked rows
and adds them as y_left + d y_right.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SpaceConfig",
    "H1Vector",
    "GridSample",
    "basis_matrix",
    "basis_vector",
    "evaluate",
    "folded_grid",
    "gauss_rule",
    "inner",
    "l2_norm_sq",
    "moments",
    "profiles",
    "project",
    "quadrature_grid",
    "sample_function",
    "sample_vector",
    "sup_norm_bound",
    "zero_vector",
]


@dataclass(frozen=True)
class SpaceConfig:
    """Resolution of the discretization.

    n_modes: number of sine modes kept (basis truncation).
    quad_nodes: Gauss-Legendre points per panel.
    n_panels: equal-width panels of the composite rule on [0, 1].
    """

    n_modes: int = 32
    quad_nodes: int = 8
    n_panels: int = 32

    def __post_init__(self) -> None:
        if self.n_modes < 1:
            raise ValueError("n_modes must be >= 1")
        if self.quad_nodes < 2:
            raise ValueError("quad_nodes must be >= 2")
        if self.n_panels < 1:
            raise ValueError("n_panels must be >= 1")


@dataclass(frozen=True, eq=False)
class H1Vector:
    """Coefficient vector of a function in the orthonormal sine basis."""

    coeffs: np.ndarray

    def __post_init__(self) -> None:
        c = np.array(self.coeffs, dtype=float, copy=True)
        if c.ndim != 1 or c.size < 1:
            raise ValueError("coeffs must be a nonempty 1-d array")
        if not np.all(np.isfinite(c)):
            raise ValueError("coeffs must be finite")
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @property
    def n_modes(self) -> int:
        return self.coeffs.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def __add__(self, other: "H1Vector") -> "H1Vector":
        _check_dims(self, other)
        return H1Vector(self.coeffs + other.coeffs)

    def __sub__(self, other: "H1Vector") -> "H1Vector":
        _check_dims(self, other)
        return H1Vector(self.coeffs - other.coeffs)

    def __neg__(self) -> "H1Vector":
        return H1Vector(-self.coeffs)

    def __mul__(self, scale: float) -> "H1Vector":
        return H1Vector(self.coeffs * float(scale))

    __rmul__ = __mul__


@dataclass(frozen=True, eq=False)
class GridSample:
    """Function values on the composite Gauss-Legendre grid."""

    nodes: np.ndarray
    weights: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if not (nodes.shape == weights.shape == values.shape) or nodes.ndim != 1:
            raise ValueError("nodes, weights, values must be 1-d arrays of equal length")
        if np.any(weights <= 0.0):
            raise ValueError("weights must be positive")
        if abs(float(weights.sum()) - 1.0) > 1e-14:
            raise ValueError("weights must sum to 1")
        if np.any(np.diff(nodes) <= 0.0):
            raise ValueError("nodes must be strictly increasing")
        if nodes[0] <= 0.0 or nodes[-1] >= 1.0:
            raise ValueError("nodes must lie in (0, 1)")


def _check_dims(u: H1Vector, v: H1Vector) -> None:
    if u.n_modes != v.n_modes:
        raise ValueError(f"dimension mismatch: {u.n_modes} vs {v.n_modes}")


@functools.lru_cache(maxsize=None)
def gauss_rule(order: int, panels: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the composite Gauss-Legendre rule on [0, 1].

    The rule has `order` nodes on each of `panels` equal-width panels.  The
    returned arrays are cached and read-only.
    """
    x, w = np.polynomial.legendre.leggauss(order)
    width = 1.0 / panels
    nodes = np.concatenate(
        [(k + (x + 1.0) / 2.0) * width for k in range(panels)]
    )
    weights = np.tile(w * width / 2.0, panels)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _half(n_nodes: int) -> int:
    """Rows of the half grid: the left-half nodes and a middle node."""
    return (n_nodes + 1) // 2


@functools.lru_cache(maxsize=None)
def _half_basis(n_modes: int, quad_nodes: int, n_panels: int) -> np.ndarray:
    """E_h[i, k] = e_(k+1)(t_i) on the left half of the grid."""
    nodes, _ = gauss_rule(quad_nodes, n_panels)
    ks = np.arange(1, n_modes + 1)
    # built in place: one half-grid x n table at a time
    mat = np.outer(nodes[: _half(nodes.size)], ks)
    mat *= np.pi
    np.sin(mat, out=mat)
    mat *= np.sqrt(2.0) / (ks * np.pi)
    mat.flags.writeable = False
    return mat


@functools.lru_cache(maxsize=None)
def _signs(n_modes: int) -> np.ndarray:
    """(2, 1, n_modes): ones, then d_k = (-1)^(k+1), with e_k(1 - t) = d_k e_k(t)."""
    signs = np.ones((2, 1, n_modes))
    signs[1, 0, 1::2] = -1.0
    signs.flags.writeable = False
    return signs


def quadrature_grid(cfg: SpaceConfig) -> tuple[np.ndarray, np.ndarray]:
    """The quadrature grid of a discretization: gauss_rule at its resolution."""
    return gauss_rule(cfg.quad_nodes, cfg.n_panels)


def _fold(values: np.ndarray) -> np.ndarray:
    """Grid values as a folded (2, half) array: the left half and the mirrors."""
    m = _half(values.shape[-1])
    return np.stack([values[..., :m], values[..., ::-1][..., :m]])


def _unfold(left: np.ndarray, mirrored: np.ndarray, n_nodes: int) -> np.ndarray:
    """Grid order from the two rows of a fold, with one copy of a middle node."""
    return np.concatenate([left, mirrored[::-1][2 * len(left) - n_nodes :]])


@functools.lru_cache(maxsize=None)
def folded_grid(cfg: SpaceConfig) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the quadrature grid as folded (2, half) arrays.

    Row 0 holds the nodes t_i < 1/2, row 1 their mirrors t_(N-1-i); for an
    odd node count both rows end in the middle node with half its weight, so
    a weighted sum over the folded grid is the sum over the grid.  The
    arrays are cached and read-only.
    """
    nodes, weights = quadrature_grid(cfg)
    folded_nodes, folded_weights = _fold(nodes), _fold(weights)
    if nodes.size % 2:
        folded_weights[:, -1] *= 0.5  # the middle node, once in each row
    folded_nodes.flags.writeable = False
    folded_weights.flags.writeable = False
    return folded_nodes, folded_weights


def profiles(coeffs: np.ndarray, cfg: SpaceConfig) -> np.ndarray:
    """Folded grid values of the functions whose coefficient rows are coeffs.

    coeffs is (B, n_modes); the result is (2, B, half), from the one
    product [c; d c] E_h^T.
    """
    stacked = (coeffs * _signs(cfg.n_modes)).reshape(-1, cfg.n_modes)
    values = stacked @ _half_basis(cfg.n_modes, cfg.quad_nodes, cfg.n_panels).T
    return values.reshape(2, coeffs.shape[0], -1)


def moments(folded: np.ndarray, cfg: SpaceConfig) -> np.ndarray:
    """sum_i g(t_i) e_k(t_i) over the grid for each of B folded rows of g.

    folded is (2, B, half), with any quadrature weights applied; the result
    is (B, n_modes), from the one product of the stacked rows with E_h.
    """
    b = folded.shape[1]
    y = folded.reshape(2 * b, -1) @ _half_basis(cfg.n_modes, cfg.quad_nodes, cfg.n_panels)
    y = y.reshape(2, b, -1)
    y[1] *= _signs(cfg.n_modes)[1]
    y[0] += y[1]  # y_left + d y_right
    return y[0]


def basis_matrix(cfg: SpaceConfig) -> np.ndarray:
    """Matrix E with E[i, k] = e_{k+1}(t_i) on the quadrature grid.

    A full view unfolded from the half table, built anew on every call; the
    package computes through profiles and moments and never builds it.
    """
    half = _half_basis(cfg.n_modes, cfg.quad_nodes, cfg.n_panels)
    return _unfold(half, half * _signs(cfg.n_modes)[1], cfg.quad_nodes * cfg.n_panels)


def zero_vector(n_modes: int) -> H1Vector:
    return H1Vector(np.zeros(n_modes))


def basis_vector(k: int, n_modes: int) -> H1Vector:
    """The k-th basis function e_k (1-indexed) as a coefficient vector."""
    if not 1 <= k <= n_modes:
        raise ValueError(f"basis index {k} out of range 1..{n_modes}")
    c = np.zeros(n_modes)
    c[k - 1] = 1.0
    return H1Vector(c)


def inner(u: H1Vector, v: H1Vector) -> float:
    """H1_0 inner product; the plain dot product of coefficient vectors."""
    _check_dims(u, v)
    return float(np.dot(u.coeffs, v.coeffs))


def l2_norm_sq(u: H1Vector) -> float:
    """Squared L2 norm, sum_k u_k^2 / (k*pi)^2.

    Always bounded by inner(u, u) / pi^2 (Poincare, with lambda_1 = pi^2).
    """
    ks = np.arange(1, u.n_modes + 1)
    return float(np.sum((u.coeffs / (ks * np.pi)) ** 2))


def evaluate(u: H1Vector, t):
    """Pointwise values sum_k u_k e_k(t); scalar in, scalar out."""
    tarr = np.asarray(t, dtype=float)
    if np.any(tarr < 0.0) or np.any(tarr > 1.0):
        raise ValueError("t must lie in [0, 1]")
    ks = np.arange(1, u.n_modes + 1)
    scale = np.sqrt(2.0) / (ks * np.pi)
    vals = np.sin(np.multiply.outer(tarr, ks) * np.pi) @ (scale * u.coeffs)
    if np.isscalar(t) or tarr.ndim == 0:
        return float(vals)
    return vals


def sup_norm_bound(u: H1Vector) -> float:
    """A certified upper bound for max_t |u(t)|, namely ||u||.

    For H1_0(0,1) the sharp embedding constant is 1/2, so the returned bound
    is loose by a factor of two; the plain ||u|| bound is the one every
    downstream estimate in this package is stated with.
    """
    return u.norm()


def sample_function(fn, cfg: SpaceConfig) -> GridSample:
    """Sample a vectorized callable t -> f(t) on the quadrature grid."""
    nodes, weights = quadrature_grid(cfg)
    return GridSample(nodes=nodes, weights=weights, values=np.asarray(fn(nodes), dtype=float))


def sample_vector(u: H1Vector, cfg: SpaceConfig) -> GridSample:
    if u.n_modes != cfg.n_modes:
        raise ValueError("vector does not match config")
    nodes, weights = quadrature_grid(cfg)
    left, mirrored = profiles(u.coeffs[None, :], cfg)[:, 0]
    return GridSample(nodes=nodes, weights=weights, values=_unfold(left, mirrored, nodes.size))


def project(values_on_grid: GridSample, cfg: SpaceConfig) -> H1Vector:
    """Project grid values onto the retained modes.

    Uses c_k = (k*pi)^2 * int_0^1 u(t) e_k(t) dt, which equals the H1_0
    projection by integration by parts under Dirichlet conditions; no grid
    data is differentiated.
    """
    nodes, weights = quadrature_grid(cfg)
    if values_on_grid.nodes.shape != nodes.shape or np.max(
        np.abs(values_on_grid.nodes - nodes)
    ) > 1e-12:
        raise ValueError("grid does not match config")
    ks = np.arange(1, cfg.n_modes + 1)
    _, folded_weights = folded_grid(cfg)
    weighted = folded_weights * _fold(values_on_grid.values)
    return H1Vector((ks * np.pi) ** 2 * moments(weighted[:, None, :], cfg)[0])
