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

The grid also has a panel structure, t = (p + y_q) / P for panel p < P and
Gauss node y_q, so every sum over it of g_i exp(i pi j t_i) splits into
quad_nodes FFTs of length 2P over p, read at bin j mod 2P, each followed by
the phase exp(i pi j y_q / P).  panel_analysis computes these sums for
j < count in O(quad_nodes P log P + quad_nodes count) with numpy.fft alone
(no BLAS call, so its bytes do not depend on the BLAS thread count), and
panel_synthesis is the same product the other way; e_k(t) is the imaginary
part of exp(i pi k t) times sqrt(2) / (k pi).  profiles and moments take the
transform for a product of one row when the half table is larger than
_TRANSFORM_ABOVE_BYTES (2 MiB) and the table otherwise.  A batch of rows
is one BLAS-3 product, which beats quad_nodes FFTs a row at the two batch
sizes left, the 48 rows of (H) and the 100 of the oddness check (the ray
checks sum their forms on the grid from one synthesis of each ray and no
analysis, bvp.bvp_operator): a synthesis and an analysis of 64 rows took
2.8 ms through the table and 9.1 ms through the transform at 320 modes,
45 and 63 ms at 1,280.  Medians per one-row call on 2 shared vCPUs with
2 OpenBLAS threads, table -> transform:

    modes x nodes   half table   profiles           moments
       32 x   256     0.03 MiB     7.4 -> 35 us       7.4 -> 38 us
      160 x 1,024      0.6 MiB      20 -> 45 us        20 -> 51 us
      320 x 2,048      2.5 MiB     208 -> 64 us       122 -> 64 us
    1,280 x 8,192       40 MiB   2,068 -> 230 us    1,807 -> 270 us

Both ways are linear and every rounding in them flips sign with its input,
so a product of -c is the negation of the product of c bit for bit.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SpaceConfig",
    "H1Vector",
    "basis_matrix",
    "basis_vector",
    "evaluate",
    "folded_grid",
    "gauss_rule",
    "inner",
    "l2_norm_sq",
    "moments",
    "panel_analysis",
    "panel_phases",
    "panel_synthesis",
    "profiles",
    "quadrature_grid",
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
    # built in place: one half-grid x n table at a time
    mat = np.outer(nodes[: _half(nodes.size)], np.arange(1, n_modes + 1))
    mat *= np.pi
    np.sin(mat, out=mat)
    mat *= _scales(n_modes)
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


# one-row products take the panel transform above this half-table size
_TRANSFORM_ABOVE_BYTES = 2 * 2**20


def _by_transform(rows: int, cfg: SpaceConfig) -> bool:
    """Whether a product of this many rows takes the panel transform."""
    table_bytes = 8 * _half(cfg.quad_nodes * cfg.n_panels) * cfg.n_modes
    return rows == 1 and table_bytes > _TRANSFORM_ABOVE_BYTES


def _scales(n_modes: int) -> np.ndarray:
    """sqrt(2) / (k pi) for k = 1..n_modes, the amplitudes of the basis."""
    ks = np.arange(1, n_modes + 1)
    return np.sqrt(2.0) / (ks * np.pi)


def panel_phases(cfg: SpaceConfig, count: int) -> np.ndarray:
    """(count, quad_nodes) table of exp(i pi j y_q / n_panels) for j < count."""
    y, _ = gauss_rule(cfg.quad_nodes)
    phases = np.outer(np.arange(count), y) * (1j * np.pi / cfg.n_panels)
    return np.exp(phases, out=phases)


def panel_analysis(values: np.ndarray, cfg: SpaceConfig, phases: np.ndarray) -> np.ndarray:
    """sum_i g(t_i) exp(i pi j t_i) over the grid for each of B rows of g.

    values is (B, N) real, in grid order; phases is panel_phases(cfg, count)
    and the result is (B, count) complex.  For t = (p + y_q) / P the sum over
    p is an FFT of length 2P read at bin j mod 2P, so a count above 2P folds
    the bins.
    """
    b = values.shape[0]
    count, quad_nodes = phases.shape
    width = 2 * cfg.n_panels
    # one unscaled inverse FFT per Gauss node, read as (B, 2P, quad_nodes)
    spectra = np.fft.ifft(
        values.reshape(b, -1, quad_nodes).transpose(0, 2, 1), n=width, norm="forward"
    ).transpose(0, 2, 1)
    bins = spectra[:, :count] if count <= width else spectra[:, np.arange(count) % width]
    bins *= phases
    return bins.sum(axis=-1)


def panel_synthesis(amplitudes: np.ndarray, cfg: SpaceConfig, phases: np.ndarray) -> np.ndarray:
    """sum_j a_j exp(i pi j t_i) at every grid node for each of B rows of a.

    amplitudes is (B, count) real and phases is panel_phases(cfg, count); the
    result is (B, N) complex, in grid order: the transpose of panel_analysis.
    """
    b, count = amplitudes.shape
    quad_nodes = phases.shape[1]
    width = 2 * cfg.n_panels
    terms = amplitudes[:, :, None] * phases
    if count > width:  # fold the bins modulo 2P
        pad = np.zeros((b, -count % width, quad_nodes), dtype=terms.dtype)
        terms = np.concatenate([terms, pad], axis=1).reshape(b, -1, width, quad_nodes).sum(axis=1)
    values = np.fft.ifft(terms.transpose(0, 2, 1), n=width, norm="forward")[..., : cfg.n_panels]
    return values.transpose(0, 2, 1).reshape(b, -1)


def profiles(coeffs: np.ndarray, cfg: SpaceConfig, phases: np.ndarray | None = None) -> np.ndarray:
    """Folded grid values of the functions whose coefficient rows are coeffs.

    coeffs is (B, n_modes); the result is (2, B, half), from the one
    product [c; d c] E_h^T, or for one row above the crossover from
    panel_synthesis.  phases, panel_phases(cfg, n_modes + 1), spares the
    transform building its own.
    """
    n = cfg.n_modes
    if _by_transform(coeffs.shape[0], cfg):
        if phases is None:
            phases = panel_phases(cfg, n + 1)
        amplitudes = np.zeros((1, n + 1))
        amplitudes[:, 1:] = coeffs * _scales(n)
        return _fold(panel_synthesis(amplitudes, cfg, phases).imag)
    stacked = (coeffs * _signs(n)).reshape(-1, n)
    values = stacked @ _half_basis(n, cfg.quad_nodes, cfg.n_panels).T
    return values.reshape(2, coeffs.shape[0], -1)


def moments(folded: np.ndarray, cfg: SpaceConfig, phases: np.ndarray | None = None) -> np.ndarray:
    """sum_i g(t_i) e_k(t_i) over the grid for each of B folded rows of g.

    folded is (2, B, half), with any quadrature weights applied; the result
    is (B, n_modes), from the one product of the stacked rows with E_h, or
    for one row above the crossover from panel_analysis.  phases is as for
    profiles.
    """
    n = cfg.n_modes
    b = folded.shape[1]
    if _by_transform(b, cfg):
        if phases is None:
            phases = panel_phases(cfg, n + 1)
        n_nodes = cfg.quad_nodes * cfg.n_panels
        half = folded.shape[-1]
        # grid order; a middle node gets the sum of its two halves
        values = np.zeros((b, n_nodes))
        values[:, :half] = folded[0]
        values[:, n_nodes - half :] += folded[1, :, ::-1]
        return panel_analysis(values, cfg, phases).imag[:, 1:] * _scales(n)
    y = folded.reshape(2 * b, -1) @ _half_basis(n, cfg.quad_nodes, cfg.n_panels)
    y = y.reshape(2, b, -1)
    y[1] *= _signs(n)[1]
    y[0] += y[1]  # y_left + d y_right
    return y[0]


def basis_matrix(cfg: SpaceConfig) -> np.ndarray:
    """Matrix E with E[i, k] = e_{k+1}(t_i) on the quadrature grid.

    A full view unfolded from the half table, built anew on every call; the
    package computes through profiles and moments and never builds it.  It
    stays public because perfbench's traced byte count calls it; ROADMAP
    item 3 moves that count to the half table's bytes.
    """
    half = _half_basis(cfg.n_modes, cfg.quad_nodes, cfg.n_panels)
    return _unfold(half, half * _signs(cfg.n_modes)[1], cfg.quad_nodes * cfg.n_panels)


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
    if not np.all((tarr >= 0.0) & (tarr <= 1.0)):  # rejects NaN as well
        raise ValueError("t must lie in [0, 1]")
    ks = np.arange(1, u.n_modes + 1)
    scale = np.sqrt(2.0) / (ks * np.pi)
    vals = np.sin(np.multiply.outer(tarr, ks) * np.pi) @ (scale * u.coeffs)
    if np.isscalar(t) or tarr.ndim == 0:
        return float(vals)
    return vals
