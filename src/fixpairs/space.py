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

The grid also has a panel structure, t = (p + y_q) / P for panel p < P and
Gauss node y_q, so every sum over it of g_i exp(i pi j t_i) splits into
quad_nodes DFTs of length 2P over p, read at bin j mod 2P, each followed by
the phase exp(i pi j y_q / P).  The Gauss nodes are symmetric,
y_(Q-1-q) = 1 - y_q, so one real FFT of length 2P serves a line q and its
mirror Q-1-q: panel_analysis transforms [g_q, -/+ reversed g_(Q-1-q)],
whose bins give the sine (-) or cosine (+) sums of both lines, and
panel_synthesis takes the inverse FFTs of the lines q >= Q/2 only, since
for a sine series S(1 + s) = -S(1 - s) and the second half of each,
reversed and negated, is the mirror line.  That is ceil(quad_nodes / 2)
FFTs a row either way, in O(quad_nodes P log P + quad_nodes count) with
numpy.fft and einsum alone (no BLAS call, so the bytes do not depend on
the BLAS thread count); e_k(t) is sqrt(2) / (k pi) times the sine of
pi k t.

profiles and moments take grid values as (B, N) arrays in grid order.
They take the transform for every product, one row or a batch, when the
basis table, 8 bytes a mode and grid node, is larger than
_TABLE_FREE_ABOVE_BYTES (4 MiB), so such a grid never builds the table, and
otherwise one product through the table E^T[k, i] = e_(k+1)(t_i), a row a
mode.  row_cells counts what one row holds on either route; a bvp
operator's row_width is it, and the load bounds it.  The batches are the
48 rows of (H), in chunks of operators.batches (4 rows at 1,280 modes on
8,192 nodes); the oddness check tests f on the grid and applies its 100
sampled rows only where that fails, and the ray checks sum their forms on
the grid from one synthesis of each ray and no analysis
(bvp.bvp_operator).  A synthesis plus an analysis of 48 rows in one call,
table / transform, in ms: the median wall time of 31 interleaved calls, and
the CPU time of all threads a call over 31 calls in a row and the 0.3 s
after them (2 shared vCPUs, 2 OpenBLAS threads, one run), and the time to
build the table:

    modes x nodes   table      build   wall          CPU
      256 x 2,048    4.0 MiB     13     2.2 /  2.6    8.4 /  1.5
      320 x 2,048    5.0 MiB     12     2.7 /  2.7    9.1 /  2.2
      640 x 4,096   20.0 MiB     79    11.1 /  5.9   25.2 /  5.9
    1,280 x 8,192   80.0 MiB    208    40.9 / 10.6   93.6 / 14.3

OpenBLAS runs a product on a second thread above about half a million
multiply-adds (48 x 32 by 32 x 352 here, not 48 x 32 by 32 x 320), and its
worker then spins for about 70 to 110 ms: the table's CPU above.  The
shipped 32-mode grids stay below that size (sublinear_affine's 40 (H) rows
are one 40 x 32 x 256 product each way); bvp_sqrt's 48 rows at 320 modes
crossed it, and take the transform, which makes no BLAS call, so a check of
all six shipped problems runs on one thread (BENCH_28.json).  A table grid
from about 88 KiB to 4 MiB (352 to 16,384 nodes at 32 modes; 48 rows make
six multiply-adds a table byte) runs its 48 rows on two threads.  evaluate
sums its series with einsum, numpy's own loop, for the same reason.

Both ways are linear and every rounding in them flips sign with its input,
so a product of -c is the negation of the product of c bit for bit.

What a product reads of its grid (the nodes and weights, the transform's
phases and the table) is one Grid.  A bvp operator builds its own and holds
it, so a grid and its table live as long as the operator.  The Grid also
holds the transform's work: the phases of the lines q >= Q/2, rotated for
the synthesis and conjugated for the analysis, built once, and one complex
(B, ceil(Q/2), P + 1) array of spectra and one real (B, ceil(Q/2), 2P)
array of FFT lines, which numpy.fft writes through out= (numpy 2.0 and
later).  Both arrays serve the synthesis and the analysis, whose uses of
them never overlap, and grow to the largest batch the grid has seen (4
rows, 262 KB each, at 1,280 modes on 8,192 nodes).  A product's result is
a new array on every call, so what a caller keeps is never overwritten.
The arrays are held because glibc serves a block above its mmap threshold
fresh from the kernel, page fault by page fault, and raises the threshold
only when such a block is freed: with a new spectrum and new lines on every
call, a product's speed depended on what else the process had freed
before (a 10.25 MB evaluate made a bvp_highres pass 2,700 minor faults
cheaper).  Two products on one Grid must not run at once, from two
threads or from an f that applies its own operator: they would share the
work arrays.

evaluate sums sin(pi k t) terms a chunk of points at a time, at most
_EVALUATE_CELLS (2^16) terms or two points' worth, and its values are those
of one sum over all the points bit for bit; at 1,280 modes and 1,001 points
it held one 10.25 MB array before, and about 0.5 MB now.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SpaceConfig",
    "H1Vector",
    "Grid",
    "basis_matrix",
    "basis_vector",
    "evaluate",
    "gauss_rule",
    "inner",
    "moments",
    "panel_analysis",
    "panel_phases",
    "panel_synthesis",
    "profiles",
    "row_cells",
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


class Grid:
    """The composite Gauss-Legendre grid of one discretization, with the
    panel transform's operands and work arrays.

    nodes, weights: the rule in grid order, gauss_rule at cfg's resolution.
    phases: panel_phases(cfg, n_modes + 1), the bins the transform reads.
    table: the basis table, built on its first read.

    The transform also reads the phases of the lines q >= quad_nodes // 2
    divided by 2i for the synthesis and conjugated for the analysis, built
    here once, and writes its FFT spectra and lines into two arrays held
    here (_work), so a product on a Grid is not re-entrant.  A bvp
    operator builds its own and holds it.
    """

    def __init__(self, cfg: SpaceConfig) -> None:
        self.cfg = cfg
        self.nodes, self.weights = gauss_rule(cfg.quad_nodes, cfg.n_panels)
        self.phases = panel_phases(cfg, cfg.n_modes + 1)
        self.phases.flags.writeable = False
        upper = self.phases[:, cfg.quad_nodes // 2 :]
        # C_k / 2i term by term, exactly: -0.5j z only swaps, halves and negates
        self._rotated = (-0.5j * upper).T
        # the terms of bins P <= j enter the synthesis's spectrum conjugated
        self._rotated_back = self._rotated[:, cfg.n_panels :].conj()
        self._conjugated = upper[: cfg.n_panels + 1].conj()
        lines = (cfg.quad_nodes + 1) // 2
        self._spectra = np.empty((0, lines, cfg.n_panels + 1), dtype=complex)
        self._lines = np.empty((0, lines, 2 * cfg.n_panels))

    def _work(self, rows: int) -> tuple[np.ndarray, np.ndarray]:
        """The transform's (rows, ceil(Q/2), P + 1) complex spectra and
        (rows, ceil(Q/2), 2P) real FFT lines: the leading rows of one array
        each, grown to the largest batch seen.  A synthesis and an analysis
        share them: neither's use of them outlives its call."""
        if self._lines.shape[0] < rows:
            self._spectra = np.empty((rows, *self._spectra.shape[1:]), dtype=complex)
            self._lines = np.empty((rows, *self._lines.shape[1:]))
        return self._spectra[:rows], self._lines[:rows]

    @functools.cached_property
    def table(self) -> np.ndarray:
        """E^T[k, i] = e_(k+1)(t_i) on every grid node, (n_modes, N).

        A table-free grid (_table_free) never reads it; only basis_matrix
        builds it there.
        """
        n = self.cfg.n_modes
        # built in place: one n x N table at a time
        mat = np.outer(np.arange(1, n + 1), self.nodes)
        mat *= np.pi
        np.sin(mat, out=mat)
        mat *= _scales(n)[:, None]
        mat.flags.writeable = False
        return mat


# every product takes the panel transform above this table size, so such a
# grid builds no table
_TABLE_FREE_ABOVE_BYTES = 4 * 2**20


def _table_free(cfg: SpaceConfig) -> bool:
    """Whether the table, 8 bytes a mode and grid node, is larger than
    _TABLE_FREE_ABOVE_BYTES, so that every product on the grid takes the
    panel transform and the grid never builds the table."""
    return 8 * cfg.quad_nodes * cfg.n_panels * cfg.n_modes > _TABLE_FREE_ABOVE_BYTES


def row_cells(cfg: SpaceConfig) -> int:
    """Cells one row of a product holds on the grid of cfg.

    On a table-free grid, the panel transform's quad_nodes x max(n_modes +
    1, 2 n_panels): its FFT lines and spectra, or its gathered or folded
    bins when n_modes >= 2 n_panels; otherwise the row's grid profile or its
    coefficients, max(n_modes, N).
    """
    if _table_free(cfg):
        return cfg.quad_nodes * max(cfg.n_modes + 1, 2 * cfg.n_panels)
    return max(cfg.n_modes, cfg.quad_nodes * cfg.n_panels)


def _scales(n_modes: int) -> np.ndarray:
    """sqrt(2) / (k pi) for k = 1..n_modes, the amplitudes of the basis."""
    ks = np.arange(1, n_modes + 1)
    return np.sqrt(2.0) / (ks * np.pi)


def panel_phases(cfg: SpaceConfig, count: int) -> np.ndarray:
    """(count, quad_nodes) table of exp(i pi j y_q / n_panels) for j < count."""
    y, _ = gauss_rule(cfg.quad_nodes)
    phases = np.outer(np.arange(count), y) * (1j * np.pi / cfg.n_panels)
    return np.exp(phases, out=phases)


def panel_analysis(values: np.ndarray, g: Grid, cosine: bool = False) -> np.ndarray:
    """sum_i g(t_i) sin(pi j t_i) over the grid for each of B rows of g, or
    the sums of g(t_i) cos(pi j t_i) with cosine=True, for the bins j of
    g.phases.

    values is (B, N) real, in grid order, and the result is (B, n_modes + 1)
    real.  For t = (p + y_q) / P the sum over p is a DFT of length 2P at bin
    j mod 2P, so a count of bins above 2P folds them.  Since y_(Q-1-q) = 1 -
    y_q, a line q >= Q/2 followed by its mirror line reversed, [g_q, -/+
    reversed g_(Q-1-q)], is one real FFT of length 2P whose R_j, j <= P,
    give both lines' sine sums (with -) or cosine sums (with +) as the
    imaginary or real part of conj(R_j) times the phase of q; the middle
    line of an odd quad_nodes is its own mirror and is padded with zeros
    instead.  The grid values are real, so bin j is conj(R_j) up to P and
    R_(2P-j) above it.  The lines and their spectra are g's work arrays.
    """
    cfg = g.cfg
    b = values.shape[0]
    count = g.phases.shape[0]
    p = cfg.n_panels
    width = 2 * p
    # the lines q >= lo take the FFT, each with its mirror Q-1-q; for an odd
    # quad_nodes the first of them, q = lo, is the middle line, its own mirror
    lo, odd = divmod(cfg.quad_nodes, 2)
    spectra, lines = g._work(b)
    # (B, lo + odd, 2P): one contiguous line a pair, which the FFT reads
    # faster than it gathers one.  The mirror lines go in first, and for the
    # sines the whole block is negated, one contiguous pass (numpy negates a
    # strided view through a temporary copy), before the lines q go in
    lines[:, odd:, p:] = values[:, ::-1].reshape(b, p, -1)[..., lo + odd :].transpose(0, 2, 1)
    if not cosine:
        np.negative(lines, out=lines)
    lines[..., :p] = values.reshape(b, p, -1)[..., lo:].transpose(0, 2, 1)
    lines[:, :odd, p:] = 0.0
    np.fft.rfft(lines, out=spectra)  # R_j = sum g exp(-i pi j p / P), j <= P
    phases = g.phases[:, lo:]
    if count > width:  # every bin of 2P, gathered modulo 2P
        full = np.concatenate([spectra.conj(), spectra[..., p - 1 : 0 : -1]], axis=-1)
        sums = np.einsum("bqj,jq->bj", full[..., np.arange(count) % width], phases)
        return sums.real if cosine else sums.imag
    low = min(count, p + 1)
    # sum_q conj(R_j) phase = conj(sum_q R_j conj(phase)), rounded alike
    lower = np.einsum("bqj,jq->bj", spectra[..., :low], g._conjugated[:low])
    np.conjugate(lower, out=lower)
    # bins P < j < count read R_(2P-j) through a reversed view
    upper = np.einsum("bqj,jq->bj", spectra[..., p - 1 : width - count : -1], phases[low:])
    sums = np.empty((b, count))
    sums[:, :low] = lower.real if cosine else lower.imag
    sums[:, low:] = upper.real if cosine else upper.imag
    return sums


def panel_synthesis(amplitudes: np.ndarray, g: Grid) -> np.ndarray:
    """sum_j a_j sin(pi j t_i) at every grid node for each of B rows of a.

    amplitudes is (B, n_modes + 1) real, one a bin of g.phases; the result
    is (B, N) real, in grid order: the transpose of panel_analysis.  With
    C_k the terms a_j exp(i pi j y_q / P) of the bins j = k mod 2P, the sum
    at (p + y_q) / P for p < 2P is the inverse DFT of the Hermitian
    spectrum D_k = (C_k - conj C_(2P-k)) / 2i, one real FFT over k = 0..P.
    Only the lines q >= Q/2 and a middle line take it: a sine series has
    S(1 + s) = -S(1 - s), so the second half of line q, reversed and
    negated, is line Q-1-q.  The spectrum and the lines are g's work
    arrays; the result is a new array.
    """
    cfg = g.cfg
    b, count = amplitudes.shape
    p = cfg.n_panels
    width = 2 * p
    lo, odd = divmod(cfg.quad_nodes, 2)  # the lines q >= lo, as in panel_analysis
    rotated = g._rotated
    spectrum, lines = g._work(b)
    if count > width:  # fold the bins modulo 2P
        terms = np.zeros((b, lo + odd, count + -count % width), dtype=complex)
        np.multiply(amplitudes[:, None, :], rotated, out=terms[..., :count])
        terms = terms.reshape(b, lo + odd, -1, width).sum(axis=2)
        spectrum[...] = terms[..., : p + 1]
        spectrum[..., p:0:-1] += terms[..., p:].conj()
    else:
        low = min(count, p + 1)
        spectrum[..., low:] = 0.0
        np.multiply(amplitudes[:, None, :low], rotated[:, :low], out=spectrum[..., :low])
        # the terms of bins P <= j < count enter D at 2P - j, conjugated;
        # they are formed in the lines' array, which the FFT writes only
        # after they are added
        back = lines.view(complex)[..., : max(count - p, 0)]
        np.multiply(amplitudes[:, None, p:], g._rotated_back, out=back)
        spectrum[..., p : width - count : -1] += back
    spectrum[..., 0] += spectrum[..., 0].conj()  # D_0 = Im C_0; irfft reads real parts at 0 and P
    np.fft.irfft(spectrum, n=width, norm="forward", out=lines)  # (B, lo + odd, 2P)
    values = np.empty((b, p * cfg.quad_nodes))
    values.reshape(b, p, -1)[..., lo:] = lines[..., :p].transpose(0, 2, 1)
    # negated whole, the lines' one contiguous block, then copied through a
    # view of values, so that the mirror lines are written in place; numpy
    # negates a strided view through a temporary copy
    np.negative(lines, out=lines)
    values[:, ::-1].reshape(b, p, -1)[..., lo + odd :] = lines[:, odd:, p:].transpose(0, 2, 1)
    return values


def profiles(coeffs: np.ndarray, g: Grid) -> np.ndarray:
    """Grid values of the functions whose coefficient rows are coeffs.

    coeffs is (B, n_modes); the result is (B, N) in grid order, from
    panel_synthesis on a table-free grid (_table_free) and from the table
    otherwise.
    """
    cfg = g.cfg
    if _table_free(cfg):
        amplitudes = np.zeros((coeffs.shape[0], cfg.n_modes + 1))
        np.multiply(coeffs, _scales(cfg.n_modes), out=amplitudes[:, 1:])
        return panel_synthesis(amplitudes, g)
    return coeffs @ g.table


def moments(values: np.ndarray, g: Grid) -> np.ndarray:
    """sum_i g(t_i) e_k(t_i) over the grid for each of B rows of g.

    values is (B, N) in grid order, with any quadrature weights applied;
    the result is (B, n_modes), from panel_analysis on a table-free grid
    (_table_free) and from the table otherwise.
    """
    cfg = g.cfg
    if _table_free(cfg):
        return panel_analysis(values, g)[:, 1:] * _scales(cfg.n_modes)
    return values @ g.table.T


def basis_matrix(cfg: SpaceConfig) -> np.ndarray:
    """Matrix E with E[i, k] = e_{k+1}(t_i) on the quadrature grid.

    A transposed view of a new Grid's table, built on every call; the
    package computes through profiles and moments and never calls it.  It
    stays public because perfbench's traced byte count calls it; on a
    table-free grid that call builds a table the program does not read.
    ROADMAP item 4 moves that count to the bytes the problem holds.
    """
    return Grid(cfg).table.T


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


# evaluate forms at most this many terms at once (or two points' worth)
_EVALUATE_CELLS = 2**16


def evaluate(u: H1Vector, t):
    """Pointwise values sum_k u_k e_k(t); scalar in, scalar out, and an
    array of t's shape otherwise.

    The terms sin(pi k t) are formed in place in one array of at most
    _EVALUATE_CELLS terms, or two points' worth, a chunk of points at a
    time; each point's series is summed by einsum, numpy's own loop, not a
    BLAS call, which a thousand points of a thousand modes would send to a
    second thread.  A chunk holds two points or more, and the values equal
    those of one einsum over all the points bit for bit.
    """
    tarr = np.asarray(t, dtype=float)
    if not np.all((tarr >= 0.0) & (tarr <= 1.0)):  # rejects NaN as well
        raise ValueError("t must lie in [0, 1]")
    ks = np.arange(1, u.n_modes + 1).astype(float)
    amplitudes = _scales(u.n_modes) * u.coeffs
    points = tarr.reshape(-1)
    vals = np.empty(points.size)
    rows = max(2, _EVALUATE_CELLS // u.n_modes)
    terms = np.empty((min(rows, points.size), u.n_modes))
    for start in range(0, points.size, rows):
        # einsum sums a lone row of more than 8,192 terms in another order
        # (its buffer's), so a lone last point is taken with the one before
        start = max(0, min(start, points.size - 2))
        chunk = points[start : start + rows]
        block = terms[: chunk.size]
        np.multiply.outer(chunk, ks, out=block)
        block *= np.pi
        np.sin(block, out=block)
        np.einsum("pk,k->p", block, amplitudes, out=vals[start : start + chunk.size])
    if np.isscalar(t) or tarr.ndim == 0:
        return float(vals[0])
    return vals.reshape(tarr.shape)
