"""Problem definitions: parse line-oriented config files and build the
operator, comparison operator, seeds and checker parameters they describe.

A problem file is INI-style with sections [space], [problem], [solver] and
[hypotheses]; every key is validated against the schema below and unknown
keys or sections are errors.  See the README for the full key reference.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import bvp as bvp_mod
from .hypotheses import h2_prime_chunk
from .models import clipped_cubic_operator, linear_operator, radial_power_operator
from .operators import _ODDNESS_SAMPLES, LinearOperatorSpec, PotentialOperatorSpec
from .solver import SolverConfig, axis_seeds, circle_seeds
from .space import H1Vector, SpaceConfig, _table_free, basis_vector

__all__ = ["ConfigError", "HypothesisParams", "ProblemSetup", "load_problem", "parse_config"]


class ConfigError(ValueError):
    """A problem configuration could not be parsed or validated."""


_SCHEMA: dict[str, dict[str, Callable[[str], Any]]] = {
    "space": {"n_modes": int, "quad_nodes": int, "n_panels": int},
    "problem": {
        "kind": str,  # power_law | cubic2d | linear2d | bvp
        "family": str,  # bvp only: sublinear | power | linear | zero
        "amplitude": float,
        "theta": float,
        "lam": float,
        "r1": float,
        "mode": str,  # one_pair | two_pair
        "radius": float,
        "n_circle_seeds": int,
        "expected_pairs": int,
        "b1_scale": float,
        "b2_scale": float,
        "a_scale": float,
    },
    "solver": {
        "max_iter": int,
        "grad_tol": float,
        "dedup_tol": float,
        "deflation_radius": float,
        "seed": int,
    },
    "hypotheses": {
        "n_s": int,
        "n_angle": int,
        "growth_radii": str,
        "dirs_per_radius": int,
        "eigen_n": int,
    },
}

_KINDS = ("power_law", "cubic2d", "linear2d", "bvp")
_FAMILIES = ("sublinear", "power", "linear", "zero")
_MAX_TABLE_BYTES = 2**30  # largest table a problem may build
# operator rows the checkers may apply, 64x the largest shipped grid (cubic2d's
# 256 x 256 (H2)' rows); bounds the time of `check` as the byte limit bounds memory
_MAX_CHECK_ROWS = 2**22
# an (H2)' angle is counted as at least this many rows.  The sweep makes one
# Python-level pass per chunk of whole angles (hypotheses.h2_prime_chunk): on
# cubic2d a 10-point angle costs about 0.4 us, as much as 30 rows, and
# `check` at the cap takes at most about 0.15 s (n_s = 513, one angle a pass)
_ANGLE_PASS_ROWS = 64
# a bvp row costs two products through the basis and an f evaluation on the
# quadrature grid; it is counted as one row per this many grid nodes
_GRID_NODES_PER_ROW = 8
# footprint of one H1Vector seed besides its coefficients (object, attribute
# dict, array header, list slot): about 210 B measured with tracemalloc
_SEED_OVERHEAD_BYTES = 224
# the oddness check holds its coefficient rows about five times at once
# (tracemalloc): a coefficient operator the samples, their negation, both
# images and their sum (5.0x).  A bvp operator's hook tests f on the grid
# and applies no row, and every config family passes it (bvp.bvp_operator),
# so a bvp load holds the sampled rows about twice and no profile of them
_ODDNESS_TABLES = 6
# the hook holds f at m and at -m and a negation of one of them, arrays of
# at most max(2**15, quad_nodes n_panels) values (3.00x on the config
# families at 256, 2,048 and 8,192 nodes, at most 3.003x, tracemalloc)
_ODD_HOOK_TABLES = 3
# applying the (H) rows holds them about three to four times (tracemalloc):
# a bvp operator its folded profiles, f at them and their weighted product
# (3.0-3.1x on bvp_sqrt's 2,048- and 8,192-node table grids, 4.0-4.1x on
# 256 nodes), a coefficient operator its images (1.0-3.5x).  On a
# table-free grid the panel transform batch, which is larger, counts them
_H_BATCH_TABLES = 5
# bytes a batch row through the panel transform holds per cell of quad_nodes
# x max(n_modes + 1, 2 n_panels): its grid values, its spectra and FFT lines
# (one a Gauss line and its mirror), or the gathered or folded bins when
# n_modes >= 2 n_panels; 0.6-1.6 complex values a cell measured with
# tracemalloc (9.9-17.9 bytes a synthesis, 10.1-25.2 an analysis)
_TRANSFORM_CELL_BYTES = 40


@dataclass(frozen=True)
class HypothesisParams:
    n_s: int = 256
    n_angle: int = 256
    growth_radii: tuple[float, ...] = (0.5, 1.0, 2.0, 4.0, 8.0)
    dirs_per_radius: int = 16
    eigen_n: int = 1000

    def __post_init__(self) -> None:
        if self.n_s < 10 or self.n_angle < 10:
            raise ValueError("n_s and n_angle must be >= 10")
        if self.dirs_per_radius < 1:
            raise ValueError("dirs_per_radius must be >= 1")
        if self.eigen_n < 3:
            raise ValueError("eigen_n must be >= 3 (finite-difference eigenvalue)")


@dataclass(frozen=True, eq=False)
class ProblemSetup:
    name: str
    kind: str
    mode: str  # one_pair | two_pair
    space: SpaceConfig
    operator: PotentialOperatorSpec
    comparison: LinearOperatorSpec  # k x k on span{e_1, ..., e_k}, k = 1 or 2 by mode
    radius: float
    expected_pairs: int
    seeds: list[H1Vector]
    solver: SolverConfig
    hyp: HypothesisParams
    seed: int
    nonlinearity: bvp_mod.Nonlinearity | None = None
    d1_r1: float = 0.25

    @property
    def row_width(self) -> int:
        """Values one applied operator row carries: its coefficients, and
        for bvp also its profile on the quadrature grid."""
        return _row_width(self.kind, self.space)

    @property
    def e_vectors(self) -> tuple[H1Vector, H1Vector]:
        """The orthonormal pair spanning the seed circle (two-pair mode)."""
        return basis_vector(1, self.space.n_modes), basis_vector(
            2, self.space.n_modes
        )


def parse_config(path: str | Path, overrides: list[str] | None = None) -> dict[str, dict[str, Any]]:
    """Read and validate a problem file into a nested {section: {key: value}} dict."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"problem file not found: {p}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(p) as fh:
            parser.read_file(fh)
    except (configparser.Error, OSError) as exc:
        raise ConfigError(f"cannot parse {p}: {exc}") from exc

    raw: dict[str, dict[str, Any]] = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        raw[section] = {}
        for key, value in parser.items(section):
            raw[section][key] = _convert(section, key, value)
    for item in overrides or []:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override must look like section.key=value: {item!r}")
        target, value = item.split("=", 1)
        section, key = target.split(".", 1)
        section, key = section.strip(), key.strip()
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section in override: {section!r}")
        raw.setdefault(section, {})[key] = _convert(section, key, value.strip())
    return raw


def _convert(section: str, key: str, value: str) -> Any:
    schema = _SCHEMA[section]
    if key not in schema:
        raise ConfigError(f"unknown key {key!r} in section [{section}]")
    try:
        converted = schema[key](value)
    except ValueError as exc:
        raise ConfigError(f"bad value for {section}.{key}: {value!r}") from exc
    if isinstance(converted, float) and not math.isfinite(converted):
        raise ConfigError(f"bad value for {section}.{key}: {value!r} is not finite")
    return converted


def _parse_radii(text: str) -> tuple[float, ...]:
    try:
        radii = tuple(float(x) for x in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad growth_radii: {text!r}") from exc
    if not radii or not all(0 < r < math.inf for r in radii) or any(
        b <= a for a, b in zip(radii, radii[1:])
    ):
        raise ConfigError("growth_radii must be finite, positive and increasing")
    return radii


def _row_width(kind: str, space: SpaceConfig) -> int:
    """ProblemSetup.row_width before the setup exists."""
    if kind == "bvp":
        return max(space.n_modes, space.quad_nodes * space.n_panels)
    return space.n_modes


def _table_sizes(
    kind: str, space: SpaceConfig, mode: str, n_seeds: int, hyp: HypothesisParams
) -> dict[str, int]:
    """Bytes of the largest arrays a problem builds, by what they hold.

    Every kind builds n_seeds seed vectors and checks oddness on one batch
    of _ODDNESS_SAMPLES coefficient rows, counted _ODDNESS_TABLES times; the
    checkers take the forms of n_s scaled rows at once in (H2), of
    h2_prime_chunk(n_s, row_width) angles of n_s rows at once in (H2)',
    which also holds all n_angle circle points (two such tables at the peak,
    measured with tracemalloc), and apply the operator to all
    len(growth_radii) x dirs_per_radius rows of (H) in one batch, counted
    _H_BATCH_TABLES times, and
    `eigen` builds eigen_n-long finite-difference vectors.  bvp also builds
    the Gauss-Legendre companion matrix of quad_nodes and a grid profile of
    every applied row.  Its oddness check applies no row: the operator's
    hook compares f(t, -m) with -f(t, m) on the grid, a chunk of magnitudes
    at a time, and holds _ODD_HOOK_TABLES arrays of at most min(100, max(1,
    2**15 // nodes)) grids of nodes = quad_nodes n_panels values each.  On a
    table-free grid (space._table_free) its (H) batch goes through the panel
    transform, at _TRANSFORM_CELL_BYTES a cell per row.
    Any other grid tabulates the basis on the left half of the quadrature
    grid, which is then at most 16 MiB and not counted.  The quad_nodes x (n_modes + 1)
    phases of a one-row transform are not counted either: with what a
    one-row product holds they come to at most 64 bytes a cell (0.6-1.0 of
    that under tracemalloc), 1/62 of the transform batch on a table-free
    grid and at most 512 MiB on a grid whose half table is at most 16 MiB.
    Nor is the k x k comparison block (k <= 2): its cosine moments take
    the transform on 2k + 1 bins, about 64 bytes a grid node plus 32 (2k +
    1)(quad_nodes + 1) of phases, and with n_s >= 10 the (H2) batch or one
    (H2)' chunk holds at least n_s grid rows, 80 bytes a node, while the
    phases stay below the Gauss-Legendre rule from 21 nodes a panel on and
    a few KiB before.
    """
    n = space.n_modes
    width = _row_width(kind, space)
    row = 8 * width
    h_rows = len(hyp.growth_radii) * hyp.dirs_per_radius
    tables = {
        "seed table": n_seeds * (8 * n + _SEED_OVERHEAD_BYTES),
        "oddness batch": _ODDNESS_TABLES * _ODDNESS_SAMPLES * 8 * n,
        "finite-difference vector": 8 * hyp.eigen_n,
    }
    if kind == "bvp":
        tables["Gauss-Legendre rule"] = 8 * space.quad_nodes**2
        nodes = space.quad_nodes * space.n_panels
        grids = min(bvp_mod._ODD_MAGNITUDES.size, max(1, bvp_mod._ODD_CHUNK_CELLS // nodes))
        tables["oddness hook"] = _ODD_HOOK_TABLES * 8 * grids * nodes
        if _table_free(space):
            cells = space.quad_nodes * max(n + 1, 2 * space.n_panels)
            tables["panel transform batch"] = h_rows * _TRANSFORM_CELL_BYTES * cells
    if mode == "one_pair":
        tables["(H2) batch"] = hyp.n_s * row
    else:
        tables["(H2)' chunk"] = h2_prime_chunk(hyp.n_s, width) * hyp.n_s * row
        tables["(H2)' circle"] = 2 * hyp.n_angle * 8 * n
    tables["(H) batch"] = _H_BATCH_TABLES * h_rows * row
    return tables


def _check_table_sizes(
    kind: str, space: SpaceConfig, mode: str, n_seeds: int, hyp: HypothesisParams
) -> None:
    """Reject a problem whose largest table (_table_sizes) would exceed
    _MAX_TABLE_BYTES.  The time of the (H2)' sweep is bounded by
    _check_checker_rows."""
    tables = _table_sizes(kind, space, mode, n_seeds, hyp)
    name, size = max(tables.items(), key=lambda item: item[1])
    if size > _MAX_TABLE_BYTES:
        raise ConfigError(
            f"problem too large: the {name} needs {size / 2**30:.1f} GiB, "
            f"above the {_MAX_TABLE_BYTES / 2**30:.0f} GiB limit"
        )


def _check_checker_rows(kind: str, space: SpaceConfig, mode: str, hyp: HypothesisParams) -> None:
    """Reject a problem whose checkers would apply more than _MAX_CHECK_ROWS rows.

    A bvp row is weighted by its grid: it counts as one row per
    _GRID_NODES_PER_ROW quadrature nodes, so sublinear_affine's 256-node
    rows count 32 each.
    """
    weight = 1
    if kind == "bvp":
        weight = -(-space.quad_nodes * space.n_panels // _GRID_NODES_PER_ROW)
    rows = {"(H)": len(hyp.growth_radii) * hyp.dirs_per_radius * weight}
    if mode == "one_pair":
        rows["(H2)"] = hyp.n_s * weight
    else:
        rows["(H2)'"] = hyp.n_angle * max(hyp.n_s * weight, _ANGLE_PASS_ROWS)
    name, count = max(rows.items(), key=lambda item: item[1])
    if count > _MAX_CHECK_ROWS:
        raise ConfigError(
            f"problem too large: {name} would apply the operator to {count:,} rows "
            f"(one {kind} row counts {weight}), above the {_MAX_CHECK_ROWS:,} row limit"
        )


def load_problem(
    path: str | Path, overrides: list[str] | None = None, seed: int | None = None
) -> ProblemSetup:
    """Build a ProblemSetup from a problem file plus optional overrides."""
    raw = parse_config(path, overrides)
    prob = raw.get("problem", {})
    kind = prob.get("kind")
    if kind not in _KINDS:
        raise ConfigError(f"problem.kind must be one of {_KINDS}, got {kind!r}")

    space_kwargs = raw.get("space", {})
    try:
        space = SpaceConfig(**space_kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad [space] section: {exc}") from exc
    if kind in ("cubic2d", "linear2d") and space.n_modes != 2:
        space = SpaceConfig(2, space.quad_nodes, space.n_panels)
    mode = prob.get("mode", "two_pair" if kind != "power_law" else "one_pair")
    if mode not in ("one_pair", "two_pair"):
        raise ConfigError(f"problem.mode must be one_pair or two_pair, got {mode!r}")
    n_seeds = 1 if mode == "one_pair" else int(prob.get("n_circle_seeds", 16))
    if n_seeds < 1:
        raise ConfigError("problem.n_circle_seeds must be >= 1")

    hyp_kwargs = dict(raw.get("hypotheses", {}))
    if "growth_radii" in hyp_kwargs:
        hyp_kwargs["growth_radii"] = _parse_radii(hyp_kwargs["growth_radii"])
    try:
        hyp = HypothesisParams(**hyp_kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad [hypotheses] section: {exc}") from exc
    _check_table_sizes(kind, space, mode, n_seeds, hyp)
    _check_checker_rows(kind, space, mode, hyp)

    radius = float(prob.get("radius", 0.5))
    if radius <= 0:
        raise ConfigError("problem.radius must be positive")
    theta = float(prob.get("theta", 0.5))
    nl: bvp_mod.Nonlinearity | None = None
    d1_r1 = float(prob.get("r1", 0.25))
    try:
        bvp_mod.d1_magnitudes(d1_r1)
    except ValueError as exc:
        raise ConfigError(f"bad problem.r1: {exc}") from exc

    k = 1 if mode == "one_pair" else 2
    try:
        if kind == "power_law":
            operator = radial_power_operator(
                amplitude=float(prob.get("amplitude", 2.0)),
                theta=theta,
                n_modes=space.n_modes,
            )
            comparison = LinearOperatorSpec.scaled_identity(float(prob.get("b1_scale", 1.5)), k)
        elif kind == "cubic2d":
            operator = clipped_cubic_operator(n_modes=2)
            comparison = LinearOperatorSpec.scaled_identity(float(prob.get("b2_scale", 1.5)), k)
        elif kind == "linear2d":
            a_scale = float(prob.get("a_scale", 2.0))
            operator = linear_operator(a_scale * np.eye(2), label=f"scaled-identity({a_scale})")
            comparison = LinearOperatorSpec.scaled_identity(float(prob.get("b2_scale", a_scale)), k)
        else:  # bvp
            family = prob.get("family", "sublinear")
            if family not in _FAMILIES:
                raise ConfigError(
                    f"problem.family must be one of {_FAMILIES}, got {family!r}"
                )
            if family == "sublinear":
                nl = bvp_mod.sublinear_affine(r1=d1_r1, theta=theta)
            elif family == "power":
                nl = bvp_mod.power_nonlinearity(
                    amplitude=float(prob.get("amplitude", 10.0)), theta=theta
                )
                d1_r1 = float(prob.get("r1", 0.99))
            elif family == "linear":
                nl = bvp_mod.linear_nonlinearity(float(prob.get("lam", 5.0)))
            else:
                nl = bvp_mod.zero_nonlinearity()
            operator = bvp_mod.bvp_operator(nl, space)
            comparison = bvp_mod.b_matrix(nl.a1, space, k)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"bad problem parameters: {exc}") from exc

    default_pairs = 1 if mode == "one_pair" else 2
    expected_pairs = int(prob.get("expected_pairs", default_pairs))
    if expected_pairs < 0:
        raise ConfigError("problem.expected_pairs must be >= 0")

    solver_kwargs = dict(raw.get("solver", {}))
    # the run seed drives the sampled checks ((H), gradcheck); the descent draws none
    run_seed = solver_kwargs.pop("seed", 0)
    if seed is not None:
        run_seed = seed
    if run_seed < 0:
        raise ConfigError(f"the run seed must be >= 0, got {run_seed}")
    solver_kwargs.setdefault("grad_tol", 1e-8 if kind == "bvp" else 1e-10)
    try:
        solver_cfg = SolverConfig(**solver_kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad [solver] section: {exc}") from exc

    e1 = basis_vector(1, space.n_modes)
    if mode == "one_pair":
        seeds = axis_seeds(e1, radius)
    else:
        if space.n_modes < 2:
            raise ConfigError("two-pair mode needs at least two modes")
        e2 = basis_vector(2, space.n_modes)
        seeds = circle_seeds(e1, e2, radius, n_seeds)

    return ProblemSetup(
        name=Path(path).stem,
        kind=kind,
        mode=mode,
        space=space,
        operator=operator,
        comparison=comparison,
        radius=radius,
        expected_pairs=expected_pairs,
        seeds=seeds,
        solver=solver_cfg,
        hyp=hyp,
        seed=run_seed,
        nonlinearity=nl,
        d1_r1=d1_r1,
    )
