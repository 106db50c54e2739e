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
from .models import clipped_cubic_operator, linear_operator, radial_power_operator
from .operators import ODDNESS_SAMPLES, LinearOperatorSpec, PotentialOperatorSpec, ray_cells
from .solver import SolverConfig, axis_seeds, circle_seeds
from .space import H1Vector, SpaceConfig, basis_vector, row_cells

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
# cells the oddness sample and each sampled checker may evaluate (_budget):
# 64x the largest shipped grid, cubic2d's 256 x 256 (H2)' points of two
# cells, and 100 oddness rows of 167,772 cells.  At the cap `check` takes
# about 0.4 s on either ray route and 1.4-1.7 s for (H) on a 720 x 720
# table grid (2 vCPUs, start-up included); in-process a cell costs 11-12 ns
# on the ray routes and 64 ns in that (H)
_MAX_CHECK_CELLS = 2**24
# cells a descent step counts at least: a 2-mode step of cubic2d costs
# 32-49 us of Python (94 steps in 4.0-4.6 ms), 1,000 cells at a cost between
# those of the checkers' cells
_STEP_CELLS = 1000
# cells the solve may evaluate.  The benchmark's 1,280-mode bvp_sqrt counts
# 26.2 million and 20,000 modes on 65,536 nodes 256 million.  335 cubic2d
# seeds fit its 400 steps, at most 11 s at 40 us a step (4,096 solved in
# 1.2 s, as their descents end early, which the config cannot show)
_MAX_SOLVE_CELLS = 2**28
# cells the seeds may hold, and points an s-grid may hold (check_h2 keeps it whole)
_MAX_HELD_CELLS = 2**20
# Gauss-Legendre points a panel: the rule's companion matrix, quad_nodes^2
# values, fits one row
_MAX_QUAD_NODES = 1024
# finite-difference points of `eigen`: 0.96 s and 130 MB at 10^6, relative
# error 2.4e-5; roundoff dominates above (1.5e-4 at 3 x 10^6, past c05's 1e-4)
_MAX_EIGEN_N = 10**6
# (H) growth radii: operators._cover_fit sorts the line through each pair of
# them, 32,640 at 256 radii; there it takes 3 ms on power_law_1d's samples
# and 17 ms on random values (10 and 57 ms at 512), on 2 vCPUs
_MAX_GROWTH_RADII = 256


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
        if self.n_s > _MAX_HELD_CELLS:
            raise ValueError(f"n_s = {self.n_s:,} is above {_MAX_HELD_CELLS:,}, the points an s-grid may hold")
        if self.dirs_per_radius < 1:
            raise ValueError("dirs_per_radius must be >= 1")
        if len(self.growth_radii) > _MAX_GROWTH_RADII:
            raise ValueError(f"growth_radii holds {len(self.growth_radii):,} radii, above {_MAX_GROWTH_RADII}")
        if not 3 <= self.eigen_n <= _MAX_EIGEN_N:
            raise ValueError(
                f"eigen_n must lie in [3, {_MAX_EIGEN_N:,}] (finite-difference eigenvalue; "
                "roundoff dominates above)"
            )


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


def _budget(
    kind: str, mode: str, space: SpaceConfig, hyp: HypothesisParams, n_seeds: int, max_iter: int, forms: bool
) -> dict[str, int]:
    """Cells each phase evaluates, counted from the config before anything
    is built; ConfigError naming the first phase over its cap.

    A row holds n_modes cells, or for bvp space.row_cells (the operator's
    row_width, at least its node count).  The oddness check draws
    ODDNESS_SAMPLES rows (a bvp operator's hook takes f at fewer values);
    (H) applies len(growth_radii) * dirs_per_radius rows; (H2) takes one
    ray and (H2)' n_angle rays of operators.ray_cells, with forms when a bvp
    nonlinearity has them (Nonlinearity.has_forms).  The solve runs a main
    descent and at most one retry of max_iter steps a seed, a step counted
    as a row but at least _STEP_CELLS.
    """
    if kind == "bvp" and space.quad_nodes > _MAX_QUAD_NODES:
        raise ConfigError(f"problem too large: space.quad_nodes = {space.quad_nodes:,}, above {_MAX_QUAD_NODES:,}")
    row = row_cells(space) if kind == "bvp" else space.n_modes
    rays = 1 if mode == "one_pair" else hyp.n_angle
    cells = {
        "oddness": ODDNESS_SAMPLES * row,
        "(H)": len(hyp.growth_radii) * hyp.dirs_per_radius * row,
        "(H2)" if mode == "one_pair" else "(H2)'": rays * ray_cells(row, hyp.n_s, forms),
        "solve": 2 * n_seeds * max_iter * max(row, _STEP_CELLS),
    }
    for name, count in cells.items():
        cap = _MAX_SOLVE_CELLS if name == "solve" else _MAX_CHECK_CELLS
        if count > cap:
            raise ConfigError(
                f"problem too large: {name} would evaluate {count:,} cells of the operator, "
                f"above the {cap:,} cell limit"
            )
    if n_seeds * space.n_modes > _MAX_HELD_CELLS:
        raise ConfigError(
            f"problem too large: {n_seeds:,} seeds of {space.n_modes:,} coefficients "
            f"hold more than {_MAX_HELD_CELLS:,} cells"
        )
    return cells


def load_problem(
    path: str | Path, overrides: list[str] | None = None, seed: int | None = None
) -> ProblemSetup:
    """Build a ProblemSetup from a problem file plus optional overrides."""
    raw = parse_config(path, overrides)
    prob = raw.get("problem", {})
    kind = prob.get("kind")
    if kind not in _KINDS:
        raise ConfigError(f"problem.kind must be one of {_KINDS}, got {kind!r}")

    space_kwargs = dict(raw.get("space", {}))
    if kind in ("cubic2d", "linear2d"):
        # these operators act on two modes, the default here
        n_modes = space_kwargs.setdefault("n_modes", 2)
        if n_modes != 2:
            raise ConfigError(f"space.n_modes must be 2 for kind {kind}, got {n_modes!r}")
    try:
        space = SpaceConfig(**space_kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad [space] section: {exc}") from exc
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

    radius = float(prob.get("radius", 0.5))
    if radius <= 0:
        raise ConfigError("problem.radius must be positive")
    theta = float(prob.get("theta", 0.5))
    d1_r1 = float(prob.get("r1", 0.25))
    try:
        bvp_mod.d1_magnitudes(d1_r1)
    except ValueError as exc:
        raise ConfigError(f"bad problem.r1: {exc}") from exc

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

    # the bvp nonlinearity holds no grid, and says whether the rays take forms
    nl: bvp_mod.Nonlinearity | None = None
    if kind == "bvp":
        family = prob.get("family", "sublinear")
        if family not in _FAMILIES:
            raise ConfigError(f"problem.family must be one of {_FAMILIES}, got {family!r}")
        try:
            if family == "sublinear":
                nl = bvp_mod.sublinear_affine(r1=d1_r1, theta=theta)
            elif family == "power":
                nl = bvp_mod.power_nonlinearity(amplitude=float(prob.get("amplitude", 10.0)), theta=theta)
                d1_r1 = float(prob.get("r1", 0.99))
            elif family == "linear":
                nl = bvp_mod.linear_nonlinearity(float(prob.get("lam", 5.0)))
            else:
                nl = bvp_mod.zero_nonlinearity()
        except ValueError as exc:
            raise ConfigError(f"bad problem parameters: {exc}") from exc
    _budget(kind, mode, space, hyp, n_seeds, solver_cfg.max_iter, nl is not None and nl.has_forms)

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
        else:
            operator = bvp_mod.bvp_operator(nl, space)
            comparison = bvp_mod.b_matrix(nl.a1, space, k)
    except ValueError as exc:
        raise ConfigError(f"bad problem parameters: {exc}") from exc

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
