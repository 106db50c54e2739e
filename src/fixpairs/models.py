"""Reference operators with fixed points known in closed form.

Used to exercise the solver and the hypothesis checkers against analytic
ground truth.
"""

from __future__ import annotations

import numpy as np

from .operators import LinearOperatorSpec, PotentialOperatorSpec

__all__ = ["clipped_cubic_operator", "linear_operator", "radial_power_operator"]


def radial_power_operator(
    amplitude: float = 2.0, theta: float = 0.5, n_modes: int = 1
) -> PotentialOperatorSpec:
    """A(u) = amplitude * ||u||^(theta-1) * u, the gradient of
    amplitude * ||u||^(theta+1) / (theta+1).

    Odd and sublinear; its nontrivial fixed points form the sphere of radius
    amplitude^(1/(1-theta)).  With the defaults and one mode: u = +/- 4 and
    J(+/-4) = -8/3.
    """
    if amplitude <= 0.0:
        raise ValueError("amplitude must be positive")
    if not 0.0 <= theta < 1.0:
        raise ValueError("theta must lie in [0, 1)")

    def apply_batch(stacked: np.ndarray) -> np.ndarray:
        norms = np.linalg.norm(stacked, axis=-1, keepdims=True)
        with np.errstate(divide="ignore", invalid="ignore"):
            factors = np.where(norms > 0.0, amplitude * norms ** (theta - 1.0), 0.0)
        return factors * stacked

    def potential(c: np.ndarray) -> float:
        r = float(np.linalg.norm(c))
        return amplitude * r ** (theta + 1.0) / (theta + 1.0)

    return PotentialOperatorSpec(
        n_modes=n_modes,
        apply_coeffs=lambda c: apply_batch(c[None, :])[0],
        odd=True,
        theta=theta,
        potential_coeffs=potential,
        apply_batch=apply_batch,
        label=f"radial-power(a={amplitude}, theta={theta})",
    )


def clipped_cubic_operator(
    n_modes: int = 2, slope: float = 2.0, clip: float = 2.0
) -> PotentialOperatorSpec:
    """Componentwise A(u)_i = slope*u_i - u_i^3 for |u_i| <= clip, held
    constant beyond, so the operator stays bounded (theta = 0).

    With slope 2 the componentwise fixed values are {0, -1, +1}: four
    nontrivial sign pairs in two modes, all with negative energy.
    """
    if clip <= 0.0 or slope <= 0.0:
        raise ValueError("slope and clip must be positive")
    edge = slope * clip - clip**3

    # when no entry is clipped, clipping changes nothing and np.where would
    # pick the core value everywhere, so the beyond-clip branch is skipped.
    # The cube is two products: numpy's power of a mixed-sign array runs
    # libm pow per element, about 80x slower, and its rounding depends on
    # the libm
    def apply_batch(stacked: np.ndarray) -> np.ndarray:
        clipped = np.abs(stacked) > clip
        if not clipped.any():
            return slope * stacked - stacked * stacked * stacked
        x = np.clip(stacked, -clip, clip)
        return np.where(clipped, np.sign(stacked) * edge, slope * x - x * x * x)

    def potential(c: np.ndarray) -> float:
        clipped = np.abs(c) > clip
        if not clipped.any():
            return float(np.sum(slope * c**2 / 2.0 - c**4 / 4.0))
        x = np.clip(c, -clip, clip)
        core = slope * x**2 / 2.0 - x**4 / 4.0
        edge_val = slope * clip**2 / 2.0 - clip**4 / 4.0
        beyond = edge_val + edge * (np.abs(c) - clip)
        return float(np.sum(np.where(clipped, beyond, core)))

    return PotentialOperatorSpec(
        n_modes=n_modes,
        apply_coeffs=lambda c: apply_batch(c[None, :])[0],
        odd=True,
        theta=0.0,
        potential_coeffs=potential,
        apply_batch=apply_batch,
        label=f"clipped-cubic(slope={slope}, clip={clip})",
    )


def linear_operator(matrix: np.ndarray, label: str = "linear") -> PotentialOperatorSpec:
    """A(u) = M u for symmetric M; potential is the half quadratic form."""
    m = LinearOperatorSpec(matrix).matrix

    return PotentialOperatorSpec(
        n_modes=m.shape[0],
        apply_coeffs=lambda c: m @ c,
        odd=True,
        theta=0.0,
        potential_coeffs=lambda c: 0.5 * float(c @ (m @ c)),
        apply_batch=lambda stacked: stacked @ m.T,
        label=label,
    )
