"""References that the tests check the package against and the package
itself never runs.

green_kernel and green_profile are the Green-kernel side of the boundary
value problem, the reference of acceptance criterion c06 and of its
second-difference residual checks; l2_norm_sq is the L2 norm of a sine
series in coefficient arithmetic, read by the Poincare and (D3) tests;
avez_potential is the Avez line integral of an operator, the reference of
acceptance criterion c11 and of the closed-form potentials.
"""

import numpy as np

from fixpairs.operators import PotentialOperatorSpec
from fixpairs.space import H1Vector, gauss_rule


def green_kernel(t, s):
    """G(t, s) = t (1 - s) if t <= s else s (1 - t); symmetric, peak 1/4."""
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    # "not in" forms so that NaN is rejected as well
    if not (np.all((t >= 0.0) & (t <= 1.0)) and np.all((s >= 0.0) & (s <= 1.0))):
        raise ValueError("green_kernel arguments must lie in [0, 1]")
    out = np.where(t <= s, t * (1.0 - s), s * (1.0 - t))
    if out.ndim == 0:
        return float(out)
    return out


def green_profile(g, ts, order: int = 8, panels: int = 16):
    """Evaluate t -> int_0^1 G(t, s) g(s) ds at arbitrary points.

    The kernel is piecewise linear in s with a kink at s = t, so the
    integral is split there and each side integrated on panels that scale
    with the subinterval.  The quadrature error is then an analytic function
    of t, which the second-difference residual checks depend on.
    """
    x, w = gauss_rule(order, panels)
    ts_arr = np.atleast_1d(np.asarray(ts, dtype=float))
    left_nodes = np.outer(ts_arr, x)  # s = t*x
    right_nodes = ts_arr[:, None] + np.outer(1.0 - ts_arr, x)  # s = t + (1-t)*x
    il = np.asarray(g(left_nodes)) @ (w * x)
    ir = np.asarray(g(right_nodes)) @ (w * (1.0 - x))
    vals = (1.0 - ts_arr) * ts_arr**2 * il + ts_arr * (1.0 - ts_arr) ** 2 * ir
    if np.isscalar(ts) or np.asarray(ts).ndim == 0:
        return float(vals[0])
    return vals


def l2_norm_sq(u: H1Vector) -> float:
    """Squared L2 norm, sum_k u_k^2 / (k*pi)^2.

    Always bounded by inner(u, u) / pi^2 (Poincare, with lambda_1 = pi^2).
    """
    ks = np.arange(1, u.n_modes + 1)
    return float(np.sum((u.coeffs / (ks * np.pi)) ** 2))


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
