"""The sine basis tabulated directly on the full quadrature grid.

The package computes grid values through space.profiles and space.moments,
by its own table (space.Grid.table) or by the panel transform.  The tests
check those products against this table, which is built from the closed
form e_k(t) = sqrt(2) sin(k pi t) / (k pi) at every node and shares no code
with the package's; the panel transform's bins are checked against the
cosines and sines of pi j t on every node (bin_table), and space.evaluate
against its own sum over all the points at once (evaluate_unchunked).
"""

import numpy as np

from fixpairs.space import SpaceConfig, gauss_rule

# spaces whose products are checked against the full table
PRODUCT_SPACES = [
    SpaceConfig(32, 8, 32),
    SpaceConfig(320, 8, 256),
    SpaceConfig(1280, 8, 1024),
    SpaceConfig(1, 3, 1),  # one mode
    # odd node counts: a middle node at t = 1/2
    SpaceConfig(8, 3, 1),
    SpaceConfig(8, 3, 3),
    SpaceConfig(8, 3, 5),
    # an odd mode count, and a middle node
    SpaceConfig(7, 3, 5),
]


def full_table(cfg):
    """E[i, k] = e_(k+1)(t_i) on every grid node."""
    nodes, _ = gauss_rule(cfg.quad_nodes, cfg.n_panels)
    ks = np.arange(1, cfg.n_modes + 1)
    return np.sqrt(2.0) * np.sin(np.outer(nodes, ks) * np.pi) / (ks * np.pi)


def bin_table(cfg, count):
    """(cos, sin) of pi j t_i on every grid node for the bins j < count."""
    nodes, _ = gauss_rule(cfg.quad_nodes, cfg.n_panels)
    angles = np.pi * np.outer(nodes, np.arange(count))
    return np.cos(angles), np.sin(angles)


def evaluate_unchunked(coeffs, t):
    """sum_k c_k e_k(t) as space.evaluate formed it before it took its
    points in chunks: one points x modes array of terms, summed by einsum."""
    ks = np.arange(1, coeffs.size + 1)
    terms = np.multiply.outer(np.asarray(t, dtype=float), ks.astype(float))
    terms *= np.pi
    np.sin(terms, out=terms)
    return np.einsum("...k,k", terms, np.sqrt(2.0) / (ks * np.pi) * coeffs)


def max_rel(got, ref):
    return float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))
