"""The sine basis tabulated directly on the full quadrature grid.

The package tabulates the basis on the left half of the grid only and
reaches every node through the fold (space.profiles, space.moments).  The
tests check those products against this table, which is built from the
closed form e_k(t) = sqrt(2) sin(k pi t) / (k pi) at every node and shares
no code with the half table; the panel transform's bins are checked against
the cosines and sines of pi j t on every node (bin_table).
"""

import numpy as np

from fixpairs.space import SpaceConfig, grid

# spaces whose products are checked against the full table
FOLD_SPACES = [
    SpaceConfig(32, 8, 32),
    SpaceConfig(320, 8, 256),
    SpaceConfig(1280, 8, 1024),
    SpaceConfig(1, 3, 1),  # one mode
    # odd node counts: a middle node at t = 1/2, mirrored onto itself
    SpaceConfig(8, 3, 1),
    SpaceConfig(8, 3, 3),
    SpaceConfig(8, 3, 5),
    # an odd mode count: one more odd mode than even ones, and a middle node
    SpaceConfig(7, 3, 5),
]


def full_table(cfg):
    """E[i, k] = e_(k+1)(t_i) on every grid node, without the fold."""
    nodes = grid(cfg).nodes
    ks = np.arange(1, cfg.n_modes + 1)
    return np.sqrt(2.0) * np.sin(np.outer(nodes, ks) * np.pi) / (ks * np.pi)


def bin_table(cfg, count):
    """(cos, sin) of pi j t_i on every grid node for the bins j < count."""
    nodes = grid(cfg).nodes
    angles = np.pi * np.outer(nodes, np.arange(count))
    return np.cos(angles), np.sin(angles)


def fold(values):
    """Grid values (..., N) as (2, ..., half): the left half and the mirrors."""
    m = (values.shape[-1] + 1) // 2
    return np.stack([values[..., :m], values[..., ::-1][..., :m]])


def max_rel(got, ref):
    return float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))
