"""Shared helpers for the test suite."""

import numpy as np

from mplangc.graphs import random_union


def batch_instances(p, box, trials, seed, max_nodes=8):
    """One union graph + feature map covering `trials` random instances."""
    batch = random_union(p, box, trials, seed, max_nodes)
    return batch.graph, batch.features


def assert_close(actual, expected, rtol=1e-9, floor=1e-12, context=""):
    """Per-element |actual - expected| <= max(floor, rtol*|expected|)."""
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    dev = np.abs(actual - expected)
    tol = np.maximum(floor, rtol * np.abs(expected))
    if not (dev <= tol).all():
        worst = float((dev - tol).max())
        raise AssertionError(
            f"deviation exceeds tolerance by {worst:g} "
            f"(max dev {dev.max():g}) {context}"
        )
