"""Shared test inputs: every combinatorial type with n vertices, enumerated
once per test run, and random flip walks."""

import functools

import numpy as np

from idealpoly import corpus, triang


@functools.cache
def all_types(n):
    return tuple(corpus.all_types(n))


def flip_walk(n, seed):
    """A stacked triangulation on n vertices after 3n random flip attempts."""
    rng = np.random.default_rng(seed)
    t = triang.tetrahedron()
    while t.n < n:
        t = triang.stack_on_face(t, int(rng.integers(len(t.faces))))
    for _ in range(3 * n):
        edges = t.edges()
        t = triang.flip_edge(t, edges[int(rng.integers(len(edges)))]) or t
    return t
