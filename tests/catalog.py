"""Every combinatorial type with n vertices, enumerated once per test run."""

import functools

from idealpoly import corpus


@functools.cache
def all_types(n):
    return tuple(corpus.all_types(n))
