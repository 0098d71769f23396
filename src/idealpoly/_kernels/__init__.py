"""Numerical kernels: Lobachevsky sums, planar Delaunay, corner angles and
configuration volumes, implemented in ``_pure``."""

from ._pure import (  # noqa: F401
    LOB_COEFFS,
    config_volume,
    delaunay_triangles,
    incircle_det,
    lobachevsky,
    lobachevsky_sum,
    orient2d,
    triangle_angles,
)

BACKEND = "pure"
