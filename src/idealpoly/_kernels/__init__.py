"""Numerical kernels of configuration sampling: planar Delaunay and corner
angles, implemented in ``_pure``.  ``lobachevsky_sum`` is ``specfun``'s,
re-exported here with ``BACKEND`` for the benchmark, which reads both."""

from ..specfun import lobachevsky_sum  # noqa: F401
from ._pure import (  # noqa: F401
    delaunay_triangles,
    incircle_det,
    orient2d,
    triangle_angles,
)

BACKEND = "pure"
