"""Kernel checks that no other module's tests reach: the reported backend,
Delaunay above the old 128-point cap, and Milnor's identity for the
Lobachevsky series."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idealpoly import _kernels, geom


def test_backend_reported():
    assert _kernels.BACKEND == "pure"


def _canonical(tris, xs, ys):
    # counterclockwise, rotated to the smallest vertex, sorted
    out = []
    for a, b, c in tris:
        if _kernels.orient2d(xs[a], ys[a], xs[b], ys[b], xs[c], ys[c]) < 0.0:
            b, c = c, b
        k = (a, b, c).index(min(a, b, c))
        out.append(((a, b, c) * 2)[k : k + 3])
    return sorted(out)


@pytest.mark.parametrize("m", [129, 200])
def test_delaunay_above_128_points_matches_scipy(m):
    spatial = pytest.importorskip("scipy.spatial")
    rng = np.random.default_rng(1000 + m)
    pts = rng.uniform(-3.0, 3.0, (m, 2))
    xs = [float(v) for v in pts[:, 0]]
    ys = [float(v) for v in pts[:, 1]]
    tris, _ = _kernels.delaunay_triangles(xs, ys)
    ref = [tuple(int(i) for i in s) for s in spatial.Delaunay(pts).simplices]
    assert tris == _canonical(ref, xs, ys)
    config = geom.make_configuration([complex(x, y) for x, y in zip(xs, ys)])
    volume = geom.config_volume(config)
    assert math.isfinite(volume) and volume > 0.0


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 6), theta=st.floats(-4.0, 4.0))
def test_milnor_identity(n, theta):
    # Milnor 1982: L(n theta) = n * sum_{k<n} L(theta + k pi / n)
    lob = _kernels.lobachevsky
    rhs = n * sum(lob(theta + k * math.pi / n) for k in range(n))
    assert abs(lob(n * theta) - rhs) <= 1e-12
