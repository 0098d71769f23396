"""idealpoly: ideal convex polyhedra in hyperbolic 3-space.

Realizability of sphere triangulations (linear feasibility), maximal-volume
angle structures, rational dihedral angle detection, and the statistics of
random configuration volumes.
"""

__version__ = "0.2.22"
