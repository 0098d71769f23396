"""Two-phase simplex in dictionary form: Dantzig pricing with a Bland fallback.

The tableau stores only the nonbasic columns and the right-hand side, as in
Chvatal's dictionary (Linear Programming, 1983, ch. 2-3): a basic column is a
unit vector that a pivot cannot change, and at the sizes of this toolkit
(a few hundred columns, about half of them basic) storing it would double
the dense rank-1 update.  ``ids`` holds the original column id of every
slot.  A pivot puts the leaving variable's column into the entering
variable's slot, with the values the full tableau computes there, and
updates only the rows whose entering-column entry is nonzero.

The entering column has the most negative reduced cost (Dantzig), which
takes far fewer pivots than Bland's first improving column; a long run of
degenerate pivots switches to Bland's rule until the objective moves again
(Bland 1977, Math. Oper. Res. 2), so the method cannot cycle and is
guaranteed to terminate.  Every column choice (Dantzig's first on ties,
Bland's first improving column, the column that drives an artificial out)
goes to the smallest original id, never to a storage slot, so the pivots
and the floating-point results are those of the full tableau.  Not a
general-purpose LP solver.
"""

import numpy as np

from .errors import NumericalFailure

_TOL = 1e-9
_PIVOT_TOL = 1e-10
MAX_PIVOTS = 10**6
# Consecutive degenerate pivots after which pricing falls back to Bland's rule.
_DEGENERATE_RUN = 50


class LPResult:
    def __init__(self, status, x=None, objective=None, phase1_objective=0.0):
        self.status = status  # "optimal" | "infeasible" | "unbounded"
        self.x = x
        self.objective = objective
        self.phase1_objective = phase1_objective


def _first_id(ids, slots):
    """The slot among ``slots`` whose column has the smallest original id."""
    return int(slots[ids[slots].argmin()])


def _pivot(D, ids, basis, row, slot):
    """Exchange the basic variable of ``row`` with the nonbasic one in ``slot``.

    The slot then holds the leaving variable's column: 1/a in the pivot row
    and 0 - f*(1/a) in every other row, where a is the pivot and f the
    entering column, as the full tableau computes them.
    """
    a = D[row, slot]
    f = D[:, slot].copy()
    f[row] = 0.0
    inv = 1.0 / a
    D[row] /= a
    rows = f.nonzero()[0]
    D[rows] -= f[rows, None] * D[row]  # rank-1 over the rows it changes
    f = 0.0 - f * inv
    f[row] = inv
    D[:, slot] = f
    basis[row], ids[slot] = int(ids[slot]), basis[row]


def _simplex_iterate(D, ids, basis):
    """Minimize the objective in the last dictionary row.

    Dantzig pricing enters the most negative reduced cost.  After
    _DEGENERATE_RUN consecutive degenerate pivots (minimum ratio <= 1e-12)
    Bland's first improving column enters instead, until the next
    nondegenerate pivot.  With the leaving row chosen by smallest basic index
    on ratio ties, that fallback is Bland's full rule, so a degenerate run
    cannot cycle, and each nondegenerate pivot strictly lowers the objective.
    """
    pivots = 0
    degenerate = 0
    while True:
        reduced = D[-1, :-1]
        if degenerate < _DEGENERATE_RUN:
            least = reduced.min(initial=np.inf)
            if not least < -_TOL:
                return
            slot = _first_id(ids, (reduced == least).nonzero()[0])  # Dantzig
        else:
            improving = (reduced < -_TOL).nonzero()[0]
            if improving.size == 0:
                return
            slot = _first_id(ids, improving)  # Bland: first improving column
        rows = (D[:-1, slot] > _PIVOT_TOL).nonzero()[0]
        ratios = D[rows, -1] / D[rows, slot]
        row = -1
        best = np.inf
        for r, ratio in zip(rows.tolist(), ratios.tolist()):
            if ratio < best - 1e-12 or (
                ratio < best + 1e-12 and (row < 0 or basis[r] < basis[row])
            ):
                best = ratio
                row = r
        if row < 0:
            raise _Unbounded()
        _pivot(D, ids, basis, row, slot)
        degenerate = degenerate + 1 if best <= 1e-12 else 0
        pivots += 1
        if pivots > MAX_PIVOTS:
            raise NumericalFailure("simplex pivot cap exceeded")


class _Unbounded(Exception):
    pass


def solve(c, A_eq, b_eq, A_ub, b_ub):
    """Solve max c.x subject to A_eq x = b_eq, A_ub x <= b_ub, x >= 0,
    for right-hand sides b_eq, b_ub >= 0.

    Returns an LPResult; when infeasible, ``phase1_objective`` carries the
    residual infeasibility (the positive phase-1 optimum).
    """
    c = np.asarray(c, dtype=float)
    n = c.size
    A_eq = np.asarray(A_eq, dtype=float).reshape(-1, n)
    A_ub = np.asarray(A_ub, dtype=float).reshape(-1, n)
    rhs = np.concatenate([b_eq, b_ub], axis=None)
    if np.any(rhs < 0.0):
        raise ValueError("negative right-hand side")

    m_eq = A_eq.shape[0]
    m_ub = A_ub.shape[0]
    m = m_eq + m_ub

    # rows [A_eq | 0] start on artificials (ids from ncols), rows [A_ub | I]
    # on their slacks; the dictionary stores the n structural columns
    ncols = n + m_ub
    basis = list(range(ncols, ncols + m_eq)) + list(range(n, ncols))
    ids = np.arange(n, dtype=np.int64)
    D = np.zeros((m + 1, n + 1))
    D[:m_eq, :n] = A_eq
    D[m_eq:m, :n] = A_ub
    D[:m, -1] = rhs

    # phase 1: minimize the sum of artificials
    for r in range(m_eq):
        D[-1] -= D[r]
    try:
        _simplex_iterate(D, ids, basis)
    except _Unbounded:  # cannot happen for the phase-1 objective
        raise NumericalFailure("phase-1 reported unbounded")
    phase1 = -D[-1, -1]
    if phase1 > _TOL:
        return LPResult("infeasible", phase1_objective=phase1)

    # drive leftover artificials out of the basis (or drop redundant rows)
    for r in range(m):
        if basis[r] >= ncols:
            piv = ((ids < ncols) & (np.abs(D[r, :-1]) > _PIVOT_TOL)).nonzero()[0]
            if piv.size:
                _pivot(D, ids, basis, r, _first_id(ids, piv))
            # else: redundant row; its artificial stays basic at value ~0

    # phase 2 drops the nonbasic artificials, so they never re-enter
    keep = (ids < ncols).nonzero()[0]
    D = D[:, np.append(keep, ids.size)]
    ids = ids[keep]
    obj = np.zeros(ncols)
    obj[:n] = -c  # the dictionary minimizes
    D[-1, :-1] = obj[ids]
    D[-1, -1] = 0.0
    for r in range(m):
        if basis[r] < ncols and obj[basis[r]] != 0.0:
            D[-1] -= obj[basis[r]] * D[r]
    try:
        _simplex_iterate(D, ids, basis)
    except _Unbounded:
        return LPResult("unbounded", phase1_objective=0.0)

    x = np.zeros(n)
    for r in range(m):
        if basis[r] < n:
            x[basis[r]] = D[r, -1]
    val = float(c @ x)
    return LPResult("optimal", x=x, objective=val, phase1_objective=0.0)
