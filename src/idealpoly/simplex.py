"""Dense two-phase simplex: Dantzig pricing with a Bland fallback.

Problem sizes in this toolkit stay below a few hundred columns, so a dense
tableau with rank-1 pivots is the right trade: deterministic and simple.
The entering column has the most negative reduced cost (Dantzig), which
takes far fewer pivots than Bland's first improving column; a long run of
degenerate pivots switches to Bland's rule until the objective moves again
(Bland 1977, Math. Oper. Res. 2), so the method cannot cycle and is
guaranteed to terminate.  Not a general-purpose LP solver.
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


def _pivot(T, basis, row, col):
    T[row] /= T[row, col]
    f = T[:, col].copy()
    f[row] = 0.0
    T -= np.outer(f, T[row])  # rank-1: clears col in every other row
    basis[row] = col


def _simplex_iterate(T, basis, ncols):
    """Minimize the objective in the last tableau row over columns < ncols.

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
        reduced = T[-1, :ncols]
        if degenerate < _DEGENERATE_RUN:
            col = int(np.argmin(reduced))  # Dantzig: most negative, first on ties
            if not reduced[col] < -_TOL:
                return
        else:
            improving = np.flatnonzero(reduced < -_TOL)
            if improving.size == 0:
                return
            col = int(improving[0])  # Bland: first improving column
        rows = np.flatnonzero(T[:-1, col] > _PIVOT_TOL)
        ratios = T[rows, -1] / T[rows, col]
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
        _pivot(T, basis, row, col)
        degenerate = degenerate + 1 if best <= 1e-12 else 0
        pivots += 1
        if pivots > MAX_PIVOTS:
            raise NumericalFailure("simplex pivot cap exceeded")


class _Unbounded(Exception):
    pass


def solve(c, A_eq=None, b_eq=None, A_ub=None, b_ub=None, maximize=False):
    """Solve min (or max) c.x subject to A_eq x = b_eq, A_ub x <= b_ub, x >= 0.

    Returns an LPResult; when infeasible, ``phase1_objective`` carries the
    residual infeasibility (the positive phase-1 optimum).
    """
    c = np.asarray(c, dtype=float)
    n = c.size
    if A_eq is None:
        A_eq = np.zeros((0, n))
        b_eq = np.zeros(0)
    if A_ub is None:
        A_ub = np.zeros((0, n))
        b_ub = np.zeros(0)
    A_eq = np.asarray(A_eq, dtype=float).reshape(-1, n)
    A_ub = np.asarray(A_ub, dtype=float).reshape(-1, n)
    b_eq = np.asarray(b_eq, dtype=float).reshape(-1)
    b_ub = np.asarray(b_ub, dtype=float).reshape(-1)

    m_eq = A_eq.shape[0]
    m_ub = A_ub.shape[0]
    m = m_eq + m_ub

    # rows: [A_eq | 0] and [A_ub | I_slack]; flip rows to make rhs >= 0
    A = np.zeros((m, n + m_ub))
    rhs = np.zeros(m)
    A[:m_eq, :n] = A_eq
    rhs[:m_eq] = b_eq
    A[m_eq:, :n] = A_ub
    A[m_eq:, n:] = np.eye(m_ub)
    rhs[m_eq:] = b_ub
    flip = rhs < 0.0
    A[flip] *= -1.0
    rhs[flip] *= -1.0

    # artificial variables: every equality row, plus flipped inequality rows
    # (their slack entered with coefficient -1 and cannot start basic)
    art_rows = list(range(m_eq)) + [m_eq + i for i in range(m_ub) if flip[m_eq + i]]
    n_art = len(art_rows)
    ncols = n + m_ub
    T = np.zeros((m + 1, ncols + n_art + 1))
    T[:m, :ncols] = A
    T[:m, -1] = rhs
    basis = [-1] * m
    for k, r in enumerate(art_rows):
        T[r, ncols + k] = 1.0
        basis[r] = ncols + k
    for i in range(m_ub):
        r = m_eq + i
        if not flip[r]:
            basis[r] = n + i

    # phase 1: minimize the sum of artificials
    for k in range(n_art):
        T[-1, ncols + k] = 1.0
    for k in range(n_art):
        T[-1] -= T[art_rows[k]]
    try:
        _simplex_iterate(T, basis, ncols + n_art)
    except _Unbounded:  # cannot happen for the phase-1 objective
        raise NumericalFailure("phase-1 reported unbounded")
    phase1 = -T[-1, -1]
    if phase1 > _TOL:
        return LPResult("infeasible", phase1_objective=phase1)

    # drive leftover artificials out of the basis (or drop redundant rows)
    for r in range(m):
        if basis[r] >= ncols:
            piv = np.flatnonzero(np.abs(T[r, :ncols]) > _PIVOT_TOL)
            if piv.size:
                _pivot(T, basis, r, int(piv[0]))
            # else: redundant row; its artificial stays basic at value ~0

    # phase 2
    obj = np.zeros(T.shape[1])
    sign = -1.0 if maximize else 1.0
    obj[:n] = sign * c
    T[-1] = obj
    for r in range(m):
        if basis[r] < ncols and obj[basis[r]] != 0.0:
            T[-1] -= obj[basis[r]] * T[r]
    # phase 2 scans only the first ncols columns, so artificials never re-enter
    try:
        _simplex_iterate(T, basis, ncols)
    except _Unbounded:
        return LPResult("unbounded", phase1_objective=0.0)

    x = np.zeros(n)
    for r in range(m):
        if basis[r] < n:
            x[basis[r]] = T[r, -1]
    val = float(c @ x)
    return LPResult("optimal", x=x, objective=val, phase1_objective=0.0)
