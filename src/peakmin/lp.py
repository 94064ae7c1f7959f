"""Self-contained dense LP solver and a linear-fractional solver built on it.

Bounded-variable primal simplex on a dense tableau, for the one form of LP
this package builds: rows a x <= b and a box lb <= x <= ub (lb finite, ub
inf on a column with no upper bound) with b - a lb >= 0, so the all-slack
basis with every column at its lower bound is feasible and every cold
solve starts there. LinearProgram checks this, and that no box is empty,
on whole arrays and raises ValueError otherwise. Nothing is sparse: the
programs have at most a few hundred variables.

Upper bounds stay out of the tableau (Chvatal 1983 ch. 8): a nonbasic
column sits at its lower or its upper bound, the ratio test stops a basic
variable at either of its bounds, and an entering column that reaches its
own upper bound first flips there, with no pivot. Pricing is steepest edge
(Goldfarb & Reid 1977; Forrest & Goldfarb 1992), norms read from the
tableau; a degeneracy streak switches to Bland's rule, which guarantees
termination. A pivot updates only the slice between the first and last
nonzero of its column and row: outside it no entry's value would change.

Built once, kept with its tableau: a LinearProgram builds its standard form
(rows equilibrated, one slack per row, right-hand side shifted by lb) when
it is made, and keeps it with each solve's final tableau B^-1 [A | I] and
the set U of columns at their upper bound. Only the objective, its constant
and the finite ub move after that (ub through set_upper); none of them
moves B^-1 A.

One read: basic values B^-1 (b - A_U u_U) and duals, for every answer,
re-price and vertex read, come from the kept tableau's B^-1 (a view of its
slack columns), refined once against the standard form's columns (Higham
2002 ch. 12). A refinement residual above 1e-9 (relative) means drift, and
one dense solve at the basis, the only one in this module, replaces the
tableau. A later solve re-prices the kept vertex (Chvatal 1983 ch. 10):
optimal, it answers with no pivot; only primal feasible, the simplex starts
from it; otherwise from the slack basis. carry_basis maps a kept vertex
onto the next, larger scenario program without a solve, and starts the
appended block at the vertex its caller names (cr starts it at the block's
water-fill optimum) by eliminations on the appended rows alone.

One gate: an answer whose basis is singular, or that violates a row
(scaled by max(1, |b|)) or a bound by more than 1e-6, or is NaN, raises
NumericalFailure; the check is one product on the LP's own a, b and ub.

solve_lfp runs Dinkelbach's method (Dinkelbach 1967), each step from the
tableau the one before kept. parametric_vertex reads a kept vertex of
the anytime certificate's LP family in pi: its point, affine in 1/pi, and
from its duals, affine in pi and clipped at 0, a weak-duality bound on
the optimum that holds at every pi.

Tolerances: pivot 1e-9, feasibility 1e-7, drift 1e-9, residual 1e-6,
ratio 1e-12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DenominatorNotPositive, NumericalFailure

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-7
DRIFT_TOL = 1e-9  # largest relative refinement residual a kept tableau may show
RESIDUAL_TOL = 1e-6  # largest row or bound violation an answer may carry
RATIO_TOL = 1e-12  # smallest rise a Dinkelbach step must make
STALL_STEPS = 50  # steps in a row that leave the objective in place before Bland's rule

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"


@dataclass(eq=False)
class LinearProgram:
    """Dense LP: maximize objective . x (+ objective_constant) over the rows
    a x <= b and the box lb <= x <= ub (ub inf where a column has none).

    Checked on whole arrays, each failure a ValueError: the shapes match
    (a m x n, b m, objective, lb and ub n), nothing is NaN, only ub may be
    +inf, no box is empty and b - a lb >= 0. The standard form is then built
    and kept, so change only the objective, objective_constant and, through
    set_upper, ub (a copy)."""

    objective: np.ndarray
    a: np.ndarray
    b: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    objective_constant: float = 0.0
    # the standard form, built with the LP: rows equilibrated (which keeps pivot
    # tolerances meaningful across magnitudes), right-hand side shifted by lb;
    # then the last solve's (or a carry's) tableau, whose rows B^-1 [A | I]
    # stay exact as the objective or ub moves (a warm start rewrites its rhs)
    _rows: np.ndarray = field(init=False, repr=False)
    _rhs: np.ndarray = field(init=False, repr=False)
    _tab: _Tableau | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.objective, self.a, self.b, self.lb = (
            np.asarray(v, dtype=float) for v in (self.objective, self.a, self.b, self.lb))
        self.ub = np.array(self.ub, dtype=float)
        n, m = self.objective.size, self.b.size
        shapes = [v.shape for v in (self.objective, self.a, self.b, self.lb, self.ub)]
        if shapes != [(n,), (m, n), (m,), (n,), (n,)]:
            raise ValueError(f"shape mismatch: objective, a, b, lb, ub are {shapes}")
        if not np.isfinite(self.objective).all() or not math.isfinite(self.objective_constant):
            raise ValueError("non-finite objective")
        if not (np.isfinite(self.a).all() and np.isfinite(self.b).all()):
            raise ValueError("non-finite constraint data")
        # written so that a NaN fails too
        if not (np.isfinite(self.lb).all() and (self.ub > -math.inf).all()):
            raise ValueError("non-finite bound")
        if (self.ub < self.lb).any():
            raise ValueError(f"empty box: ub < lb in column {int(np.argmax(self.ub < self.lb))}")
        shifted = self.b - self.a @ self.lb
        if (shifted < 0.0).any():
            i = int(np.argmax(shifted < 0.0))
            raise ValueError(f"row {i}: b - a.lb = {shifted[i]:.6g} < 0 at the slack basis")
        scale = np.maximum(np.abs(self.a).max(axis=1, initial=0.0), 1e-12)
        self._rows, self._rhs = self.a / scale[:, None], shifted / scale

    @property
    def num_vars(self) -> int:
        return len(self.objective)

    def set_upper(self, cols, hi: float) -> None:
        """Move the upper bound of every column in cols to hi; the next solve
        re-prices the kept tableau against it. A non-finite hi, a hi below a
        column's lower bound, or a column with no upper bound raises
        ValueError before anything moves."""
        if not math.isfinite(hi):
            raise ValueError(f"non-finite upper bound {hi}")
        if (hi < self.lb[cols]).any():
            raise ValueError(f"empty box: upper bound {hi} below a lower bound")
        if not (self.ub[cols] < math.inf).all():
            raise ValueError("no upper bound to move on a column")
        self.ub[cols] = hi


@dataclass(eq=False)
class LpResult:
    status: str
    value: float
    x: np.ndarray | None
    residual: float = 0.0
    # the final vertex in the LP's standard form, as the LP keeps it: the
    # basis, row by row, and the columns at their upper bound, ascending
    basis: np.ndarray | None = None
    at_upper: np.ndarray | None = None


@dataclass(eq=False)
class LfpProblem:
    """Linear-fractional program: maximize (n.x + n0)/(d.x + d0) over the
    rows and box of lp (not to change), whose objective solve_lfp writes.

    The denominator must be positive on the feasible region, the caller's
    precondition; solve_lfp raises DenominatorNotPositive at a point where it
    is at most FEAS_TOL. A numerator or denominator of another length than
    lp's columns, or a non-finite one or constant, raises ValueError."""

    numerator: np.ndarray
    numerator_constant: float
    denominator: np.ndarray
    denominator_constant: float
    lp: LinearProgram

    def __post_init__(self):
        self.numerator = np.asarray(self.numerator, dtype=float)
        self.denominator = np.asarray(self.denominator, dtype=float)
        if not self.numerator.shape == self.denominator.shape == (self.lp.num_vars,):
            raise ValueError("shape mismatch: numerator, denominator and lp's columns")
        if not (np.isfinite(self.numerator).all() and np.isfinite(self.denominator).all()
                and math.isfinite(self.numerator_constant)
                and math.isfinite(self.denominator_constant)):
            raise ValueError("non-finite numerator or denominator")


class _Tableau:
    """Simplex working state at a vertex: the rows B^-1 [A | I] beside the
    basic values, over a reduced-cost row, in t ((m+1) x (n+1), owned, not
    copied), and each column's side: -1 for a nonbasic column at its upper
    bound, +1 for any other."""

    def __init__(self, t: np.ndarray, basis: np.ndarray, side: np.ndarray | None = None):
        self.t = t
        self.m, self.n = t.shape[0] - 1, t.shape[1] - 1
        self.basis = np.array(basis)
        self.side = np.ones(self.n) if side is None else np.array(side)

    def set_objective(self, coeffs: np.ndarray) -> None:
        """Install reduced costs for maximize(coeffs . x) given the current basis."""
        t, m, n = self.t, self.m, self.n
        t[m, :n] = coeffs
        t[m, n] = 0.0
        cb = coeffs[self.basis]
        for p in np.nonzero(cb)[0]:
            t[m] -= cb[p] * t[p]

    def run(self, upper: np.ndarray, max_iter: int) -> str:
        """Pivot until optimal/unbounded, column j within [0, upper[j]].

        Steepest-edge pricing: of the columns whose reduced cost exceeds
        PIVOT_TOL in the direction they may move, the one with the largest
        c_j^2 / (1 + |B^-1 a_j|^2) enters, the lowest index on a tie; once
        STALL_STEPS steps in a row leave the objective in place, Bland's rule
        (lowest index) until one moves it. The ratio test stops each basic
        variable at the bound it moves toward, then takes the largest pivot
        among the tied rows and the lowest basic index (Bland's: that index
        alone). If the entering column's own width is no larger, it flips."""
        t, m, n = self.t, self.m, self.n
        if n == 0:  # no column may enter: the start basis is final
            return OPTIMAL
        obj, values, side, basis = t[m], t[:m, n], self.side, self.basis
        cap, widths = upper[basis], upper.tolist()
        capped = cap < math.inf
        stall = 0
        bland = False
        for _ in range(max_iter):
            gain = obj[:n] * side
            pos = (gain > PIVOT_TOL).nonzero()[0]
            if len(pos) == 0:
                return OPTIMAL
            if bland or len(pos) == 1:
                q = int(pos[0])
            else:
                sub = t[:m, pos]
                q = int(pos[(gain[pos] ** 2 / (1.0 + (sub * sub).sum(axis=0))).argmax()])
            # each basic value falls by col per unit the entering column moves:
            # to 0 where col > 0, and to its upper bound, if any, where col < 0
            up = side[q] > 0.0
            col = t[:m, q] if up else -t[:m, q]
            rows = (col > PIVOT_TOL).nonzero()[0]
            ratios = values[rows] / col[rows]
            rising = ((col < -PIVOT_TOL) & capped).nonzero()[0]
            if len(rising):
                rows = np.concatenate([rows, rising])
                ratios = np.concatenate([ratios, (cap[rising] - values[rising]) / -col[rising]])
            theta, width = (ratios.min() if len(rows) else math.inf), widths[q]
            before = obj[n]
            if width <= theta:
                if width == math.inf:
                    return UNBOUNDED
                self._flip(q, width)
            else:
                cand = rows[ratios <= theta + 1e-12]
                if len(cand) > 1 and not bland:
                    # stability first: largest pivot among ties, then smallest index
                    size = np.abs(col[cand])
                    cand = cand[size >= size.max() - 1e-12]
                # then the smallest basis index, which alone is Bland's rule
                p = int(cand[basis[cand].argmin()])
                leaving, step = basis[p], float(col[p])
                # so that the pivot moves every other basic value by -theta col
                t[p, n] = theta * step
                self._pivot(p, q)  # it rewrites column q, which col views
                t[p, n] = theta if up else width - theta
                side[leaving], side[q] = (1.0 if step > 0.0 else -1.0), 1.0
                cap[p], capped[p] = width, width < math.inf
            # obj[n] falls by each step's gain in the objective
            if before - obj[n] <= 1e-12:
                stall += 1
                if stall >= STALL_STEPS:
                    bland = True
            else:
                stall = 0
                bland = False
        raise NumericalFailure(f"simplex iteration cap {max_iter} exceeded")

    def _pivot(self, p: int, q: int) -> None:
        """Pivot on (p, q): row p over its entry in column q, then the rank-1
        update t -= col_q row_p confined to the rows between the first and
        last nonzero of column q off row p and the columns between those of
        row p, on views of t; outside them one factor is zero, so the entry
        keeps its value (a zero at most its sign)."""
        t = self.t
        row = t[p]
        row /= row[q]
        col = t[:, q].copy()
        col[p] = 0.0
        rows, cols = col.nonzero()[0], row.nonzero()[0]
        if len(rows):
            r, c = slice(rows[0], rows[-1] + 1), slice(cols[0], cols[-1] + 1)
            t[r, c] -= np.einsum("i,j->ij", col[r], row[c])
        t[:, q] = 0.0
        t[p, q] = 1.0
        self.basis[p] = q

    def _flip(self, q: int, width: float) -> None:
        """Move nonbasic column q across its box to its other bound; the
        basic values and the objective move with it, the basis does not."""
        self.t[:, self.n] -= (self.side[q] * width) * self.t[:, q]
        self.side[q] = -self.side[q]


def _pivot_at_once(t: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> None:
    """Pivot on every (rows[i], cols[i]) at once, t[rows][:, cols] being
    diagonal: the pivots commute, each leaves the others' rows and columns
    as they were, so the rows become t[rows] over their pivots and every
    row is reduced against them in one product."""
    pivot_rows = t[rows] / t[rows, cols][:, None]
    t -= t[:, cols] @ pivot_rows
    t[rows] = pivot_rows


def _upper(lp: LinearProgram) -> np.ndarray:
    """Each standard-form column's upper bound: ub - lb, then inf for each
    slack."""
    return np.concatenate([lp.ub - lp.lb, np.full(len(lp.b), math.inf)])


def _net_rhs(lp: LinearProgram, side: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """b - A_U u_U, U the columns at their upper bound (never a slack)."""
    n = lp.num_vars
    return lp._rhs - lp._rows @ np.where(side[:n] < 0.0, upper[:n], 0.0)


def _times_form(y: np.ndarray, a: np.ndarray) -> np.ndarray:
    """y [a | I], for one row y or a stack of them."""
    return np.concatenate([y @ a, y], axis=-1)


def _framed(a: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The tableau [a | I | rhs] over a zero cost row: the slack basis."""
    m, n = a.shape
    t = np.zeros((m + 1, n + m + 1))
    t[:m, :n] = a
    t[np.arange(m), n + np.arange(m)] = 1.0
    t[:m, -1] = rhs
    return t


def _factorized(lp: LinearProgram, tab: _Tableau) -> _Tableau | None:
    """tab's vertex with the rows B^-1 [A | I] from one dense solve on lp's
    standard-form columns, its right-hand column left to the caller; None
    when B is singular."""
    t = _framed(lp._rows, 0.0)
    try:
        t[:-1] = np.linalg.solve(t[:-1, tab.basis], t[:-1])
    except np.linalg.LinAlgError:
        return None
    t[:-1, tab.basis] = np.eye(tab.m)
    return _Tableau(t, tab.basis, tab.side)


def _read_basis(lp: LinearProgram, rhs: np.ndarray, cb: np.ndarray):
    """Basic values B^-1 rhs and duals cb B^-1 at lp's kept tableau's basis
    (rhs one right-hand side a column, cb one cost vector a row), from its
    B^-1, a view of its slack columns, each refined once against the
    standard form's columns without gathering B (B x_B = a x_S + x_I). A
    relative residual above DRIFT_TOL, or a NaN, means drift: lp keeps
    _factorized's tableau at that vertex instead, and the values are read
    from it. Returns (values, duals), or None, with no tableau kept, when B
    is singular."""
    tab = lp._tab
    m, n = lp._rows.shape
    for fresh in (False, True):
        inv = tab.t[:m, n : n + m]
        x_basic, duals = inv @ rhs, cb @ inv
        point = np.zeros((n + m,) + x_basic.shape[1:])
        point[tab.basis] = x_basic
        gap = rhs - lp._rows @ point[:n] - point[n:]
        dual_gap = cb - _times_form(duals, lp._rows)[..., tab.basis]
        # relative residuals, compared so that a NaN counts as drift
        if fresh or (
                np.abs(gap).max(initial=0.0) <= DRIFT_TOL * max(1.0, np.abs(rhs).max(initial=0.0))
                and np.abs(dual_gap).max(initial=0.0)
                <= DRIFT_TOL * max(1.0, np.abs(cb).max(initial=0.0))):
            return x_basic + inv @ gap, duals + dual_gap @ inv
        tab = lp._tab = _factorized(lp, tab)
        if tab is None:
            return None


def _priced(lp: LinearProgram, obj: np.ndarray, upper: np.ndarray):
    """The kept vertex re-priced: its basic values, and whether it is
    optimal for max obj.x (no column improves by more than PIVOT_TOL from
    the bound it sits at). None when its basis is singular or a basic value
    lies off its bounds by more than FEAS_TOL."""
    tab = lp._tab
    basis, side = tab.basis, tab.side
    read = _read_basis(lp, _net_rhs(lp, side, upper), obj[basis])
    if read is None:
        return None
    x_basic, duals = read
    # comparisons are written so that a NaN rejects the basis
    if not ((x_basic >= -FEAS_TOL) & (x_basic <= upper[basis] + FEAS_TOL)).all():
        return None
    reduced = (obj - _times_form(duals, lp._rows)) * side
    reduced[basis] = 0.0
    return x_basic, bool((reduced <= PIVOT_TOL).all())


def _optimal_result(lp: LinearProgram, x_basic: np.ndarray) -> LpResult:
    """The answer at the kept vertex, given its basic values, certified
    against lp's own rows and box: a worst row violation (scaled by max(1,
    |b|)) or bound violation above RESIDUAL_TOL, or NaN, raises."""
    tab, n = lp._tab, lp.num_vars
    shift = np.zeros(tab.n)
    shift[tab.basis] = x_basic
    x = np.where(tab.side[:n] < 0.0, lp.ub, shift[:n] + lp.lb)
    value = float(lp.objective @ x) + lp.objective_constant

    by_row = (lp.a @ x - lp.b) / np.maximum(1.0, np.abs(lp.b))
    # one max over everything, so that a NaN anywhere propagates and raises
    residual = float(np.concatenate([by_row, lp.lb - x, x - lp.ub]).max(initial=0.0))
    if not residual <= RESIDUAL_TOL:
        raise NumericalFailure(f"LP answer residual {residual:.3g} above {RESIDUAL_TOL:g}")
    return LpResult(OPTIMAL, value, x, residual, tab.basis.copy(), np.flatnonzero(tab.side < 0.0))


def solve_lp(lp: LinearProgram) -> LpResult:
    """Bounded-variable primal simplex on lp's standard form, from the
    vertex lp keeps as the module docstring says. Status is optimal or
    unbounded (every LinearProgram is feasible); an answer whose residual
    exceeds RESIDUAL_TOL raises NumericalFailure."""
    m, n = lp._rows.shape
    upper = _upper(lp)
    full_obj = np.zeros(n + m)
    full_obj[:n] = lp.objective

    priced = None if lp._tab is None else _priced(lp, full_obj, upper)
    if priced is None:
        lp._tab = _Tableau(_framed(lp._rows, lp._rhs), n + np.arange(m))
    else:
        x_basic, optimal = priced
        if optimal:
            return _optimal_result(lp, x_basic)
        lp._tab.t[:m, n + m] = np.clip(x_basic, 0.0, upper[lp._tab.basis])
    tab = lp._tab
    tab.set_objective(full_obj)
    if tab.run(upper, 5000 + 60 * (n + 2 * m)) == UNBOUNDED:
        return LpResult(UNBOUNDED, np.nan, None)
    read = _read_basis(lp, _net_rhs(lp, tab.side, upper), full_obj[tab.basis])
    if read is None:
        raise NumericalFailure("final simplex basis is singular")
    return _optimal_result(lp, read[0])


def carry_basis(old: LinearProgram, new: LinearProgram, at: int, start=None) -> None:
    """Seed new with old's kept tableau, mapped onto new's standard form,
    and, given start, the appended block started at a vertex of its own.

    new is old (scenario programs; an LfpProblem's is its lp) with one
    demand column inserted at column at, one scenario block appended after
    the last column and its rows after the last row, old's rows unchanged
    and touching no new column: optimal_cr's prefix t to t+1 (at = t), the
    certificate's cutoff k-1 to k after t observed slots (at = k-1-t). Old
    columns and slacks move to their new index, each keeping its side; new
    columns sit at their lower bounds and each new row's slack is basic. At
    the old vertex every new row holds (its right-hand side is >= 0 after
    the shift, and its one old column, if any, is an x_j at most d_ub - x_lb
    against U - x_lb), so the carried vertex is primal feasible when new
    keeps old's bounds. The tableau is derived without a solve: old rows
    move through the column map, and each appended row R becomes
    R - R_B T_old. Nothing is seeded when old keeps no tableau.

    start, given, is called with the carried vertex's point (new's columns,
    at new's bounds, read through old's B^-1) and returns (batches,
    at_upper): batches of pivots, each (rows, columns) of appended rows and
    new columns whose pivot submatrix is diagonal, so its pivots commute
    and are made at once (_pivot_at_once), the batches in order; and new
    columns to put at their upper bounds. Old rows are zero in new columns,
    so each pivot touches the appended rows only. A pivot element at or
    below PIVOT_TOL, or a batch whose pivots do not commute, leaves the
    carried vertex as it was mapped. These pivots seed a vertex; they are
    not simplex steps.
    """
    kept, rows = old._tab, new._rows
    if kept is None:
        return
    (m, n), m_old = rows.shape, kept.m
    col = np.arange(old.num_vars)
    col[at:] += 1  # the new demand column
    moved = np.concatenate([col, n + np.arange(m_old)])  # every old column's new index
    carried = moved[kept.basis]
    t = np.zeros((m + 1, n + m + 1))
    # moved, as three runs of columns: those before at, the rest, the slacks
    n_old = old.num_vars
    t[:m_old, :at], t[:m_old, at + 1 : n_old + 1] = kept.t[:m_old, :at], kept.t[:m_old, at:n_old]
    t[:m_old, n : n + m_old] = kept.t[:m_old, n_old : n_old + m_old]
    t[m_old:m, :n] = rows[m_old:]
    t[np.arange(m_old, m), n + np.arange(m_old, m)] = 1.0
    # an appended row meets few old columns (demand columns), so R_B is thin
    struct = np.flatnonzero(carried < n)
    touch = struct[rows[m_old:, carried[struct]].any(axis=0)]
    t[m_old:m, : n + m] -= rows[m_old:, carried[touch]] @ t[touch, : n + m]
    side = np.ones(n + m)
    side[moved] = kept.side
    tab = new._tab = _Tableau(t, np.concatenate([carried, n + np.arange(m_old, m)]), side)
    if start is None:
        return
    upper = _upper(new)
    shifted = np.where(side[:n] < 0.0, upper[:n], 0.0)
    values = t[:m_old, n : n + m_old] @ _net_rhs(new, side, upper)[:m_old]
    shifted[carried[struct]] = values[struct]
    batches, at_upper = start(shifted + new.lb)
    for rows, cols in batches:
        rows, cols = np.asarray(rows, dtype=int), np.asarray(cols, dtype=int)
        pivots = t[np.ix_(rows, cols)]
        if not ((np.abs(pivots.diagonal()) > PIVOT_TOL).all()
                and np.count_nonzero(pivots) == len(rows)):
            carry_basis(old, new, at)  # the carried vertex as it was mapped
            return
        # the appended rows (and the cost row, zero): no old row meets cols
        _pivot_at_once(t[m_old:], rows - m_old, cols)
        tab.basis[rows] = cols
    tab.side[at_upper] = -1.0


def parametric_vertex(lp: LinearProgram, cols, top: float, floor: float, implied: float):
    """lp's kept vertex as functions of a parameter pi, read by _read_basis
    with no solve unless the tableau drifted: its point, and an upper bound
    on lp's optimum at every pi.

    lp is a member of the certificate's family: maximize c.x + pi (sum_{j in
    cols} x_j - top |cols|), c being lp.objective off cols, each column of
    cols in [0, top - floor/pi]. With s = 1/pi a column of cols at its upper
    bound sits at top - s floor and moves the basic values B^-1 (b - A_U
    u_U) through its column, so the point is p + s q; the basic costs are
    c_B + pi e_B, so the duals are y = y0 + pi y1 (Chvatal 1983 ch. 10).
    With y clipped at 0, weak duality bounds the optimum at every pi,
    whether or not the vertex is optimal there, by y.rhs + sum_j max(r_j,
    0) width_j + c.lb - pi top |cols| over the standard form, r = c - y rows
    (a slack's reduced cost, -y_i, is at most 0), a column's width being
    its box's, or implied where it has no upper bound (lp's rows must imply
    that bound; Neumaier & Shcherbina 2004). Returns (point, bound): point
    (n, 2), the columns p (lb included) and q, and bound, pi -> that bound;
    None when lp keeps no tableau or B is singular.
    """
    tab = lp._tab
    if tab is None:
        return None
    m, n = lp._rows.shape
    # each column's upper bound u0 + s u1, and the point p + s q, where a
    # column at its upper bound sits
    upper = np.zeros((n + m, 2))
    upper[:, 0] = _upper(lp)
    upper[cols, 0], upper[cols, 1] = top - lp.lb[cols], -floor
    point = np.where(tab.side[:, None] < 0.0, upper, 0.0)
    c = np.zeros((2, n + m))  # the objective is c[0] + pi c[1]
    c[0, :n] = lp.objective
    c[0, cols] = 0.0
    c[1, cols] = 1.0
    rhs = -lp._rows @ point[:n]
    rhs[:, 0] += lp._rhs
    read = _read_basis(lp, rhs, c[:, tab.basis])
    if read is None:
        return None
    point[tab.basis], duals = read
    point[:n, 0] += lp.lb
    # the bound's terms, each affine in pi or in s
    width = np.where(upper[:n] < math.inf, upper[:n], [implied, 0.0]).T
    reduced = c[:, :n] - duals @ lp._rows
    fixed = duals @ lp._rhs + c[:, :n] @ lp.lb - [0.0, top * len(cols)]

    def bound(pi: float) -> float:
        neg = np.minimum(duals[0] + pi * duals[1], 0.0)  # what clipping takes off y
        gain = np.maximum(reduced[0] + pi * reduced[1] + neg @ lp._rows, 0.0)
        return float(fixed[0] + pi * fixed[1] - neg @ lp._rhs + gain @ width[0]
                     + gain @ width[1] / pi)

    return point[:n], bound


def solve_lfp(problem: LfpProblem, at_least: float = -math.inf) -> LpResult:
    """Dinkelbach's method: maximize (n.x + n0)/(d.x + d0).

    Each step solves max n.x + n0 - lam (d.x + d0) over the problem's rows
    and box, from the tableau the step before kept, and moves lam to the
    ratio at its optimum, until that optimum is <= 0 (the ratio no longer
    rises by more than RATIO_TOL): lam is then the maximum and x attains it.
    The first step is at lam = at_least, from whatever tableau lp keeps; if
    it cannot beat at_least, x is None and the value at_least. With at_least
    = -inf it is at lam = 0, and if no point has a positive ratio its point
    is returned, its ratio a lower bound only. The answer is an LpResult with
    value lam; a step that ends other than optimal is returned as it is. A
    point with d.x + d0 <= FEAS_TOL raises DenominatorNotPositive.
    """
    num, den = problem.numerator, problem.denominator
    n0, d0 = problem.numerator_constant, problem.denominator_constant
    lp = problem.lp
    lam, x = at_least, None
    while True:
        step = lam if lam > -math.inf else 0.0
        lp.objective = num - step * den
        lp.objective_constant = n0 - step * d0
        res = solve_lp(lp)
        if res.status != OPTIMAL:
            return res
        denominator = den @ res.x + d0
        # written so that a NaN raises too
        if not denominator > FEAS_TOL:
            raise DenominatorNotPositive(f"denominator {denominator:.6g} at an LP optimum")
        ratio = float((num @ res.x + n0) / denominator)
        rose = ratio > lam + RATIO_TOL
        if rose:
            lam, x = ratio, res.x
        if not rose or res.value <= 0.0:
            return LpResult(OPTIMAL, lam, x)
