"""Self-contained dense LP solver and a linear-fractional solver built on it.

Primal simplex on a dense tableau, for the one form of LP this package
builds. A LinearProgram is arrays: rows a x <= b (a is m x n) and a box
lb <= x <= ub, with lb finite, ub inf on a column with no upper bound and
b - a lb >= 0, so once the lower bounds are shifted to zero the all-slack
basis is feasible, and every cold solve starts from it. LinearProgram
checks this, and that no box is empty (lb <= ub), on whole arrays and
raises ValueError otherwise, so every LP it takes is feasible. Pricing is
steepest edge (Goldfarb & Reid 1977; Forrest & Goldfarb 1992): the entering
column maximizes c_j^2 / (1 + |B^-1 a_j|^2), its norm read from the tableau
at each pivot, with deterministic lowest-index tie-breaking; a degeneracy
streak switches the rule to Bland's, which guarantees termination. Problems
in this package are small (at most a few hundred variables), so nothing is
sparse; what is kept is the tableau itself. A pivot updates only the slice
between the first and last nonzero of its column and of its row: the
scenario programs are block-structured, and outside that slice the update
would change no entry's value.

Built once, kept with its tableau: a LinearProgram builds its standard form
([a | unit rows of the bounded columns], scaled, with one slack per row,
and the right-hand side shifted by lb) when it is made, and keeps on it the
final tableau of each solve, B^-1 [A | b] at that solve's basis. After that
only the objective, its constant and the finite ub may change (ub through
LinearProgram.set_upper, which moves the form's bound rows with it); none of
them moves B^-1 A, so the kept tableau stays exact but for its right-hand
column.

One read: the basic values and the duals of every answer, re-price and
closed form come from the kept tableau's B^-1 (its start-basis columns),
each refined once against the form's own columns (iterative refinement;
Higham 2002 ch. 12). A refinement residual above 1e-9 (relative) means the
tableau has drifted, and one dense solve B^-1 [A | b] at its basis
replaces it; that refactorization is the only dense solve in this module.

One warm start: every later solve re-prices the kept basis (Chvatal 1983
ch. 10) by that read. A basis that is primal feasible (basic values >=
-1e-7) and dual feasible (no reduced cost above 1e-9) is optimal, with no
pivot, and the values the read refined are its answer; from one only
primal feasible the simplex starts; from any other the solve starts at the
slack basis.

Carried tableaus: carry_basis maps the kept basis of one scenario program
onto the next, larger one (optimal_cr's prefix t to t+1, the anytime
certificate's cutoff k-1 to k) and seeds the new form with the tableau at
the carried basis, derived from the old one without a solve. So along
these chains no warm start or re-price factorizes B.

One exit and one gate: after pivoting, the answer's basic values are read
from the tableau the simplex stopped at, so rounding that tableau gathered
while pivoting reaches x only below the drift gate. A singular final basis,
or an answer that violates a row (scaled by max(1, |b|)) or a bound by more
than 1e-6, or is NaN, raises NumericalFailure instead of being returned.
The check is one matrix-vector product on the LP's own a, b and ub.

solve_lfp runs Dinkelbach's method (Dinkelbach 1967): a short sequence of
LPs over the same rows, each starting from the tableau the one before
kept, so a caller solving a sequence of related programs (optimal_cr,
prefix by prefix) carries that tableau from one to the next by carry_basis.

Ranging: the anytime certificate solves one LP family over a parameter
pi, in which only the objective's pi terms and the upper bounds top -
floor/pi of some columns move. parametric_range reads, by the one read
from the tableau a form keeps at an optimal basis, that basis's optimum as
A + B pi + C/pi and the pi range on which the basis stays primal and dual
feasible (basic values affine in 1/pi, reduced costs affine in pi). A
caller holding it can answer the LP anywhere in that range without solving
it.

Tolerances: pivot 1e-9, feasibility 1e-7, drift 1e-9, residual 1e-6,
ratio 1e-12, range 1e-12.
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
RANGE_TOL = 1e-12  # rounding a closed form's range forgives, in values and reduced costs

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"


@dataclass
class LinearProgram:
    """Dense LP: maximize objective . x (+ objective_constant) over the rows
    a x <= b and the box lb <= x <= ub (ub inf where a column has no upper
    bound).

    Checked on whole arrays, each failure a ValueError: the shapes match
    (a m x n, b m, objective, lb and ub n), nothing is NaN, only ub may be
    infinite (+inf), no box is empty (ub >= lb) and b - a lb >= 0. Then the
    standard form is built and kept on the object, so change only the
    objective, objective_constant and, through set_upper, ub. ub is copied,
    since set_upper writes into it."""

    objective: np.ndarray
    a: np.ndarray
    b: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    objective_constant: float = 0.0
    # the standard form, built with the LP; every solve reuses it
    _form: _Form = field(init=False, repr=False, compare=False)

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
        self._form = _build_form(self)

    @property
    def num_vars(self) -> int:
        return len(self.objective)

    def set_upper(self, cols, hi: float) -> None:
        """Move the upper bound of every column in cols to hi, and with it
        their bound rows' right-hand sides in the standard form. A non-finite
        hi, a hi below a column's lower bound, or a column with no upper bound
        (so no bound row) raises ValueError before anything moves."""
        if not math.isfinite(hi):
            raise ValueError(f"non-finite upper bound {hi}")
        if (hi < self.lb[cols]).any():
            raise ValueError(f"empty box: upper bound {hi} below a lower bound")
        if not (self.ub[cols] < math.inf).all():
            raise ValueError("no upper bound to move on a column")
        # bound rows are unit rows, so equilibration left them unscaled
        self._form.rhs[self._form.bound_row[cols]] = hi - self.lb[cols]
        self.ub[cols] = hi


@dataclass
class LpResult:
    status: str
    value: float
    x: np.ndarray | None
    residual: float = 0.0
    # column indices of the final basis, row by row, in the LP's standard
    # form: the basis of the tableau that form keeps
    basis: np.ndarray | None = None


@dataclass
class LfpProblem:
    """Linear-fractional program: maximize (n.x + n0)/(d.x + d0) over the
    rows and box of lp, whose objective solve_lfp writes at each step.

    The denominator must be positive everywhere on the feasible region; that
    is the caller's precondition (optimal_cr proves it for its programs).
    solve_lfp checks it at each point it evaluates and raises
    DenominatorNotPositive where it is at most FEAS_TOL. A numerator or
    denominator of another length than lp's columns, or a non-finite one or
    constant, raises ValueError. lp keeps the standard form it was made with
    across solve_lfp calls, so its rows and box are not to change.
    """

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


@dataclass
class LfpResult:
    status: str
    value: float
    x: np.ndarray | None


class _Tableau:
    """Simplex working state at a basis: the rows B^-1 [A | b] over a
    reduced-cost row, in t ((m+1) x (n+1), owned, not copied)."""

    def __init__(self, t: np.ndarray, basis: np.ndarray):
        self.t = t
        self.m, self.n = t.shape[0] - 1, t.shape[1] - 1
        self.basis = np.array(basis)

    def set_objective(self, coeffs: np.ndarray) -> None:
        """Install reduced costs for maximize(coeffs . x) given the current basis."""
        t, m, n = self.t, self.m, self.n
        t[m, :n] = coeffs
        t[m, n] = 0.0
        cb = coeffs[self.basis]
        nz = np.nonzero(cb)[0]
        for p in nz:
            t[m] -= cb[p] * t[p]

    def run(self, max_iter: int) -> str:
        """Pivot until optimal/unbounded. Returns a status string.

        Steepest-edge pricing: of the columns whose reduced cost exceeds
        PIVOT_TOL, the one with the largest c_j^2 / (1 + |B^-1 a_j|^2) enters,
        the lowest index on a tie, each norm taken from the tableau's column;
        once 50 pivots in a row leave the objective in place, Bland's rule
        (lowest index) until one moves it. The ratio test takes the largest
        pivot among the tied rows, then the lowest basic index (Bland's: that
        index alone)."""
        t, m, n = self.t, self.m, self.n
        if n == 0:  # no column may enter: the start basis is final
            return OPTIMAL
        obj = t[m]
        stall = 0
        bland = False
        for _ in range(max_iter):
            pos = (obj[:n] > PIVOT_TOL).nonzero()[0]
            if len(pos) == 0:
                return OPTIMAL
            if bland or len(pos) == 1:
                q = int(pos[0])
            else:
                sub = t[:m, pos]
                q = int(pos[np.argmax(obj[pos] ** 2 / (1.0 + (sub * sub).sum(axis=0)))])
            col = t[:m, q]
            rows = (col > PIVOT_TOL).nonzero()[0]
            if len(rows) == 0:
                return UNBOUNDED
            ratios = t[rows, n] / col[rows]
            cand = rows[ratios <= ratios.min() + 1e-12]
            if len(cand) > 1 and not bland:
                # stability first: largest pivot among ties, then smallest index
                cand = cand[col[cand] >= col[cand].max() - 1e-12]
            # then the smallest basis index, which alone is Bland's rule
            p = int(cand[np.argmin(self.basis[cand])])
            before = obj[n]
            self._pivot(p, q)
            # obj[n] stores minus the objective value; progress drives it down
            if before - obj[n] <= 1e-12:
                stall += 1
                if stall >= 50:
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


def _framed(rows: np.ndarray, rhs) -> np.ndarray:
    """A copy of [rows | rhs] over a zero cost row, as _Tableau holds it."""
    m, n = rows.shape
    t = np.zeros((m + 1, n + 1))
    t[:m, :n] = rows
    t[:m, n] = rhs
    return t


@dataclass
class _Form:
    """Standard form of one LinearProgram as solve_lp uses it: the matrix
    [rows | I] (one slack per row) and right-hand side, the slack start
    basis, the row of each column's upper bound (-1 where it has none), and
    the tableau of the last solve (or of a carry) at its basis. Moving the
    objective or the upper bounds leaves that tableau's rows B^-1 A exact;
    only its right-hand column goes stale, and every warm start rewrites
    it."""

    a: np.ndarray
    rhs: np.ndarray
    start: np.ndarray
    bound_row: np.ndarray
    tab: _Tableau | None = None


def _build_form(lp: LinearProgram) -> _Form:
    """lp's standard form, which LinearProgram builds once it is checked.

    Lower bounds are shifted to zero, each finite upper bound becomes a unit
    row x_j <= ub - lb after lp's rows, in column order, lp's rows are
    equilibrated (which keeps pivot tolerances meaningful across magnitudes;
    a unit row already is) and each row gets a slack; the slacks are the
    start basis.
    """
    bounded = np.flatnonzero(lp.ub < math.inf)
    n, m, k = lp.num_vars, len(lp.b), len(lp.b) + len(bounded)
    bound_row = np.full(n, -1)
    bound_row[bounded] = m + np.arange(len(bounded))
    scale = np.maximum(np.abs(lp.a).max(axis=1, initial=0.0), 1e-12)
    a = np.zeros((k, n + k))
    a[:m, :n] = lp.a / scale[:, None]
    a[bound_row[bounded], bounded] = 1.0
    a[np.arange(k), n + np.arange(k)] = 1.0
    rhs = np.concatenate([(lp.b - lp.a @ lp.lb) / scale, lp.ub[bounded] - lp.lb[bounded]])
    return _Form(a, rhs, n + np.arange(k), bound_row)


def _factorized(form: _Form, basis: np.ndarray) -> _Tableau | None:
    """The tableau B^-1 [A | b] at basis from one dense solve on the form's
    columns; None when B is singular. Its right-hand column is left to the
    caller."""
    try:
        rows = np.linalg.solve(form.a[:, basis], form.a)
    except np.linalg.LinAlgError:
        return None
    rows[:, basis] = np.eye(len(basis))
    return _Tableau(_framed(rows, 0.0), basis)


def _read_basis(form: _Form, rhs: np.ndarray, cb: np.ndarray):
    """Basic values B^-1 rhs and duals cb B^-1 at the basis of the tableau
    form keeps, from that tableau's B^-1 (its start-basis columns), each
    refined once against the form's own columns B = a[:, basis]. rhs may
    hold one right-hand side a column, and cb one cost vector a row. A
    relative residual above DRIFT_TOL before refinement, or a NaN, means
    the tableau has drifted: form keeps _factorized's tableau at that basis
    instead, and the values are read from it. Returns (values, duals), or
    None, with no tableau kept, when B is singular."""
    tab = form.tab
    for fresh in (False, True):
        inv, b_cols = tab.t[: tab.m, form.start], form.a[:, tab.basis]
        x_basic, duals = inv @ rhs, cb @ inv
        gap, dual_gap = rhs - b_cols @ x_basic, cb - duals @ b_cols
        # relative residuals, compared so that a NaN counts as drift
        if fresh or all(
                np.abs(g).max(initial=0.0) <= DRIFT_TOL * max(1.0, np.abs(v).max(initial=0.0))
                for g, v in ((gap, rhs), (dual_gap, cb))):
            return x_basic + inv @ gap, duals + dual_gap @ inv
        tab = form.tab = _factorized(form, tab.basis)
        if tab is None:
            return None


def _priced(form: _Form, obj: np.ndarray) -> tuple[np.ndarray, bool] | None:
    """The kept tableau re-priced (see the module docstring): its basic
    values for a x = rhs, and whether its basis is optimal for max obj.x
    (no reduced cost above PIVOT_TOL). None when that basis is singular or
    primal infeasible (a basic value below -FEAS_TOL).
    """
    basis = form.tab.basis
    read = _read_basis(form, form.rhs, obj[basis])
    if read is None:
        return None
    x_basic, duals = read
    # comparisons are written so that a NaN rejects the basis
    if not (x_basic >= -FEAS_TOL).all():
        return None
    reduced = obj - duals @ form.a
    reduced[basis] = 0.0
    return x_basic, bool((reduced <= PIVOT_TOL).all())


def _optimal_result(lp: LinearProgram, form: _Form, x_basic: np.ndarray) -> LpResult:
    """The answer at the kept tableau's basis, whose basic values _read_basis
    read: mapped back to the original variables and certified against lp's
    own rows and box; a worst row violation (scaled by max(1, |b|)) or bound
    violation above RESIDUAL_TOL, or NaN, raises."""
    basis = form.tab.basis
    x_shift = np.zeros(form.a.shape[1])
    x_shift[basis] = x_basic
    x = x_shift[: lp.num_vars] + lp.lb
    value = float(lp.objective @ x) + lp.objective_constant

    by_row = (lp.a @ x - lp.b) / np.maximum(1.0, np.abs(lp.b))
    # one max over everything, so that a NaN anywhere propagates and raises
    residual = float(np.concatenate([by_row, lp.lb - x, x - lp.ub]).max(initial=0.0))
    if not residual <= RESIDUAL_TOL:
        raise NumericalFailure(f"LP answer residual {residual:.3g} above {RESIDUAL_TOL:g}")
    return LpResult(OPTIMAL, value, x, residual, basis.copy())


def solve_lp(lp: LinearProgram) -> LpResult:
    """Dense primal simplex on lp's standard form. Status is optimal or
    unbounded; every LinearProgram is feasible.

    The first solve starts from the slack basis. A later one, or one after
    carry_basis, re-prices the tableau lp's form keeps: its vertex is
    returned if still optimal, the simplex starts from it if it is only
    primal feasible, and otherwise from the slack basis. An answer whose
    residual exceeds RESIDUAL_TOL raises NumericalFailure.
    """
    form = lp._form
    m, cols = form.a.shape
    full_obj = np.zeros(cols)
    full_obj[: lp.num_vars] = lp.objective

    priced = None if form.tab is None else _priced(form, full_obj)
    if priced is None:
        form.tab = _Tableau(_framed(form.a, form.rhs), form.start)
    else:
        x_basic, optimal = priced
        if optimal:
            return _optimal_result(lp, form, x_basic)
        form.tab.t[:m, cols] = np.maximum(x_basic, 0.0)
    tab = form.tab
    tab.set_objective(full_obj)
    if tab.run(5000 + 60 * (m + cols)) == UNBOUNDED:
        return LpResult(UNBOUNDED, np.nan, None)
    read = _read_basis(form, form.rhs, full_obj[tab.basis])
    if read is None:
        raise NumericalFailure("final simplex basis is singular")
    return _optimal_result(lp, form, read[0])


def carry_basis(old: LinearProgram, new: LinearProgram, at: int) -> None:
    """Seed new's standard form with old's kept tableau, mapped onto new.

    old and new are scenario programs (an LfpProblem's is its lp) where new
    is old with one demand column inserted at column at, one scenario block
    appended after the last column and that block's rows appended after the
    last row; no old row touches a new column, and old's rows are new's
    first rows, unchanged. optimal_cr steps so from prefix t to t+1
    (x_{t+1} inserted at column t), and the anytime certificate from cutoff
    k-1 to k after t observed slots (x_k inserted at column k-1-t). Old
    columns and slacks move to their new index (a's rows keep theirs, and
    each form's bound_row places the bound rows) and the slack of every new
    row is made basic. At the old vertex with the new columns at their
    lower bounds every new row holds: after the lower-bound shift its
    right-hand side is >= 0, and its one old column, if any, is an x_j at
    most d_ub - x_lb against a right-hand side of U - x_lb. So when new
    keeps the bounds old was solved with, the carried basis is primal
    feasible and solve_lp starts the simplex from it.

    The tableau at the carried basis is derived from old's without a solve:
    the old rows move through the column map, and each appended row is the
    form's row less its basic columns' multiples of the old rows
    (R - R_B T_old). solve_lp then re-prices it. Nothing is seeded when old
    keeps no tableau.
    """
    kept, form = old._form.tab, new._form
    if kept is None:
        return
    n_new = new.num_vars
    col = np.arange(old.num_vars)
    col[at:] += 1  # the new demand column
    # each old row's index in the new standard form
    row = np.concatenate([np.arange(len(old.b)), form.bound_row[col[old._form.bound_row >= 0]]])
    moved = np.concatenate([col, n_new + row])  # every old column's new index
    carried = moved[kept.basis]
    m_old, (m, cols) = kept.m, form.a.shape
    fresh = np.ones(m, dtype=bool)
    fresh[row] = False
    added = np.flatnonzero(fresh)  # the appended rows, in order
    t = np.zeros((m + 1, cols + 1))
    t[:m_old, moved] = kept.t[:m_old, : len(moved)]
    appended = form.a[added]
    # an appended row meets few old columns (demand columns), so R_B is thin
    touch = np.nonzero(appended[:, carried].any(axis=0))[0]
    t[m_old:m, :cols] = appended - appended[:, carried[touch]] @ t[touch, :cols]
    form.tab = _Tableau(t, np.concatenate([carried, n_new + added]))


def parametric_range(lp: LinearProgram, cols, top: float, floor: float):
    """lp's optimum at the basis of the tableau its form keeps, as a closed
    form in a parameter pi, and the pi range on which that basis stays
    optimal, read from that tableau with no solve unless it drifted.

    lp maximizes a member of the family the anytime certificate bisects
    on: the objective c.x + pi (sum_{j in cols} x_j - top |cols|), where c
    is lp.objective off cols, with each column of cols in [0, top -
    floor/pi] and nothing else moving. With s = 1/pi only the bound rows of
    cols move, so the basic values are p + s q: p = B^-1 b with those rows
    at top, q = -floor B^-1 e with e one on those rows, and the reduced
    costs are r0 + pi r1, from the duals of c and of the pi terms (all
    read as solve_lp reads an answer: from the kept B^-1, refined once
    against the form's own columns, refactorized if it drifted). So the
    optimum is A + B pi + C/pi on [lo, hi], the pi > 0 where p + s q >= 0
    and r0 + pi r1 <= 0, each up to RANGE_TOL, which forgives rounding
    only: solve_lp's own optimality tolerances would let the form run past
    a breakpoint, off the optimum by about 1e-9 relative (parametric
    ranging; Gass & Saaty 1955, Chvatal 1983 ch. 10). Returns (A, B, C,
    lo, hi), or None when the form keeps no tableau, its basis is
    singular, or the range is empty.
    """
    form = lp._form
    if form.tab is None:
        return None
    m, width = form.a.shape
    rows = form.bound_row[cols]
    rhs = np.zeros((m, 2))
    rhs[:, 0] = form.rhs
    rhs[rows, 0] = top - lp.lb[cols]
    rhs[rows, 1] = -floor
    n = lp.num_vars
    c = np.zeros((2, width))  # the objective is c[0] + pi c[1]
    c[0, :n] = lp.objective
    c[0, cols] = 0.0
    c[1, cols] = 1.0
    basis = form.tab.basis
    cb = c[:, basis]
    read = _read_basis(form, rhs, cb)
    if read is None:
        return None
    pq, duals = read
    p, q = pq[:, 0], pq[:, 1]
    r0, r1 = c - duals @ form.a
    r0[basis] = r1[basis] = 0.0
    (c0p, c0q), (c1p, c1q) = cb @ pq
    at_lb = c[:, :n] @ lp.lb
    closed = (float(at_lb[0] + c0p + c1q), float(at_lb[1] + c1p - top * len(cols)), float(c0q))

    s_lo, s_hi = _where_nonnegative(p + RANGE_TOL, q)  # in s = 1/pi
    lo, hi = _where_nonnegative(RANGE_TOL - r0, -r1)
    # s in [s_lo, s_hi] is pi in [1/s_hi, 1/s_lo]
    lo = max(lo, 1.0 / s_hi if s_hi > 0.0 else math.inf)
    hi = min(hi, 1.0 / s_lo if s_lo > 0.0 else math.inf)
    # written so that a NaN empties the range
    if not lo <= hi:
        return None
    return (*closed, lo, hi)


def _where_nonnegative(level: np.ndarray, slope: np.ndarray) -> tuple[float, float]:
    """The interval of z >= 0 where level + z slope >= 0 holds in every
    entry; empty (lo > hi, or NaN) when it holds nowhere."""
    if not (level[slope == 0.0] >= 0.0).all():
        return math.inf, 0.0
    up, down = slope > 0.0, slope < 0.0
    return (float((-level[up] / slope[up]).max(initial=0.0)),
            float((level[down] / -slope[down]).min(initial=math.inf)))


def solve_lfp(problem: LfpProblem, at_least: float = -math.inf) -> LfpResult:
    """Dinkelbach's method: maximize (n.x + n0)/(d.x + d0).

    Each step solves the LP max n.x + n0 - lam (d.x + d0) over the problem's
    rows and bounds, from the tableau the previous step kept, and moves lam
    to the ratio at its optimum. It stops once the LP optimum is <= 0 (the
    ratio no longer rises by more than RATIO_TOL): lam is then the maximum
    and x attains it. The first step is at lam = at_least, from whatever
    tableau lp keeps (one carry_basis seeded, or none), and if it cannot
    beat at_least by RATIO_TOL the result carries x = None and value
    at_least. With at_least = -inf the first step is at lam = 0, and if no
    point has a positive ratio that step's point is returned; its ratio is
    then a lower bound only. A step whose point has d.x + d0 <= FEAS_TOL
    raises DenominatorNotPositive before the ratio is taken.
    """
    num, den = problem.numerator, problem.denominator
    n0, d0 = problem.numerator_constant, problem.denominator_constant
    # only the objective moves between steps, so lp's form is built once
    lp = problem.lp
    lam, x = at_least, None
    while True:
        step = lam if lam > -math.inf else 0.0
        lp.objective = num - step * den
        lp.objective_constant = n0 - step * d0
        res = solve_lp(lp)
        if res.status != OPTIMAL:
            return LfpResult(res.status, np.nan, None)
        denominator = den @ res.x + d0
        # written so that a NaN raises too
        if not denominator > FEAS_TOL:
            raise DenominatorNotPositive(f"denominator {denominator:.6g} at an LP optimum")
        ratio = float((num @ res.x + n0) / denominator)
        rose = ratio > lam + RATIO_TOL
        if rose:
            lam, x = ratio, res.x
        if not rose or res.value <= 0.0:
            return LfpResult(OPTIMAL, lam, x)
