"""Self-contained dense linear-program solver and linear-fractional reduction.

Two-phase primal simplex on a dense tableau. Pivoting is Dantzig's rule with
deterministic lowest-index tie-breaking; a degeneracy streak switches the rule
to Bland's, which guarantees termination. Problems in this package are tiny
(at most a few hundred variables), so no sparsity or factorization is kept.

Basis re-pricing: every optimal LpResult carries its final basis, and
solve_lp accepts one back. A given basis is re-priced before any pivoting:
one dense solve for its basic values and one for its duals, on the same
standard-form matrix the tableau is built from. It is accepted only if it is
primal feasible (basic values >= -1e-7, no basic artificial above 1e-7) and
dual feasible (no enterable reduced cost above 1e-9); its vertex is then the
optimum and no tableau is built. Anything else (a wrong length, an index out
of range or repeated, a singular matrix, a stale basis) falls through to the
cold two-phase solve, which does not depend on the hint. Callers that
re-solve one LP under a slowly moving objective and right-hand side, as the
anytime bisection does, skip both phases most of the time.

Tolerances: pivot 1e-9, feasibility 1e-7.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DenominatorNotPositive, NumericalFailure

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-7

LE, EQ, GE = "<=", "==", ">="

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass
class LinearProgram:
    """Dense LP: optimize objective . x (+ objective_constant) over
    linear rows and per-variable bounds (finite lower, optional upper)."""

    objective: np.ndarray
    maximize: bool
    constraints: list[tuple[np.ndarray, str, float]] = field(default_factory=list)
    bounds: list[tuple[float, float | None]] = field(default_factory=list)
    objective_constant: float = 0.0
    variable_names: tuple[str, ...] | None = None

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=float)
        n = len(self.objective)
        if not self.bounds:
            self.bounds = [(0.0, None)] * n
        if len(self.bounds) != n:
            raise ValueError("bounds length mismatch")
        checked = []
        for coeffs, rel, rhs in self.constraints:
            coeffs = np.asarray(coeffs, dtype=float)
            if len(coeffs) != n:
                raise ValueError("constraint arity mismatch")
            if not np.isfinite(coeffs).all() or not np.isfinite(rhs):
                raise ValueError("non-finite constraint data")
            if rel not in (LE, EQ, GE):
                raise ValueError(f"unknown relation {rel!r}")
            checked.append((coeffs, rel, float(rhs)))
        self.constraints = checked

    @property
    def num_vars(self) -> int:
        return len(self.objective)


@dataclass
class LpResult:
    status: str
    value: float
    x: np.ndarray | None
    residual: float = 0.0
    # column indices of the final basis, row by row, in the standard form
    # solve_lp builds; a hint for re-solving the same rows and variables
    basis: np.ndarray | None = None


@dataclass
class LfpProblem:
    """Linear-fractional program: optimize (n.x + n0)/(d.x + d0) over LP rows/bounds.

    The denominator must be positive everywhere on the feasible region; this is
    verified by an auxiliary minimization before the main solve.
    """

    numerator: np.ndarray
    numerator_constant: float
    denominator: np.ndarray
    denominator_constant: float
    constraints: list[tuple[np.ndarray, str, float]] = field(default_factory=list)
    bounds: list[tuple[float, float | None]] = field(default_factory=list)
    variable_names: tuple[str, ...] | None = None

    def __post_init__(self):
        self.numerator = np.asarray(self.numerator, dtype=float)
        self.denominator = np.asarray(self.denominator, dtype=float)
        if not self.bounds:
            self.bounds = [(0.0, None)] * len(self.numerator)


@dataclass
class LfpResult:
    status: str
    value: float
    x: np.ndarray | None
    scale: float = 0.0


class _Tableau:
    """Simplex working state: rows of [A | b] plus a reduced-cost row."""

    def __init__(self, rows: np.ndarray, rhs: np.ndarray, basis: np.ndarray):
        m, n = rows.shape
        self.t = np.empty((m + 1, n + 1), dtype=float)
        self.t[:m, :n] = rows
        self.t[:m, n] = rhs
        self.t[m] = 0.0
        self.m, self.n = m, n
        self.basis = basis.copy()

    def set_objective(self, coeffs: np.ndarray) -> None:
        """Install reduced costs for maximize(coeffs . x) given the current basis."""
        t, m, n = self.t, self.m, self.n
        t[m, :n] = coeffs
        t[m, n] = 0.0
        cb = coeffs[self.basis]
        nz = np.nonzero(cb)[0]
        for p in nz:
            t[m] -= cb[p] * t[p]

    def run(self, max_iter: int, enter_limit: int | None = None) -> str:
        """Pivot until optimal/unbounded. Returns a status string.

        Only the first enter_limit columns may enter the basis; artificials
        sit past that cutoff and are never allowed back in once they leave.
        """
        t, m, n = self.t, self.m, self.n
        ne = n if enter_limit is None else enter_limit
        obj = t[m]
        stall = 0
        bland = False
        for _ in range(max_iter):
            costs = obj[:ne]
            if bland:
                pos = np.nonzero(costs > PIVOT_TOL)[0]
                if len(pos) == 0:
                    return OPTIMAL
                q = int(pos[0])
            else:
                q = int(np.argmax(costs))
                if costs[q] <= PIVOT_TOL:
                    return OPTIMAL
            col = t[:m, q]
            mask = col > PIVOT_TOL
            if not mask.any():
                return UNBOUNDED
            ratios = np.full(m, np.inf)
            ratios[mask] = t[:m, n][mask] / col[mask]
            best = ratios.min()
            cand = np.nonzero(ratios <= best + 1e-12)[0]
            if bland:
                # Bland's rule: leaving variable with the smallest basis index
                p = int(cand[np.argmin(self.basis[cand])])
            else:
                # stability first: largest pivot among ties, then smallest index
                piv = col[cand]
                keep = cand[piv >= piv.max() - 1e-12]
                p = int(keep[np.argmin(self.basis[keep])])
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
        t = self.t
        piv = t[p, q]
        t[p] = t[p] / piv
        col = t[:, q].copy()
        col[p] = 0.0
        t -= np.outer(col, t[p])
        t[:, q] = 0.0
        t[p, q] = 1.0
        self.basis[p] = q


def _standard_form(lp: LinearProgram):
    """Shift lower bounds to zero, append upper-bound rows, orient rhs >= 0.

    Returns (rows, rels, rhs, lb, shifted objective constant offset) where every
    variable is >= 0 and every rhs is >= 0.
    """
    n = lp.num_vars
    lb = np.array([b[0] for b in lp.bounds], dtype=float)
    if not np.isfinite(lb).all():
        raise ValueError("all variable lower bounds must be finite")
    rows, rels, rhs = [], [], []
    for coeffs, rel, b in lp.constraints:
        rows.append(coeffs)
        rels.append(rel)
        rhs.append(b - coeffs @ lb)
    for j, (lo, hi) in enumerate(lp.bounds):
        if hi is not None:
            if hi < lo - FEAS_TOL:
                return None  # empty box
            e = np.zeros(n)
            e[j] = 1.0
            rows.append(e)
            rels.append(LE)
            rhs.append(hi - lo)
    if rows:
        rows = np.vstack(rows)
        rhs = np.asarray(rhs, dtype=float)
    else:
        rows = np.zeros((0, n))
        rhs = np.zeros(0)
    # row equilibration keeps pivot tolerances meaningful across magnitudes
    scale = np.maximum(np.abs(rows).max(axis=1, initial=0.0), 1e-12)
    rows = rows / scale[:, None]
    rhs = rhs / scale
    flip = rhs < 0
    rows[flip] *= -1.0
    rhs[flip] *= -1.0
    rels = [
        (LE if r == GE else GE if r == LE else EQ) if f else r
        for r, f in zip(rels, flip)
    ]
    return rows, rels, rhs, lb


def _augment(rows: np.ndarray, rels: list[str], n: int):
    """[rows | slacks | artificials] and the all-slack/artificial start basis.

    Returns (matrix, start basis, artificial columns, enterable), where the
    first enterable columns (structural and slack) are the ones that may
    enter a basis; artificials sit past them.
    """
    m = len(rels)
    n_slack = sum(1 for r in rels if r == LE) + sum(1 for r in rels if r == GE)
    n_art = sum(1 for r in rels if r != LE)
    cols = n + n_slack + n_art
    a = np.zeros((m, cols))
    a[:, :n] = rows
    basis = np.zeros(m, dtype=int)
    js, ja = n, n + n_slack
    art_cols = []
    for i, r in enumerate(rels):
        if r == LE:
            a[i, js] = 1.0
            basis[i] = js
            js += 1
        elif r == GE:
            a[i, js] = -1.0
            js += 1
            a[i, ja] = 1.0
            basis[i] = ja
            art_cols.append(ja)
            ja += 1
        else:
            a[i, ja] = 1.0
            basis[i] = ja
            art_cols.append(ja)
            ja += 1
    return a, basis, art_cols, n + n_slack


def _reprice(
    a: np.ndarray, rhs: np.ndarray, obj: np.ndarray, basis, enterable: int
) -> np.ndarray | None:
    """Basic values of basis if it is optimal for max obj.x, a x = rhs, x >= 0.

    None when the basis is malformed, singular, primal infeasible (a basic
    value below -FEAS_TOL or a basic artificial above FEAS_TOL) or dual
    infeasible (an enterable reduced cost above PIVOT_TOL).
    """
    m, cols = a.shape
    basis = np.asarray(basis)
    if (
        basis.shape != (m,)
        or basis.dtype.kind not in "iu"
        or basis.min() < 0
        or basis.max() >= cols
        or len(np.unique(basis)) != m
    ):
        return None
    b_mat = a[:, basis]
    try:
        x_basic = np.linalg.solve(b_mat, rhs)
        duals = np.linalg.solve(b_mat.T, obj[basis])
    except np.linalg.LinAlgError:
        return None
    # comparisons are written so that a NaN rejects the basis
    if not (x_basic >= -FEAS_TOL).all():
        return None
    if not (x_basic[basis >= enterable] <= FEAS_TOL).all():
        return None
    reduced = obj[:enterable] - duals @ a[:, :enterable]
    reduced[basis[basis < enterable]] = 0.0
    if not (reduced <= PIVOT_TOL).all():
        return None
    return x_basic


def _optimal_result(
    lp: LinearProgram, basis: np.ndarray, x_basic: np.ndarray, lb: np.ndarray, cols: int
) -> LpResult:
    """Map basic values back to the original variables and certify them."""
    x_shift = np.zeros(cols)
    x_shift[basis] = x_basic
    x = x_shift[: lp.num_vars] + lb
    value = float(lp.objective @ x) + lp.objective_constant

    residual = 0.0
    for coeffs, rel, b in lp.constraints:
        lhs = float(coeffs @ x)
        scale = max(1.0, abs(b))
        if rel == LE:
            residual = max(residual, (lhs - b) / scale)
        elif rel == GE:
            residual = max(residual, (b - lhs) / scale)
        else:
            residual = max(residual, abs(lhs - b) / scale)
    for j, (lo, hi) in enumerate(lp.bounds):
        residual = max(residual, lo - x[j])
        if hi is not None:
            residual = max(residual, x[j] - hi)
    return LpResult(OPTIMAL, value, x, float(residual), basis)


def solve_lp(lp: LinearProgram, basis: np.ndarray | None = None) -> LpResult:
    """Two-phase dense simplex. Status is one of optimal/infeasible/unbounded.

    basis is an optional hint, normally the basis of an earlier result for
    an LP with the same rows, relations and bounded variables. It is
    re-priced first and its vertex returned if it is still optimal;
    otherwise the cold two-phase solve runs as if no hint were given.
    """
    n = lp.num_vars
    if n == 0:
        return LpResult(OPTIMAL, lp.objective_constant, np.zeros(0), 0.0)
    sf = _standard_form(lp)
    if sf is None:
        return LpResult(INFEASIBLE, np.nan, None)
    rows, rels, rhs, lb = sf
    m = len(rhs)
    obj = lp.objective if lp.maximize else -lp.objective

    if m == 0:
        # box-only problem: optimum sits at a bound of each variable
        x = lb.copy()
        for j, (lo, hi) in enumerate(lp.bounds):
            if obj[j] > 0:
                if hi is None:
                    return LpResult(UNBOUNDED, np.nan, None)
                x[j] = hi
        val = float(lp.objective @ x) + lp.objective_constant
        return LpResult(OPTIMAL, val, x, 0.0)

    a, start, art_cols, enterable = _augment(rows, rels, n)
    cols = a.shape[1]
    full_obj = np.zeros(cols)
    full_obj[:n] = obj

    if basis is not None:
        x_basic = _reprice(a, rhs, full_obj, basis, enterable)
        if x_basic is not None:
            return _optimal_result(lp, np.asarray(basis), x_basic, lb, cols)

    tab = _Tableau(a, rhs, start)
    max_iter = 5000 + 60 * (m + cols)

    if art_cols:
        phase1 = np.zeros(cols)
        phase1[art_cols] = -1.0
        tab.set_objective(phase1)
        # artificials may leave the basis but never come back
        status = tab.run(max_iter, enter_limit=enterable)
        # the objective row's rhs holds minus the phase-1 value = sum of artificials
        if status != OPTIMAL or tab.t[tab.m, tab.n] > FEAS_TOL:
            return LpResult(INFEASIBLE, np.nan, None)
        art_set = set(art_cols)
        for p in range(tab.m):
            if tab.basis[p] in art_set:
                row = tab.t[p, :cols]
                pivots = np.nonzero(np.abs(row[:enterable]) > PIVOT_TOL)[0]
                if len(pivots):
                    tab._pivot(p, int(pivots[0]))
        # neutralize any artificial column still around (redundant rows stay basic at 0)
        tab.t[:, art_cols] = 0.0

    tab.set_objective(full_obj)
    status = tab.run(max_iter, enter_limit=enterable)
    if status == UNBOUNDED:
        return LpResult(UNBOUNDED, np.nan, None)
    return _optimal_result(lp, tab.basis, tab.t[: tab.m, tab.n], lb, cols)


def solve_lfp(problem: LfpProblem, check_denominator: bool = True) -> LfpResult:
    """Charnes-Cooper reduction: maximize (n.x + n0)/(d.x + d0).

    Introduces a scale s >= 0, homogenizes rows and bounds, pins the
    denominator to 1, solves the LP, and maps the solution back as x = y/s.
    """
    n = len(problem.numerator)
    for lo, _hi in problem.bounds:
        if lo < 0:
            raise ValueError("solve_lfp requires nonnegative lower bounds")

    if check_denominator:
        aux = LinearProgram(
            objective=problem.denominator,
            maximize=False,
            constraints=list(problem.constraints),
            bounds=list(problem.bounds),
            objective_constant=problem.denominator_constant,
        )
        aux_res = solve_lp(aux)
        if aux_res.status == INFEASIBLE:
            return LfpResult(INFEASIBLE, np.nan, None)
        if aux_res.status == UNBOUNDED or aux_res.value <= FEAS_TOL:
            raise DenominatorNotPositive(
                f"min denominator over feasible set = "
                f"{aux_res.value if aux_res.status == OPTIMAL else '-inf'}"
            )

    rows = []
    for coeffs, rel, b in problem.constraints:
        rows.append((np.concatenate([coeffs, [-b]]), rel, 0.0))
    for j, (lo, hi) in enumerate(problem.bounds):
        if lo > 0:
            e = np.zeros(n + 1)
            e[j] = -1.0
            e[n] = lo
            rows.append((e, LE, 0.0))
        if hi is not None:
            e = np.zeros(n + 1)
            e[j] = 1.0
            e[n] = -hi
            rows.append((e, LE, 0.0))
    rows.append(
        (np.concatenate([problem.denominator, [problem.denominator_constant]]), EQ, 1.0)
    )
    cc = LinearProgram(
        objective=np.concatenate([problem.numerator, [problem.numerator_constant]]),
        maximize=True,
        constraints=rows,
        bounds=[(0.0, None)] * (n + 1),
    )
    res = solve_lp(cc)
    if res.status != OPTIMAL:
        return LfpResult(res.status, np.nan, None)
    s = float(res.x[n])
    if s <= 1e-11:
        # optimum pinned at the homogenization ray; the value is only an upper
        # bound of a nonpositive ratio, and no witness point exists
        return LfpResult(OPTIMAL, float(res.value), None, s)
    return LfpResult(OPTIMAL, float(res.value), res.x[:n] / s, s)


def dump_lp(lp: LinearProgram) -> str:
    """Plain-text rendering, one constraint per line, for external cross-checks."""
    names = lp.variable_names or tuple(f"x{j+1}" for j in range(lp.num_vars))

    def term(c, j):
        return f"{c:+.12g}*{names[j]}"

    lines = []
    sense = "maximize" if lp.maximize else "minimize"
    obj = " ".join(term(c, j) for j, c in enumerate(lp.objective) if c != 0) or "0"
    const = f" {lp.objective_constant:+.12g}" if lp.objective_constant else ""
    lines.append(f"{sense} {obj}{const}")
    for coeffs, rel, b in lp.constraints:
        body = " ".join(term(c, j) for j, c in enumerate(coeffs) if c != 0) or "0"
        lines.append(f"  {body} {rel} {b:.12g}")
    for j, (lo, hi) in enumerate(lp.bounds):
        hi_s = "inf" if hi is None else f"{hi:.12g}"
        lines.append(f"  {lo:.12g} <= {names[j]} <= {hi_s}")
    return "\n".join(lines)
