"""Dense simplex and the linear-fractional reduction."""

import copy
import math

import numpy as np
import pytest

import peakmin.lp as lp_mod
from peakmin.core import DemandProfile, Instance
from peakmin.cr import build_cr_compute
from peakmin.errors import DenominatorNotPositive, NumericalFailure
from peakmin.harness import synthetic_volatile_profiles
from peakmin.lp import (
    OPTIMAL,
    UNBOUNDED,
    LfpProblem,
    LinearProgram,
    solve_lfp,
    solve_lp,
)
from peakmin.online import _Cutoff, run_anytime

from oracles import kept_tableau_gap, le_arrays, primal_feasible_values

INF2 = np.full(2, np.inf)  # two columns without an upper bound


def test_lp_textbook_maximize():
    # max 3x + 2y s.t. x + y <= 4, x + 3y <= 6, x,y >= 0 -> (4, 0), value 12
    lp = LinearProgram(
        objective=np.array([3.0, 2.0]),
        a=np.array([[1.0, 1.0], [1.0, 3.0]]),
        b=np.array([4.0, 6.0]),
        lb=np.zeros(2),
        ub=INF2,
    )
    res = solve_lp(lp)
    assert res.status == OPTIMAL
    assert res.value == pytest.approx(12.0)
    assert np.allclose(res.x, [4.0, 0.0])


def test_lp_records_compare_by_identity():
    """LinearProgram, LpResult, LfpProblem and a slot's _Cutoff hold arrays:
    == between two built alike used to raise ValueError (the truth value of
    an array is ambiguous). Like the _Tableau they carry, they now compare
    by identity."""
    def build():
        lp = LinearProgram(np.array([3.0, 2.0]), np.array([[1.0, 1.0], [1.0, 3.0]]),
                           np.array([4.0, 6.0]), np.zeros(2), INF2)
        return [lp, solve_lp(lp), LfpProblem(np.ones(2), 0.0, np.ones(2), 1.0, lp),
                _Cutoff(lp, np.arange(2), 4.0)]
    for first, second in zip(build(), build()):
        assert first == first and first != second and not first == second


def test_lp_minimize_with_lower_bound_and_constant():
    # min x - y + 2.5 s.t. x + 2y <= 3, x >= 0.5 (a bound), as max -x + y
    # - 2.5 -> (0.5, 1.25), value -1.75: the row holds with equality and x
    # sits on its bound
    lp = LinearProgram(
        objective=np.array([-1.0, 1.0]),
        a=np.array([[1.0, 2.0]]),
        b=np.array([3.0]),
        lb=np.array([0.5, 0.0]),
        ub=INF2,
        objective_constant=-2.5,
    )
    res = solve_lp(lp)
    assert res.status == OPTIMAL
    assert res.value == pytest.approx(-1.75)
    assert np.allclose(res.x, [0.5, 1.25])


def test_lp_infeasible_detected():
    # 2 <= x <= 1: an empty box, the only infeasibility the all-<= form with
    # b - a lb >= 0 leaves, is rejected when the LP is made
    with pytest.raises(ValueError, match="empty box"):
        LinearProgram(
            objective=np.array([1.0]),
            a=np.array([[1.0]]),
            b=np.array([3.0]),
            lb=np.array([2.0]),
            ub=np.array([1.0]),
        )


def test_lp_unbounded_detected():
    lp = LinearProgram(objective=np.array([1.0]), a=np.zeros((0, 1)),
                       b=np.zeros(0), lb=np.zeros(1), ub=np.full(1, np.inf))
    assert solve_lp(lp).status == UNBOUNDED


@pytest.mark.parametrize(
    "objective, constant, upper, x3, value",
    [
        ([-2.0, 0.0, 3.0], 2.5, 4.0, 4.0, 16.5),
        # min 2 x1 - 3 x3 + 2.5, as max -2 x1 + 3 x3 - 2.5
        ([-2.0, 0.0, 3.0], -2.5, 4.0, 4.0, 11.5),
        ([-2.0, 0.0, -3.0], 2.5, np.inf, 1.0, 1.5),
        # min 2 x1 + 3 x3 + 2.5, as max -2 x1 - 3 x3 - 2.5
        ([-2.0, 0.0, -3.0], -2.5, np.inf, 1.0, -3.5),
    ],
    ids=["max-capped", "min-capped", "max-no-rows", "min-no-rows"],
)
def test_lp_box_only_bounded_optimum(objective, constant, upper, x3, value):
    """No constraint rows: each variable sits at the bound its objective term
    favours. Without an upper bound the problem has no rows at all."""
    lp = LinearProgram(
        objective=np.array(objective),
        a=np.zeros((0, 3)),
        b=np.zeros(0),
        lb=np.array([-1.0, 0.5, 1.0]),
        ub=np.array([np.inf, np.inf, upper]),
        objective_constant=constant,
    )
    res = solve_lp(lp)
    assert res.status == OPTIMAL
    assert np.array_equal(res.x, [-1.0, 0.5, x3])
    assert res.value == value
    assert res.residual == 0.0


@pytest.mark.parametrize(
    "rhs, status",
    [
        ([-1.0], ValueError),  # 0 >= 1, as -0 <= -1
        ([2.0, -2.0], ValueError),  # 0 == 2, as 0 <= 2 and -0 <= -2
        ([-1.0], ValueError),
        ([1.0], OPTIMAL),
        ([0.0, -0.0], OPTIMAL),  # 0 == 0, as 0 <= 0 and -0 <= -0
        ([], OPTIMAL),
    ],
    ids=["ge-1", "eq-2", "le-minus-1", "le-1", "eq-0", "no-rows"],
)
# a minimized constant 2.5 is the maximized constant -2.5, negated
@pytest.mark.parametrize("constant", [2.5, -2.5], ids=["max", "min"])
def test_lp_without_variables_honours_its_rows(rhs, status, constant):
    """An LP with no variables reads each row as 0 <= rhs, a >= row as its
    negation and an == row as a <= and >= pair. A negative rhs (0 <= rhs
    fails at the slack basis) is not the form solve_lp takes and raises
    ValueError; 0 == 0 holds."""

    def build():
        return LinearProgram(
            objective=np.zeros(0),
            a=np.zeros((len(rhs), 0)),
            b=np.array(rhs),
            lb=np.zeros(0),
            ub=np.zeros(0),
            objective_constant=constant,
        )

    if status is ValueError:
        with pytest.raises(ValueError):
            solve_lp(build())
        return
    res = solve_lp(build())
    assert res.status == status
    if status == OPTIMAL:
        assert res.value == constant
        assert res.x.shape == (0,)


def test_lp_variable_upper_bounds():
    lp = LinearProgram(
        objective=np.array([1.0, 1.0]),
        a=np.array([[1.0, 1.0]]),
        b=np.array([10.0]),
        lb=np.array([0.0, 1.0]),
        ub=np.array([2.0, 3.0]),
    )
    res = solve_lp(lp)
    assert res.status == OPTIMAL
    assert res.value == pytest.approx(5.0)
    assert np.allclose(res.x, [2.0, 3.0])


def test_lp_negative_lower_bounds():
    # max x with x >= -2, 1 <= y <= 2 and x + y <= 0 -> x = -1
    lp = LinearProgram(
        objective=np.array([1.0, 0.0]),
        a=np.array([[1.0, 1.0]]),
        b=np.array([0.0]),
        lb=np.array([-2.0, 1.0]),
        ub=np.array([np.inf, 2.0]),
    )
    res = solve_lp(lp)
    assert res.status == OPTIMAL
    assert res.value == pytest.approx(-1.0)


def _random_rows(rng, n: int, m: int, lb: np.ndarray, scale: float = 1.0, margin=0.0):
    """(a, b): m random rows a x <= b over n variables with b - a lb >= 0.
    b is a lb plus margin * sum|a| plus |noise|, so the rows still hold at
    lb after every lower bound rises by up to margin."""
    a, b = np.zeros((m, n)), np.zeros(m)
    for i in range(m):
        a[i] = rng.normal(size=n)
        slack = margin * np.abs(a[i]).sum() + abs(float(rng.normal(scale=scale)))
        b[i] = float(a[i] @ lb) + slack
    return a, b


def _either_sense(rng, n: int) -> np.ndarray:
    """A random objective, negated in half the draws: a minimization
    written as the maximization of its negation."""
    objective = rng.normal(size=n)
    return objective if rng.integers(0, 2) else -objective


def test_lp_residual_certificate_on_random_problems():
    rng = np.random.default_rng(19)
    solved = 0
    for _ in range(120):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, 5))
        objective = _either_sense(rng, n)
        a, b = _random_rows(rng, n, m, np.zeros(n))
        ub = [float(rng.uniform(0.5, 3.0)) for _ in range(n)]
        lp = LinearProgram(objective, a, b, np.zeros(n), ub)
        res = solve_lp(lp)
        if res.status != OPTIMAL:
            continue
        solved += 1
        assert res.residual <= 1e-7
        for coeffs, rhs in zip(lp.a, lp.b):
            assert float(coeffs @ res.x) <= rhs + 1e-6
        for lo, hi, val in zip(lp.lb, lp.ub, res.x):
            assert val >= lo - 1e-8
            assert val <= hi + 1e-8
    assert solved >= 40


def _row_by_row_residual(lp, x):
    """The gate's residual, one row and one bound at a time: the worst row
    violation scaled by max(1, |b|), or bound violation, floored at 0."""
    worst = [0.0]
    for coeffs, b in zip(lp.a, lp.b):
        worst.append((float(coeffs @ x) - b) / max(1.0, abs(b)))
    for lo, hi, val in zip(lp.lb, lp.ub, x):
        worst.append(lo - val)
        if hi < np.inf:
            worst.append(val - hi)
    return max(worst)


def test_lp_gate_residual_matches_row_by_row(monkeypatch):
    """The gate's one matrix-vector residual equals the row-by-row one on
    answers pushed off their vertex (right-hand sides of both signs,
    negative lower bounds, some variables without an upper bound)."""
    rng = np.random.default_rng(83)
    real_read = lp_mod._read_basis

    def nudged_read(*args):
        found = real_read(*args)
        if found is None:
            return None
        values, duals = found
        return values + rng.uniform(-1e-8, 1e-8, len(values)), duals

    monkeypatch.setattr(lp_mod, "_read_basis", nudged_read)
    checked = 0
    for _ in range(80):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 6))
        lb, ub = np.array([(float(rng.uniform(-2.0, 0.0)),
                            np.inf if rng.random() < 0.3 else float(rng.uniform(0.5, 3.0)))
                           for _ in range(n)]).T
        objective = _either_sense(rng, n)
        lp = LinearProgram(objective, *_random_rows(rng, n, m, lb, scale=5.0), lb, ub)
        res = solve_lp(lp)
        if res.status != OPTIMAL:
            continue
        checked += 1
        assert res.residual == pytest.approx(_row_by_row_residual(lp, res.x), rel=1e-9, abs=1e-15)
    assert checked >= 30


def test_lp_gate_rejects_nan_answer(monkeypatch):
    """An answer holding a NaN raises. The row-by-row maximum the gate once
    took skipped NaN (max(0.0, nan) is 0.0) and returned such an answer."""
    real_read = lp_mod._read_basis

    def nan_read(*args):
        found = real_read(*args)
        return None if found is None else (np.where(found[0] > 0, np.nan, found[0]), found[1])

    monkeypatch.setattr(lp_mod, "_read_basis", nan_read)
    with pytest.raises(NumericalFailure, match="residual nan"):
        solve_lp(_textbook_lp())


def test_lp_deterministic_resolve():
    lp_args = dict(
        objective=np.array([1.0, 2.0, -1.0]),
        a=np.array([[1.0, 1.0, 1.0], [-2.0, 1.0, 0.0]]),
        b=np.array([5.0, 1.0]),
        lb=np.zeros(3),
        ub=np.full(3, 4.0),
    )
    a = solve_lp(LinearProgram(**lp_args))
    b = solve_lp(LinearProgram(**lp_args))
    assert a.value == b.value
    assert np.array_equal(a.x, b.x)


def _unit_box(n: int) -> LinearProgram:
    """No rows, every column in [0, 1]."""
    return LinearProgram(np.zeros(n), np.zeros((0, n)), np.zeros(0), np.zeros(n), np.ones(n))


def test_lfp_matches_grid_search():
    # max (x + 1) / (2 - x) for x in [0, 1]: increasing in x -> x = 1, value 2
    lfp = LfpProblem(
        numerator=np.array([1.0]),
        numerator_constant=1.0,
        denominator=np.array([-1.0]),
        denominator_constant=2.0,
        lp=_unit_box(1),
    )
    res = solve_lfp(lfp)
    assert res.status == OPTIMAL
    assert res.value == pytest.approx(2.0)
    assert res.x[0] == pytest.approx(1.0)


def test_lfp_random_against_dense_grid():
    rng = np.random.default_rng(31)
    for _ in range(40):
        n = 2
        num = rng.uniform(-1, 1, n)
        den = rng.uniform(-0.4, 0.4, n)
        den0 = 2.0
        cap = rng.uniform(0.8, 2.0)
        lfp = LfpProblem(
            numerator=num,
            numerator_constant=float(rng.uniform(-0.5, 0.5)),
            denominator=den,
            denominator_constant=den0,
            lp=LinearProgram(np.zeros(n), np.ones((1, n)), [cap], np.zeros(n), np.ones(n)),
        )
        res = solve_lfp(lfp)
        assert res.status == OPTIMAL
        grid = np.linspace(0.0, 1.0, 41)
        best = -np.inf
        for x0 in grid:
            for x1 in grid:
                if x0 + x1 > cap:
                    continue
                x = np.array([x0, x1])
                best = max(best, (num @ x + lfp.numerator_constant) / (den @ x + den0))
        assert res.value >= best - 1e-6
        xa = res.x
        direct = (num @ xa + lfp.numerator_constant) / (den @ xa + den0)
        assert res.value == pytest.approx(direct, abs=1e-7)


def test_lfp_rejects_sign_changing_denominator():
    lfp = LfpProblem(
        numerator=np.array([1.0]),
        numerator_constant=0.0,
        denominator=np.array([-1.0]),
        denominator_constant=0.5,
        lp=_unit_box(1),
    )
    with pytest.raises(DenominatorNotPositive):
        solve_lfp(lfp)


NON_FINITE = "non-finite numerator or denominator"


@pytest.mark.parametrize(
    "field, value, message",
    [("denominator_constant", np.nan, NON_FINITE), ("numerator_constant", np.inf, NON_FINITE),
     ("denominator", np.array([np.nan]), NON_FINITE),
     ("numerator", np.array([-np.inf]), NON_FINITE),
     ("numerator", np.array([1.0, 1.0]), "shape mismatch")],
    ids=["nan-denominator-constant", "inf-numerator-constant", "nan-denominator",
         "inf-numerator", "numerator-too-long"],
)
def test_lfp_rejects_non_finite_data(field, value, message):
    """A NaN denominator constant used to return OPTIMAL with value -inf
    and no x, and an infinite numerator constant or a NaN denominator
    entry to pivot to the iteration cap. A numerator longer than the LP's
    columns is refused as well."""
    data = dict(numerator=np.array([1.0]), numerator_constant=0.0,
                denominator=np.array([0.0]), denominator_constant=1.0, lp=_unit_box(1))
    data[field] = value
    with pytest.raises(ValueError, match=message):
        LfpProblem(**data)


def _printed_cr_form():
    """build_cr_compute's printed form as a LinearProgram over its rows (an
    == budget as a <= and >= pair) and bounds."""
    printed = build_cr_compute(Instance(1.2, None, 3, 1.0, 2.0), {1, 2, 3})
    return LinearProgram(printed.numerator, *le_arrays(printed.constraints, printed.bounds))


BOX3 = (np.zeros(2), np.full(2, 3.0))  # lb and ub of two columns in [0, 3]


@pytest.mark.parametrize(
    "make",
    [
        # x + y >= 1 as -x - y <= -1
        lambda: LinearProgram(np.ones(2), -np.ones((1, 2)), [-1.0], *BOX3),
        # x + y == 1 as x + y <= 1 and -x - y <= -1
        lambda: LinearProgram(np.ones(2), [[1.0, 1.0], [-1.0, -1.0]], [1.0, -1.0], *BOX3),
        # rhs 1 >= 0, but 1 - a.lb = -0.25
        lambda: LinearProgram(-np.ones(2), np.ones((1, 2)), [1.0], [0.5, 0.75], INF2),
        _printed_cr_form,
        lambda: LinearProgram(np.ones(1), np.zeros((0, 1)), [], [1.0], [1.0 - 1e-9]),
        # a has three columns, the objective two
        lambda: LinearProgram(np.ones(2), np.ones((1, 3)), [1.0], *BOX3),
        lambda: LinearProgram(np.ones(2), np.ones((1, 2)), [1.0, 1.0], *BOX3),
        lambda: LinearProgram(np.ones(2), [[np.nan, 1.0]], [1.0], *BOX3),
        lambda: LinearProgram(np.ones(2), np.ones((1, 2)), [np.nan], *BOX3),
    ],
    ids=["ge-row", "eq-row", "negative-shifted-rhs", "printed-cr-form", "inverted-box",
         "a-shape", "b-shape", "nan-a", "nan-b"],
)
def test_lp_takes_only_the_all_le_form(make):
    """LinearProgram takes rows a x <= b with b - a lb >= 0 over a nonempty
    box and nothing else: a >= row (negated), an == row (a <= and >= pair),
    a row that fails at the lower bounds and build_cr_compute's printed form
    (== budgets) raise ValueError when the LP is made instead of being
    answered through a phase 1, as do arrays of mismatched shapes, a NaN in
    a or b and a box inverted by 1e-9, which is not read as a point."""
    with pytest.raises(ValueError):
        make()


def _random_feasible_lps(seed: int, count: int):
    """Seeded random LPs over a box, the ones solve_lp finds optimal. Their
    rows hold at lb, also after each lower bound rises by 0.05."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 6))
        objective = _either_sense(rng, n)
        a, b = _random_rows(rng, n, m, np.zeros(n), margin=0.05)
        ub = [float(rng.uniform(0.5, 3.0)) for _ in range(n)]
        lp = LinearProgram(objective, a, b, np.zeros(n), ub)
        res = solve_lp(lp)
        if res.status == OPTIMAL:
            out.append((lp, res))
    return out


def _assert_same_result(a, b):
    assert a.status == b.status
    assert a.value == b.value
    assert np.array_equal(a.x, b.x)
    assert a.residual == b.residual
    assert np.array_equal(a.basis, b.basis)


def _fresh(lp):
    """A new LinearProgram with lp's current data, so nothing is kept."""
    return LinearProgram(lp.objective.copy(), lp.a, lp.b, lp.lb, lp.ub, lp.objective_constant)


def _counting_pivots(monkeypatch):
    """Patch _Tableau._pivot to record each pivot; returns the pivot list."""
    real_pivot, pivots = lp_mod._Tableau._pivot, []

    def counted(self, p, q):
        pivots.append((p, q))
        return real_pivot(self, p, q)

    monkeypatch.setattr(lp_mod._Tableau, "_pivot", counted)
    return pivots


def test_lp_basis_reuse_matches_cold_under_perturbed_objective(monkeypatch):
    """A re-solve after the objective moved starts from the kept optimal
    tableau and returns the cold optimum of the perturbed problem. Most
    kept bases stay optimal and are re-priced with no pivot; the
    perturbation is large enough that a few are not."""
    pivots = _counting_pivots(monkeypatch)
    rng = np.random.default_rng(7)
    cases = _random_feasible_lps(41, 200)
    assert len(cases) >= 60
    repriced = 0
    for lp, _first in cases:
        lp.objective = lp.objective + 3e-2 * rng.normal(size=lp.num_vars)
        cold = solve_lp(_fresh(lp))
        before = len(pivots)
        warm = solve_lp(lp)
        repriced += len(pivots) == before
        assert warm.status == cold.status == OPTIMAL
        assert warm.value == pytest.approx(cold.value, abs=1e-9)
        assert warm.residual <= 1e-7
        for lo, hi, val in zip(lp.lb, lp.ub, warm.x):
            assert lo - 1e-8 <= val <= hi + 1e-8
    assert len(cases) // 2 <= repriced < len(cases)


def test_lp_basis_reuse_moved_bound_still_certified():
    """Lowering upper bounds through set_upper moves the right-hand side,
    as the anytime bisection's U - floor/pi bound does. Some kept bases turn
    primal infeasible and must fall through to the slack basis; the answer
    always matches the cold solve."""
    rng = np.random.default_rng(43)
    fell_through = 0
    for lp, first in _random_feasible_lps(43, 120):
        lp.set_upper(np.arange(lp.num_vars), float(rng.uniform(0.0, 0.5)))
        primal = primal_feasible_values(lp, first.basis, first.at_upper) is not None
        cold = solve_lp(_fresh(lp))
        warm = solve_lp(lp)
        fell_through += not primal
        assert warm.status == cold.status
        if cold.status == OPTIMAL:
            assert warm.value == pytest.approx(cold.value, abs=1e-9)
            assert warm.residual <= 1e-7
    assert fell_through >= 30


def _textbook_lp():
    # max 3x + 2y s.t. x + y <= 4, x + 3y <= 6; standard-form columns are
    # x, y, s1, s2, and the optimal basis is {x, s2}
    return LinearProgram(
        objective=np.array([3.0, 2.0]),
        a=np.array([[1.0, 1.0], [1.0, 3.0]]),
        b=np.array([4.0, 6.0]),
        lb=np.zeros(2),
        ub=INF2,
    )


@pytest.mark.parametrize(
    "lp, basis",
    [
        # x and y have identical columns, so a basis holding both is singular
        (
            LinearProgram(
                objective=np.array([1.0, 2.0, 0.5]),
                a=np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 0.0]]),
                b=np.array([5.0, 1.0]),
                lb=np.zeros(3),
                ub=np.full(3, np.inf),
            ),
            np.array([0, 1]),
        ),
    ],
    ids=["singular"],
)
def test_lp_unusable_basis_gives_cold_result(lp, basis):
    """A kept tableau labelled with a singular basis shows as drift (its
    B^-1 is not that basis's), its dense re-solve finds no inverse, and the
    solve starts from the slack basis: the answer is the cold one."""
    cold = solve_lp(_fresh(lp))
    assert cold.status == OPTIMAL
    solve_lp(lp)
    lp._tab.basis[:] = basis
    _assert_same_result(solve_lp(lp), cold)


def test_lp_resolve_of_unchanged_lp_pivots_zero_times(monkeypatch):
    """Re-solving an LP whose data did not move re-prices the kept optimal
    tableau: no pivot, no new tableau, and the first answer bit for bit."""
    pivots = _counting_pivots(monkeypatch)
    tableaus = _counting(monkeypatch, "_Tableau")
    cases = _random_feasible_lps(49, 60)
    assert pivots and len(cases) >= 20
    pivots.clear()
    tableaus.clear()
    for lp, first in cases:
        _assert_same_result(solve_lp(lp), first)
    assert not pivots and not tableaus


def test_lp_that_keeps_no_tableau_carries_and_reads_nothing():
    """An LP never solved keeps no tableau: carry_basis from it seeds
    nothing, so the next LP's first solve is the cold one, and
    parametric_vertex has no vertex to read."""
    new = _textbook_lp()
    lp_mod.carry_basis(_textbook_lp(), new, 0)
    assert new._tab is None
    _assert_same_result(solve_lp(new), solve_lp(_textbook_lp()))
    assert lp_mod.parametric_vertex(_textbook_lp(), [0], 4.0, 0.0, 10.0) is None


def test_vertex_bound_meets_the_optimum_and_holds_at_every_pi():
    """Seeded random LPs made members of the certificate's family (column
    0 takes the objective pi, the box [0, top - floor/pi] and the constant
    -pi top): the vertex solved at pi = 1 reads the answer's x as its point
    there and its value as its bound, and its bound at 0.6, 0.8, 1.5 and 3
    is at least the optimum a cold solve finds there.
    The textbook LP's bound, 10 implied for its columns with no upper
    bound, is its optimum, 12."""
    lp = _textbook_lp()
    solve_lp(lp)
    assert lp_mod.parametric_vertex(lp, [], 0.0, 0.0, 10.0)[1](1.0) == pytest.approx(12.0)
    for lp, _first in _random_feasible_lps(53, 60):
        top = float(lp.ub[0])
        floor = 0.25 * top  # so that top - floor/pi >= 0 wherever pi >= 0.25

        def solved(program, pi):
            program.objective[0] = pi
            program.objective_constant = -pi * top
            program.set_upper([0], top - floor / pi)
            return solve_lp(program)

        res = solved(lp, 1.0)
        point, bound = lp_mod.parametric_vertex(lp, [0], top, floor, math.inf)
        assert point[:, 0] + point[:, 1] == pytest.approx(res.x, abs=1e-9)
        assert bound(1.0) == pytest.approx(res.value, abs=1e-8)
        for pi in (0.6, 0.8, 1.5, 3.0):
            assert bound(pi) >= solved(_fresh(lp), pi).value - 1e-9


def _cold(lp):
    """lp with the tableau it keeps dropped, so that its next solve starts
    from the slack basis on its standard form."""
    lp._tab = None
    return lp


def test_lp_set_upper_resolve_matches_fresh_build():
    """Upper bounds moved through set_upper after a solve, then re-solved on
    the kept standard form: from the slack basis, the answer equals that of
    a new LinearProgram built with those bounds, bit for bit, and from the
    kept tableau it matches it within 1e-9."""
    rng = np.random.default_rng(53)
    cases = _random_feasible_lps(57, 120)
    assert len(cases) >= 40
    for lp, _first in cases:
        n = lp.num_vars
        for _move in range(3):
            cols = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
            hi = float(rng.uniform(0.0, 3.0))
            lp.set_upper(cols, hi)
            assert lp.ub[cols].tolist() == [hi] * len(cols)
            fresh = solve_lp(_fresh(lp))
            moved = solve_lp(lp)
            assert moved.status == fresh.status
            if fresh.status == OPTIMAL:
                assert moved.value == pytest.approx(fresh.value, abs=1e-9)
                _assert_same_result(solve_lp(_cold(lp)), fresh)


@pytest.mark.parametrize(
    "objective, constant",
    [([np.nan, 1.0], 0.0), ([np.inf, 1.0], 0.0), ([1.0, 1.0], np.nan)],
    ids=["nan-objective", "inf-objective", "nan-constant"],
)
def test_lp_rejects_non_finite_objective(objective, constant):
    """A NaN objective used to pivot to the iteration cap, an infinite one to
    return OPTIMAL with value inf, and a NaN constant OPTIMAL with value nan."""
    with pytest.raises(ValueError, match="non-finite objective"):
        LinearProgram(np.array(objective), [[1.0, 1.0]], [4.0], np.zeros(2), INF2,
                      objective_constant=constant)


@pytest.mark.parametrize(
    "lb, ub",
    [([0.0, 0.0], [np.nan, 1.0]), ([0.0, 0.0], [-np.inf, 1.0]), ([np.nan, 0.0], [1.0, 1.0]),
     ([-np.inf, 0.0], [1.0, 1.0])],
    ids=["nan-upper", "minus-inf-upper", "nan-lower", "minus-inf-lower"],
)
def test_lp_rejects_non_finite_bound(lb, ub):
    """A NaN upper bound used to fail inside numpy at solve time. An upper
    bound of +inf marks a column with no upper bound; -inf, and any
    non-finite lower bound, is rejected."""
    with pytest.raises(ValueError, match="non-finite bound"):
        LinearProgram(np.array([1.0, 1.0]), [[1.0, 1.0]], [4.0], lb, ub)


@pytest.mark.parametrize(
    "cols, hi, message",
    [
        ([0], np.nan, "non-finite upper bound"),
        ([0], np.inf, "non-finite upper bound"),
        ([0, 1], -0.5, "empty box"),
        # a box inverted by less than the feasibility tolerance is empty too
        ([1], -1e-9, "empty box"),
        # column 2 has no upper bound to move
        ([2], 1.5, "no upper bound"),
        ([0, 2], 1.5, "no upper bound"),
    ],
    ids=["nan", "inf", "inverted", "inverted-by-1e-9", "unbounded-column",
         "with-unbounded-column"],
)
def test_lp_set_upper_rejects_non_finite(cols, hi, message):
    """set_upper checks hi and cols before it moves anything, on a solved
    LP: a non-finite hi, a hi below a lower bound and a column with no upper
    bound raise ValueError and leave lb, ub and the next answer as they
    were."""
    lp = LinearProgram(np.array([1.0, 1.0, 1.0]), [[1.0, 2.0, 1.0]], [4.0], np.zeros(3),
                       [2.0, 3.0, np.inf])
    before = solve_lp(lp)
    with pytest.raises(ValueError, match=message):
        lp.set_upper(cols, hi)
    assert lp.lb.tolist() == [0.0, 0.0, 0.0] and lp.ub.tolist() == [2.0, 3.0, np.inf]
    _assert_same_result(solve_lp(lp), before)


def _counting(monkeypatch, name):
    """Patch lp_mod.<name> to record each call; returns the call list."""
    real, calls = getattr(lp_mod, name), []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(lp_mod, name, counted)
    return calls


def _fresh_read(lp, res):
    """x as _read_basis reads it from a fresh _factorized tableau of lp's
    standard form at res's vertex, mapped back to lp's variables."""
    side = np.ones(lp._tab.n)
    side[res.at_upper] = -1.0
    vertex = lp_mod._Tableau(np.zeros((lp._tab.m + 1, lp._tab.n + 1)), res.basis, side)
    fresh = copy.copy(lp)
    fresh._tab = lp_mod._factorized(lp, vertex)
    rhs = lp_mod._net_rhs(fresh, side, lp_mod._upper(lp))
    values, _duals = lp_mod._read_basis(fresh, rhs, np.zeros(len(res.basis)))
    return lp_mod._optimal_result(fresh, values).x


def _assert_answers_as_cold(res, cold, lp):
    """res has cold's status and vertex, its value to 1e-9, and the x a
    fresh factorization at that vertex reads."""
    assert res.status == cold.status == OPTIMAL
    assert np.array_equal(res.basis, cold.basis)
    assert np.array_equal(res.at_upper, cold.at_upper)
    assert res.value == pytest.approx(cold.value, abs=1e-9)
    assert np.array_equal(res.x, _fresh_read(lp, res))


def test_lp_drifted_tableau_is_refactorized(monkeypatch):
    """Noise written into a kept tableau shows in the refinement residual:
    the next solve drops that tableau, refactorizes B by one dense solve,
    and answers as a cold solve does: with its basis and a fresh
    factorization's x when the kept basis is still optimal, and to 1e-9
    after pivoting under a moved objective."""
    factorized = _counting(monkeypatch, "_factorized")
    rng = np.random.default_rng(61)
    cases = _random_feasible_lps(67, 80)
    assert len(cases) >= 30
    for lp, _first in cases:
        for moved in (False, True):
            tab = lp._tab
            tab.t[: tab.m, : tab.n] += rng.normal(scale=1e-6, size=(tab.m, tab.n))
            if moved:
                lp.objective = lp.objective + 3e-2 * rng.normal(size=lp.num_vars)
            before = len(factorized)
            res = solve_lp(lp)
            assert len(factorized) == before + 1
            assert kept_tableau_gap(lp) <= 1e-9
            cold = solve_lp(_fresh(lp))
            if moved:
                assert res.status == cold.status == OPTIMAL
                assert res.value == pytest.approx(cold.value, abs=1e-9)
            else:
                _assert_answers_as_cold(res, cold, lp)


def test_lp_drift_while_pivoting_is_refactorized(monkeypatch):
    """Noise written into the tableau the simplex stops at shows in the
    refinement residual of the answer's read: the solve refactorizes B by
    one dense solve before x is read, and answers as a cold solve does."""
    cases = _random_feasible_lps(71, 80)
    assert len(cases) >= 30
    rng = np.random.default_rng(73)
    real_run = lp_mod._Tableau.run

    def noisy_run(self, upper, max_iter):
        status = real_run(self, upper, max_iter)
        self.t[: self.m, : self.n] += rng.normal(scale=1e-6, size=(self.m, self.n))
        return status

    monkeypatch.setattr(lp_mod._Tableau, "run", noisy_run)
    factorized = _counting(monkeypatch, "_factorized")
    for lp, cold in cases:
        res = solve_lp(_cold(lp))
        assert len(factorized) == 1
        assert kept_tableau_gap(lp) <= 1e-9
        _assert_answers_as_cold(res, cold, lp)
        factorized.clear()


def _outer_pivot(t, p, q):
    """The pivot on (p, q) as one rank-1 update of the whole tableau: the
    reference _Tableau._pivot confines to the rows and columns it touches."""
    t = t.copy()
    t[p] = t[p] / t[p, q]
    col = t[:, q].copy()
    col[p] = 0.0
    t -= np.outer(col, t[p])
    t[:, q] = 0.0
    t[p, q] = 1.0
    return t


def test_confined_pivot_equals_full_outer_update():
    """On random tableaus with zero rows and columns at the edges and zeros
    inside, the pivot's update confined to the slice between the first and
    last nonzero of the pivot column and of the pivot row leaves every entry
    equal (==) to the update of the whole tableau, also for a pivot column
    with no nonzero off the pivot row."""
    rng = np.random.default_rng(79)
    lone = 0
    for case in range(300):
        m, n = int(rng.integers(1, 12)), int(rng.integers(1, 16))
        t = rng.normal(size=(m + 1, n + 1)) * (rng.random((m + 1, n + 1)) < 0.6)
        t[: int(rng.integers(0, m + 1))] = 0.0  # leading zero rows
        t[:, : int(rng.integers(0, n + 1))] = 0.0  # leading zero columns
        t[m + 1 - int(rng.integers(0, 3)):] = 0.0  # trailing zero rows
        t[:, n + 1 - int(rng.integers(0, 3)):] = 0.0  # trailing zero columns
        p, q = int(rng.integers(0, m)), int(rng.integers(0, n))
        t[p, q] = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
        if case % 5 == 0:  # a pivot column with no nonzero off row p
            t[:, q] = 0.0
            t[p, q] = 2.0
        lone += not np.delete(t[:, q], p).any()
        tab = lp_mod._Tableau(t.copy(), np.arange(n, n + m))
        tab._pivot(p, q)
        assert (tab.t == _outer_pivot(t, p, q)).all()
        assert tab.basis[p] == q
    assert lone >= 60


def test_pricing_picks_the_steepest_edge_column(monkeypatch):
    """Column 0 has the largest reduced cost (Dantzig's choice), but its
    tableau column is long: c_j^2 / (1 + |B^-1 a_j|^2) is 4/26 there and
    2.25/2 in columns 1 and 2, so the simplex enters column 1, the lower
    index of the tie."""
    pivots = _counting_pivots(monkeypatch)
    t = np.array([[3.0, 1.0, 0.0, 1.0, 0.0, 6.0],
                  [4.0, 0.0, 1.0, 0.0, 1.0, 8.0],
                  [2.0, 1.5, 1.5, 0.0, 0.0, 0.0]])
    tab = lp_mod._Tableau(t, np.array([3, 4]))
    assert tab.run(np.full(5, np.inf), 100) == OPTIMAL
    assert pivots[0] == (0, 1)


def test_t20_day_pivots_stay_below_dantzig_rule(monkeypatch):
    """optimal_cr plus run_anytime on the rate-free T=20 day (day 0 of a
    seed-7 volatile set at c = 0.1 of the mean daily energy) take at most
    0.6 x 4,370 pivots; Dantzig's rule took 4,446."""
    pivots = _counting_pivots(monkeypatch)
    days = synthetic_volatile_profiles(2, 20, 100.0, 400.0, seed=7)
    inst = days.instance(0.1 * days.avg_daily_energy, None)
    run_anytime(inst, DemandProfile(inst, days.day_values[0]))
    assert len(pivots) <= 0.6 * 4370


def _recording_steps(monkeypatch):
    """Patch _Tableau._pivot and _flip to record each simplex step as
    ("pivot", entering column, its side, leaving column) or ("flip",
    column, its side), the side (+1 at the lower bound, -1 at the upper)
    taken before the step; returns the step list."""
    real_pivot, real_flip, steps = lp_mod._Tableau._pivot, lp_mod._Tableau._flip, []

    def pivot(self, p, q):
        steps.append(("pivot", q, self.side[q], int(self.basis[p])))
        return real_pivot(self, p, q)

    def flip(self, q, width):
        steps.append(("flip", q, self.side[q]))
        return real_flip(self, q, width)

    monkeypatch.setattr(lp_mod._Tableau, "_pivot", pivot)
    monkeypatch.setattr(lp_mod._Tableau, "_flip", flip)
    return steps


def test_bound_flips_leave_the_basis_unchanged(monkeypatch):
    """max x + 2y over x + y <= 10, x in [0, 1], y in [0, 3]: each column
    reaches its own upper bound before the row binds, so each flips there
    (y first, the steeper edge) and the slack stays the one basic column,
    with no pivot."""
    steps = _recording_steps(monkeypatch)
    lp = LinearProgram(np.array([1.0, 2.0]), [[1.0, 1.0]], [10.0], np.zeros(2), [1.0, 3.0])
    res = solve_lp(lp)
    assert steps == [("flip", 1, 1.0), ("flip", 0, 1.0)]
    assert res.basis.tolist() == [2] and res.at_upper.tolist() == [0, 1]
    assert res.x.tolist() == [1.0, 3.0] and res.value == 7.0


def test_column_enters_from_its_upper_bound(monkeypatch):
    """max x + y over y - x <= 0, x in [0, 2], y in [0, 1] ends with both
    columns flipped to their upper bounds. Re-solved for max -x + 3y, x
    improves only by falling from its upper bound: it enters from there and
    the row's slack leaves at 0 after a fall of 1, short of x's width 2, so
    x = y = 1 with y still at its upper bound."""
    steps = _recording_steps(monkeypatch)
    lp = LinearProgram(np.array([1.0, 1.0]), [[-1.0, 1.0]], [0.0], np.zeros(2), [2.0, 1.0])
    first = solve_lp(lp)
    assert [s[0] for s in steps] == ["flip", "flip"] and first.at_upper.tolist() == [0, 1]
    steps.clear()
    lp.objective = np.array([-1.0, 3.0])
    res = solve_lp(lp)
    assert steps == [("pivot", 0, -1.0, 2)]
    assert res.basis.tolist() == [0] and res.at_upper.tolist() == [1]
    assert res.x == pytest.approx([1.0, 1.0], abs=1e-12)
    assert res.value == pytest.approx(2.0, abs=1e-12)


def test_basic_variable_leaves_at_its_upper_bound(monkeypatch):
    """max x over x - y <= 0, x in [0, 0.5], y in [0, 1]: x enters at 0 (a
    degenerate pivot on the row), then y enters and lifts the basic x,
    which reaches its upper bound 0.5 before y reaches its own 1, so x
    leaves at its upper bound and y = 0.5 is basic."""
    steps = _recording_steps(monkeypatch)
    lp = LinearProgram(np.array([1.0, 0.0]), [[1.0, -1.0]], [0.0], np.zeros(2), [0.5, 1.0])
    res = solve_lp(lp)
    assert steps == [("pivot", 0, 1.0, 2), ("pivot", 1, 1.0, 0)]
    assert res.basis.tolist() == [1] and res.at_upper.tolist() == [0]
    assert res.x.tolist() == [0.5, 0.5] and res.value == 0.5


def test_bland_fallback_reaches_optimal_across_a_refactorization(monkeypatch):
    """A degenerate LP (every right-hand side 0 but the last) with the
    degeneracy streak cut to 3 steps: once Bland's rule takes over, the
    tableau is replaced in place by a fresh dense factorization at its
    vertex, and every later step of the streak still enters the lowest
    eligible column, the stall count carried across the refactorization,
    until the simplex reaches the optimum an unpatched solve finds."""
    a = [[0.0, 0.0, 0.0, -1.0, 3.0], [-1.0, 1.0, -1.0, 0.0, 3.0], [-2.0, 1.0, -1.0, 1.0, 2.0],
         [-1.0, 1.0, 1.0, 0.0, -3.0], [1.0, -3.0, 3.0, 2.0, 2.0], [-3.0, 3.0, 3.0, 1.0, 2.0]]
    b, ub = [0.0] * 5 + [2.0], [np.inf, 2.0, 2.0, np.inf, 2.0]
    objective = np.array([0.0, 1.0, 2.0, -3.0, 2.0])
    expected = solve_lp(LinearProgram(objective, a, b, np.zeros(5), ub))
    lp = LinearProgram(objective, a, b, np.zeros(5), ub)
    monkeypatch.setattr(lp_mod, "STALL_STEPS", 3)
    real_pivot, real_flip = lp_mod._Tableau._pivot, lp_mod._Tableau._flip
    stall, refactored, checked = [0], [], []

    def step(tab, q, call):
        t, m, n = tab.t, tab.m, tab.n
        eligible = np.flatnonzero(t[m, :n] * tab.side > lp_mod.PIVOT_TOL)
        bland, before = stall[0] >= lp_mod.STALL_STEPS, t[m, n]
        if bland and refactored:
            checked.append(q == eligible[0])
        call()
        stall[0] = 0 if before - t[m, n] > 1e-12 else stall[0] + 1
        if bland and not refactored:
            refactored.append(True)
            t[:m, :n] = lp_mod._factorized(lp, tab).t[:m, :n]

    monkeypatch.setattr(lp_mod._Tableau, "_pivot",
                        lambda tab, p, q: step(tab, q, lambda: real_pivot(tab, p, q)))
    monkeypatch.setattr(lp_mod._Tableau, "_flip",
                        lambda tab, q, w: step(tab, q, lambda: real_flip(tab, q, w)))
    res = solve_lp(lp)
    assert refactored and len(checked) >= 2 and all(checked)
    assert res.status == OPTIMAL
    assert res.value == pytest.approx(expected.value, abs=1e-12)
    assert res.x == pytest.approx(expected.x, abs=1e-12)
