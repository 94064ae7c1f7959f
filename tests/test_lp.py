"""Dense simplex and the linear-fractional reduction."""

import numpy as np
import pytest

import peakmin.lp as lp_mod
from peakmin.errors import DenominatorNotPositive
from peakmin.lp import (
    EQ,
    GE,
    INFEASIBLE,
    LE,
    OPTIMAL,
    UNBOUNDED,
    LfpProblem,
    LinearProgram,
    dump_lp,
    solve_lfp,
    solve_lp,
)


def test_lp_textbook_maximize():
    # max 3x + 2y s.t. x + y <= 4, x + 3y <= 6, x,y >= 0 -> (4, 0), value 12
    lp = LinearProgram(
        objective=np.array([3.0, 2.0]),
        maximize=True,
        constraints=[(np.array([1.0, 1.0]), LE, 4.0), (np.array([1.0, 3.0]), LE, 6.0)],
    )
    res = solve_lp(lp)
    assert res.status == OPTIMAL
    assert res.value == pytest.approx(12.0)
    assert np.allclose(res.x, [4.0, 0.0])


def test_lp_minimize_with_equality_and_ge():
    # min x + y s.t. x + 2y == 3, x >= 0.5 -> (0.5, 1.25), value 1.75
    lp = LinearProgram(
        objective=np.array([1.0, 1.0]),
        maximize=False,
        constraints=[(np.array([1.0, 2.0]), EQ, 3.0), (np.array([1.0, 0.0]), GE, 0.5)],
    )
    res = solve_lp(lp)
    assert res.status == OPTIMAL
    assert res.value == pytest.approx(1.75)


def test_lp_infeasible_detected():
    lp = LinearProgram(
        objective=np.array([1.0]),
        maximize=True,
        constraints=[(np.array([1.0]), GE, 2.0), (np.array([1.0]), LE, 1.0)],
    )
    assert solve_lp(lp).status == INFEASIBLE


def test_lp_unbounded_detected():
    lp = LinearProgram(objective=np.array([1.0]), maximize=True, constraints=[])
    assert solve_lp(lp).status == UNBOUNDED


def test_lp_variable_upper_bounds():
    lp = LinearProgram(
        objective=np.array([1.0, 1.0]),
        maximize=True,
        constraints=[(np.array([1.0, 1.0]), LE, 10.0)],
        bounds=[(0.0, 2.0), (1.0, 3.0)],
    )
    res = solve_lp(lp)
    assert res.status == OPTIMAL
    assert res.value == pytest.approx(5.0)
    assert np.allclose(res.x, [2.0, 3.0])


def test_lp_negative_lower_bounds():
    # min x with x >= -2 and x + y >= 0, y <= 1
    lp = LinearProgram(
        objective=np.array([1.0, 0.0]),
        maximize=False,
        constraints=[(np.array([1.0, 1.0]), GE, 0.0)],
        bounds=[(-2.0, None), (0.0, 1.0)],
    )
    res = solve_lp(lp)
    assert res.status == OPTIMAL
    assert res.value == pytest.approx(-1.0)


def test_lp_residual_certificate_on_random_problems():
    rng = np.random.default_rng(19)
    solved = 0
    for _ in range(120):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, 5))
        lp = LinearProgram(
            objective=rng.normal(size=n),
            maximize=bool(rng.integers(0, 2)),
            constraints=[
                (rng.normal(size=n), rng.choice([LE, GE, EQ]), float(rng.normal()))
                for _ in range(m)
            ],
            bounds=[(0.0, float(rng.uniform(0.5, 3.0))) for _ in range(n)],
        )
        res = solve_lp(lp)
        if res.status != OPTIMAL:
            continue
        solved += 1
        assert res.residual <= 1e-7
        for coeffs, rel, rhs in lp.constraints:
            lhs = float(coeffs @ res.x)
            if rel == LE:
                assert lhs <= rhs + 1e-6
            elif rel == GE:
                assert lhs >= rhs - 1e-6
            else:
                assert lhs == pytest.approx(rhs, abs=1e-6)
        for (lo, hi), val in zip(lp.bounds, res.x):
            assert val >= lo - 1e-8
            assert hi is None or val <= hi + 1e-8
    assert solved >= 40


def test_lp_deterministic_resolve():
    lp_args = dict(
        objective=np.array([1.0, 2.0, -1.0]),
        maximize=True,
        constraints=[
            (np.array([1.0, 1.0, 1.0]), LE, 5.0),
            (np.array([2.0, -1.0, 0.0]), GE, -1.0),
        ],
        bounds=[(0.0, 4.0)] * 3,
    )
    a = solve_lp(LinearProgram(**lp_args))
    b = solve_lp(LinearProgram(**lp_args))
    assert a.value == b.value
    assert np.array_equal(a.x, b.x)


def test_lfp_matches_grid_search():
    # max (x + 1) / (2 - x) for x in [0, 1]: increasing in x -> x = 1, value 2
    lfp = LfpProblem(
        numerator=np.array([1.0]),
        numerator_constant=1.0,
        denominator=np.array([-1.0]),
        denominator_constant=2.0,
        constraints=[],
        bounds=[(0.0, 1.0)],
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
            constraints=[(np.ones(n), LE, cap)],
            bounds=[(0.0, 1.0)] * n,
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
        constraints=[],
        bounds=[(0.0, 1.0)],
    )
    with pytest.raises(DenominatorNotPositive):
        solve_lfp(lfp)


def test_dump_lp_is_readable():
    lp = LinearProgram(
        objective=np.array([1.0, -1.0]),
        maximize=True,
        constraints=[(np.array([1.0, 1.0]), LE, 2.0)],
        variable_names=("a", "b"),
    )
    text = dump_lp(lp)
    assert "maximize" in text
    assert "a" in text and "b" in text


def _random_feasible_lps(seed: int, count: int):
    """Seeded random LPs over a box, the ones solve_lp finds optimal."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 6))
        lp = LinearProgram(
            objective=rng.normal(size=n),
            maximize=bool(rng.integers(0, 2)),
            constraints=[
                (rng.normal(size=n), rng.choice([LE, GE, EQ]), float(rng.normal()))
                for _ in range(m)
            ],
            bounds=[(0.0, float(rng.uniform(0.5, 3.0))) for _ in range(n)],
        )
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


def test_lp_basis_reuse_matches_cold_under_perturbed_objective(monkeypatch):
    """A re-solve handed the previous optimal basis returns the cold optimum of
    the perturbed problem. Most hints are re-priced without a tableau; the
    perturbation is large enough that a few are not."""
    tableaus = []
    real_tableau = lp_mod._Tableau

    def counting_tableau(*args):
        tableaus.append(1)
        return real_tableau(*args)

    monkeypatch.setattr(lp_mod, "_Tableau", counting_tableau)
    rng = np.random.default_rng(7)
    cases = _random_feasible_lps(41, 200)
    assert len(cases) >= 60
    repriced = 0
    for lp, first in cases:
        moved = LinearProgram(
            objective=lp.objective + 3e-2 * rng.normal(size=lp.num_vars),
            maximize=lp.maximize,
            constraints=lp.constraints,
            bounds=lp.bounds,
        )
        cold = solve_lp(moved)
        before = len(tableaus)
        warm = solve_lp(moved, basis=first.basis)
        repriced += len(tableaus) == before
        assert warm.status == cold.status == OPTIMAL
        assert warm.value == pytest.approx(cold.value, abs=1e-9)
        assert warm.residual <= 1e-7
        for (lo, hi), val in zip(lp.bounds, warm.x):
            assert lo - 1e-8 <= val <= hi + 1e-8
    assert len(cases) // 2 <= repriced < len(cases)


def test_lp_basis_reuse_moved_bound_still_certified():
    """Moving a lower bound shifts the right-hand side, as the anytime
    bisection's floor/pi bound does. Some old bases turn primal infeasible
    and must fall through; the answer always matches the cold solve."""
    for lp, first in _random_feasible_lps(43, 120):
        moved = LinearProgram(
            objective=lp.objective,
            maximize=lp.maximize,
            constraints=lp.constraints,
            bounds=[(lo + 0.05, hi) for lo, hi in lp.bounds],
        )
        cold = solve_lp(moved)
        warm = solve_lp(moved, basis=first.basis)
        assert warm.status == cold.status
        if cold.status == OPTIMAL:
            assert warm.value == pytest.approx(cold.value, abs=1e-9)
            assert warm.residual <= 1e-7


def _textbook_lp():
    # max 3x + 2y s.t. x + y <= 4, x + 3y <= 6; standard-form columns are
    # x, y, s1, s2, and the optimal basis is {x, s2}
    return LinearProgram(
        objective=np.array([3.0, 2.0]),
        maximize=True,
        constraints=[(np.array([1.0, 1.0]), LE, 4.0), (np.array([1.0, 3.0]), LE, 6.0)],
    )


@pytest.mark.parametrize(
    "basis",
    [
        np.array([0, 3, 2]),  # wrong length
        np.array([0]),  # wrong length
        np.array([0, 0]),  # duplicate index
        np.array([0, 9]),  # index past the last column
        np.array([-1, 0]),  # negative index
        np.array([0.0, 3.0]),  # not integers
        np.array([0, 2]),  # basic values x = 6, s1 = -2: primal infeasible
        np.array([2, 3]),  # slack basis: feasible but not optimal
    ],
    ids=["long", "short", "duplicate", "out-of-range", "negative", "float",
         "infeasible", "not-optimal"],
)
def test_lp_garbage_basis_gives_cold_result(basis):
    lp = _textbook_lp()
    cold = solve_lp(lp)
    assert np.array_equal(np.sort(cold.basis), [0, 3])
    _assert_same_result(solve_lp(lp, basis=basis), cold)


@pytest.mark.parametrize(
    "lp, basis",
    [
        # x and y have identical columns, so a basis holding both is singular
        (
            LinearProgram(
                objective=np.array([1.0, 2.0, 0.5]),
                maximize=True,
                constraints=[
                    (np.array([1.0, 1.0, 1.0]), LE, 5.0),
                    (np.array([1.0, 1.0, 0.0]), GE, 1.0),
                ],
            ),
            np.array([0, 1]),
        ),
        # min x s.t. x == 1: the artificial-only basis is dual feasible, but
        # its artificial sits at 1 and leaves the equality unmet
        (
            LinearProgram(
                objective=np.array([1.0]),
                maximize=False,
                constraints=[(np.array([1.0]), EQ, 1.0)],
            ),
            np.array([1]),
        ),
    ],
    ids=["singular", "basic-artificial"],
)
def test_lp_unusable_basis_gives_cold_result(lp, basis):
    cold = solve_lp(lp)
    assert cold.status == OPTIMAL
    _assert_same_result(solve_lp(lp, basis=basis), cold)


def test_lp_random_basis_gives_cold_result_unless_optimal():
    """Random bases, basic artificials included, on problems with >= and ==
    rows: any accepted basis must be optimal, any other gives the cold result."""
    rng = np.random.default_rng(47)
    for lp, cold in _random_feasible_lps(45, 60):
        m = len(cold.basis)
        for _ in range(3):
            basis = rng.permutation(np.arange(lp.num_vars + 2 * m))[:m]
            res = solve_lp(lp, basis=basis)
            if np.array_equal(res.basis, basis):
                assert res.value == pytest.approx(cold.value, abs=1e-9)
            else:
                _assert_same_result(res, cold)

