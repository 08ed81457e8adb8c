import numpy as np
import pytest

from amplan import qp
from oracles import array_qp_solve, kkt_residuals, qp_enumeration, qp_solution, qp_solve


def random_problem(rng, n=None, m=None, m_max=12, slack=2.0):
    """With m_max=12 and slack=1.0, the draws of acceptance criterion 9."""
    n = n or rng.integers(2, 10)
    m = m if m is not None else rng.integers(1, m_max + 1)
    M = rng.normal(size=(n, n))
    H = M @ M.T + n * np.eye(n)
    g = rng.normal(size=n)
    A = rng.normal(size=(m, n))
    # feasible by construction: some interior point x0 strictly satisfies all rows
    x0 = rng.normal(size=n)
    b = A @ x0 + rng.uniform(0.1, slack, size=m)
    return qp.QpProblem(H, g, A, b)


def test_unconstrained():
    c = np.array([1.0, -2.0, 0.5])
    sol = qp_solve(qp.QpProblem(np.eye(3), -c, np.zeros((0, 3)), np.zeros(0)))
    assert sol.status == "optimal"
    np.testing.assert_allclose(sol.x, c, atol=1e-12)


def test_1d_active_constraint():
    # min (x-1)^2 s.t. x <= 0  ->  x = 0 with dual 2
    sol = qp_solve(qp.QpProblem([[2.0]], [-2.0], [[1.0]], [0.0]))
    assert sol.status == "optimal"
    assert sol.x[0] == pytest.approx(0.0, abs=1e-10)
    assert sol.duals[0] == pytest.approx(2.0, abs=1e-8)


def test_matches_enumeration_oracle(rng):
    for _ in range(50):
        prob = random_problem(rng)
        sol = qp_solve(prob)
        assert sol.status == "optimal"
        obj = 0.5 * sol.x @ prob.H @ sol.x + prob.g @ sol.x
        best_obj, _ = qp_enumeration(prob.H, prob.g, prob.A, prob.b)
        assert obj == pytest.approx(best_obj, abs=1e-6)


def test_kkt_residuals_on_optimal(rng):
    for _ in range(30):
        prob = random_problem(rng)
        sol = qp_solve(prob)
        primal, stat, comp = kkt_residuals(prob, sol)
        assert primal <= 1e-7
        assert stat <= 1e-6
        assert comp <= 1e-6
        assert np.all(sol.duals >= 0.0)


def test_scaling_invariance(rng):
    prob = random_problem(rng, n=5, m=8)
    sol1 = qp_solve(prob)
    scaled = qp.QpProblem(7.5 * prob.H, 7.5 * prob.g, prob.A, prob.b)
    sol2 = qp_solve(scaled)
    np.testing.assert_allclose(sol1.x, sol2.x, atol=1e-8)


def test_determinism(rng):
    prob = random_problem(rng, n=6, m=10)
    a = qp_solve(prob)
    b = qp_solve(prob)
    assert np.array_equal(a.x, b.x)
    assert a.active_set == b.active_set


def test_feasible_draws_are_solved_optimally(rng):
    # criterion 9's distribution at 3,000 draws and up to 24 rows: every
    # problem has a strictly feasible point, so any other status is false
    for _ in range(3000):
        prob = random_problem(rng, m_max=24, slack=1.0)
        sol = qp_solve(prob)
        assert sol.status == "optimal"
        assert max(kkt_residuals(prob, sol)) <= 1e-6
        if len(prob.b) <= 12:
            obj = 0.5 * sol.x @ prob.H @ sol.x + prob.g @ sol.x
            best_obj, _ = qp_enumeration(prob.H, prob.g, prob.A, prob.b)
            assert abs(obj - best_obj) <= 1e-6 * max(1.0, abs(best_obj))


def test_infeasible_draws_are_proven_infeasible(rng):
    # a row and its negation, offset so that no point satisfies both, among
    # criterion 9's feasible rows: a status of max_iter would prove nothing
    for _ in range(300):
        prob = random_problem(rng, slack=1.0)
        a, beta = rng.normal(size=len(prob.g)), rng.normal()
        A = np.vstack([prob.A, a, -a])
        b = np.concatenate([prob.b, [beta, -beta - 0.5]])
        assert qp_solve(qp.QpProblem(prob.H, prob.g, A, b)).status == "infeasible"


def test_infeasible_detected():
    # x <= -1 and -x <= -1 cannot both hold
    sol = qp_solve(qp.QpProblem([[2.0]], [0.0], [[1.0], [-1.0]], [-1.0, -1.0]))
    assert sol.status == "infeasible"


def test_dimension_errors():
    with pytest.raises(qp.QpDimensionError):
        qp.QpProblem(np.eye(20), np.zeros(20), np.zeros((0, 20)), np.zeros(0))
    with pytest.raises(qp.QpDimensionError):
        qp.QpProblem(np.eye(3), np.zeros(3), np.zeros((65, 3)), np.zeros(65))
    H = np.eye(2)
    H[0, 1] = 1e-3
    with pytest.raises(qp.QpDimensionError):
        qp.QpProblem(H, np.zeros(2), np.zeros((0, 2)), np.zeros(0))


def test_regularization_of_near_singular_hessian():
    H = np.diag([1.0, 0.0])
    prob = qp.QpProblem(H, np.array([0.0, 0.0]), np.zeros((0, 2)), np.zeros(0))
    assert np.linalg.eigvalsh(prob.H).min() > 0.0
    sol = qp_solve(prob)
    assert sol.status == "optimal"


def box_problem(g=None, A=None, b=None):
    """min x'x + g'x over the box |x_i| <= 1 in 9 dimensions, as outer_loop's
    QP has 9 variables; None keeps g = 1, the box rows and b = 1."""
    n = 9
    return qp.QpProblem(2.0 * np.eye(n), np.ones(n) if g is None else g,
                        np.vstack([np.eye(n), -np.eye(n)]) if A is None else A,
                        np.ones(2 * n) if b is None else b)


@pytest.mark.parametrize("field", ["g", "A", "b"])
def test_nan_data_raises(field):
    # a NaN used to crash the step (g, b) or to report infeasible (A)
    prob = box_problem()
    getattr(prob, field).flat[5] = np.nan
    with pytest.raises(qp.QpDimensionError, match="NaN"):
        qp_solve(prob)


def test_nan_g_without_rows_raises():
    # with no rows a NaN in g reached no residual: it came back optimal, x all NaN
    prob = qp.QpProblem(2.0 * np.eye(3), [np.nan, 1.0, 1.0], np.zeros((0, 3)), np.zeros(0))
    with pytest.raises(qp.QpDimensionError, match="NaN"):
        qp_solve(prob)


def test_infinite_bounds():
    # +inf is no bound; -inf no x meets, so the rows are infeasible
    g = np.zeros(9)
    g[0] = -4.0                 # the unconstrained minimiser has x_0 = 2 > 1
    b = np.ones(18)
    b[0] = np.inf
    sol = qp_solve(box_problem(g=g, b=b))
    assert sol.status == "optimal" and sol.x[0] == pytest.approx(2.0) and sol.active_set == ()
    b[0], b[10] = 1.0, -np.inf
    assert qp_solve(box_problem(g=g, b=b)).status == "infeasible"


def test_matches_the_array_form(rng):
    # np.dot reaches the BLAS routines of @ on the same operands: byte for
    # byte the solution, duals and path of the @ form
    statuses = set()
    for i in range(1000):
        prob = random_problem(rng)
        g, A, b = prob.g, prob.A, prob.b
        if i % 5 == 0:      # rows that mostly cannot all hold
            A = np.vstack([A, -A])
            b = np.concatenate([b, -b - rng.uniform(0.1, 1.0, b.size)])
        sol, ref = qp_solution(len(b), *qp.solve(prob, g, A, b)), array_qp_solve(prob, g, A, b)
        statuses.add(sol.status)
        assert sol.x.tobytes() == ref.x.tobytes() and sol.duals.tobytes() == ref.duals.tobytes()
        assert (sol.status, sol.iterations, sol.active_set) == (
            ref.status, ref.iterations, ref.active_set)
    assert statuses == {"optimal", "infeasible"}


def test_fast_exit_is_the_active_set_path(rng):
    # where no row is violated at the unconstrained minimiser, solve returns
    # it at once: bit for bit the x, and the empty active set, of the @ form's
    # full loop, which tests every row with ndarray.max
    for _ in range(1000):
        prob = random_problem(rng, slack=1.0)
        x0 = -np.linalg.solve(prob.H, prob.g)
        # rows that x0 meets, with margins from 0 (within TOL) to 1
        b = prob.A @ x0 + rng.choice([0.0, 1e-12, 1.0]) * rng.uniform(0.0, 1.0, len(prob.b))
        x, status, active, duals, iterations = qp.solve(prob, prob.g, prob.A, b)
        ref = array_qp_solve(prob, prob.g, prob.A, b)
        assert (status, iterations, active, len(duals)) == ("optimal", 1, (), 0)
        assert (ref.status, ref.iterations, ref.active_set) == ("optimal", 1, ())
        assert x.tobytes() == ref.x.tobytes()


@pytest.mark.parametrize("field", ["g", "A", "b"])
def test_nan_raises_where_no_other_row_is_violated(field, rng):
    # the fast exit's reduction keeps a NaN residual, so the NaN still raises
    # where every other row holds at the unconstrained minimiser
    for _ in range(50):
        prob = random_problem(rng, slack=1.0)
        g, A = prob.g.copy(), prob.A.copy()
        b = A @ -np.linalg.solve(prob.H, g) + 1.0
        data = {"g": g, "A": A, "b": b}[field]
        data.flat[int(rng.integers(data.size))] = np.nan
        with pytest.raises(qp.QpDimensionError, match="NaN"):
            qp.solve(prob, g, A, b)


def test_too_many_rows_raise():
    prob = box_problem()
    A, b = np.zeros((qp.MAX_ROWS + 1, 9)), np.ones(qp.MAX_ROWS + 1)
    with pytest.raises(qp.QpDimensionError):
        qp.solve(prob, prob.g, A, b)
    assert qp.solve(prob, prob.g, A[1:], b[1:])[1] == "optimal"
