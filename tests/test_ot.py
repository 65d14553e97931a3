"""Tests for the minibatch OT solvers."""

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from flowbridge import ot
from flowbridge.exceptions import ShapeError, ValidationError
from flowbridge.ot import (
    _dual_reduced,
    _round_to_uniform,
    Assignment,
    CostMatrix,
    TransportPlan,
    cost_matrix,
    plan_to_pairs,
    solve_exact,
    solve_sinkhorn,
    transport_cost,
)
from flowbridge.tasks import TaskSpec, gen_eight_gaussians, make_training_stream


def _brute_force_cost(c: np.ndarray) -> float:
    """Minimum assignment cost by enumerating all M! permutations."""
    m = c.shape[0]
    idx = np.arange(m)
    best = np.inf
    for perm in itertools.permutations(range(m)):
        best = min(best, float(c[idx, list(perm)].sum()))
    return best


def _random_points(rng, m, d):
    return rng.standard_normal((m, d)), rng.standard_normal((m, d))


def _reference_assignment(c: CostMatrix) -> np.ndarray:
    """The assignment solver run on C itself, without the column reduction."""
    return linear_sum_assignment(c.values)[1]


def _reference_sinkhorn(c: CostMatrix, epsilon: float, max_iter: int = 1000, tol: float = 1e-6):
    """Log-domain Sinkhorn with the solver's annealing schedule and checks.

    Returns (pi, iterations, converged) with pi rounded like the solver's.
    """
    cv = c.values
    m = c.m
    log_marg = -np.log(m)
    f = np.zeros(m)
    g = np.zeros(m)

    def lse_rows(x):
        mx = x.max(axis=1)
        return mx + np.log(np.exp(x - mx[:, None]).sum(axis=1))

    def lse_cols(x):
        mx = x.max(axis=0)
        return mx + np.log(np.exp(x - mx[None, :]).sum(axis=0))

    def sweep(eps):
        nonlocal f, g
        f = eps * (log_marg - lse_rows((g[None, :] - cv) / eps))
        g = eps * (log_marg - lse_cols((f[:, None] - cv) / eps))

    cmax = float(cv.max())
    if cmax > epsilon:
        n_stages = int(np.ceil(np.log2(cmax / epsilon)))
        for s in range(n_stages):
            eps_s = cmax * (epsilon / cmax) ** ((s + 1) / (n_stages + 1))
            for _ in range(15):
                sweep(eps_s)

    def plan():
        return np.exp((f[:, None] + g[None, :] - cv) / epsilon)

    iterations = 0
    converged = False
    while iterations < max_iter:
        sweep(epsilon)
        iterations += 1
        if iterations % 10 == 0 or iterations == max_iter:
            residual = float(np.abs(plan().sum(axis=1) - 1.0 / m).max())
            if residual < tol:
                converged = True
                break
    return _round_to_uniform(plan(), m), iterations, converged


class TestCostMatrix:
    def test_matches_direct_distance_computation(self):
        rng = np.random.default_rng(0)
        a, b = _random_points(rng, 12, 3)
        c = cost_matrix(a, b)
        direct = np.array([[np.sum((ai - bj) ** 2) for bj in b] for ai in a])
        assert np.allclose(c.values, direct, atol=1e-12)

    def test_zero_on_identical_points(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((6, 4))
        c = cost_matrix(a, a.copy())
        assert np.allclose(np.diag(c.values), 0.0)
        assert np.all(c.values >= 0)

    def test_rejects_mismatched_shapes(self):
        rng = np.random.default_rng(2)
        with pytest.raises(ShapeError):
            cost_matrix(rng.standard_normal((4, 2)), rng.standard_normal((5, 2)))
        with pytest.raises(ShapeError):
            cost_matrix(rng.standard_normal((4, 2)), rng.standard_normal((4, 3)))

    def test_rejects_non_finite(self):
        a = np.zeros((3, 2))
        b = np.zeros((3, 2))
        b[1, 0] = np.nan
        with pytest.raises(ValidationError):
            cost_matrix(a, b)

    def test_overflow_is_refused_without_a_warning(self):
        # 1e200 squared passes float64's range.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="cost matrix has non-finite entries"):
                cost_matrix(np.array([[1e200, 0.0]]), np.zeros((1, 2)))

    def test_rejects_non_2d_points(self):
        with pytest.raises(ShapeError, match="expected 2-D point arrays"):
            cost_matrix(np.zeros(3), np.zeros(3))

    @pytest.mark.parametrize("entry,kind", [(np.nan, "non-finite"), (-1.0, "negative")])
    def test_rejects_bad_entries(self, entry, kind):
        v = np.ones((2, 2))
        v[0, 1] = entry
        with pytest.raises(ValidationError, match=f"cost matrix has {kind} entries"):
            CostMatrix(v)

    def test_rejects_non_square_values(self):
        with pytest.raises(ShapeError):
            CostMatrix(np.zeros((3, 4)))

    def test_rejects_empty(self):
        with pytest.raises(ShapeError):
            CostMatrix(np.zeros((0, 0)))
        with pytest.raises(ShapeError):
            cost_matrix(np.zeros((0, 2)), np.zeros((0, 2)))


class TestSolveExact:
    def test_matches_brute_force_on_small_instances(self):
        # The assignment solver must hit the true optimum, checked against
        # full permutation enumeration.
        rng = np.random.default_rng(7)
        for _ in range(50):
            a, b = _random_points(rng, 6, 2)
            c = cost_matrix(a, b)
            got = transport_cost(c, solve_exact(c))
            want = _brute_force_cost(c.values)
            assert abs(got - want) < 1e-9

    def test_identity_when_points_coincide(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((10, 2))
        c = cost_matrix(a, a.copy())
        sigma = solve_exact(c).sigma
        assert np.array_equal(sigma, np.arange(10))

    def test_deterministic_tie_break(self):
        # Fully degenerate cost: every assignment is optimal, the solver must
        # still return the same permutation every time.
        c = CostMatrix(np.ones((5, 5)))
        first = solve_exact(c).sigma
        for _ in range(5):
            assert np.array_equal(solve_exact(c).sigma, first)

    def test_result_is_permutation(self):
        rng = np.random.default_rng(9)
        for m in (2, 5, 17):
            a, b = _random_points(rng, m, 3)
            sigma = solve_exact(cost_matrix(a, b)).sigma
            assert np.array_equal(np.sort(sigma), np.arange(m))

    def test_assignment_rejects_non_permutation(self):
        with pytest.raises(ValidationError):
            Assignment(np.array([0, 0, 2]))

    def test_assignment_rejects_malformed_sigma(self):
        with pytest.raises(ShapeError):
            Assignment(np.array(3))
        with pytest.raises(ValidationError):
            Assignment(np.array([0.0, 1.0, 2.0]))

    @pytest.mark.parametrize(
        "values",
        [np.zeros((5, 5)), np.full((5, 5), 2.5), np.zeros((1, 1)), np.full((1, 1), 3.0)],
        ids=["zero", "constant", "m1_zero", "m1"],
    )
    def test_degenerate_costs(self, values):
        # A zero cost has no scale for the warm start's epsilon; under a
        # constant one every assignment is optimal. The solve still returns an
        # optimal permutation, the same on every call.
        c = CostMatrix(values)
        first = solve_exact(c).sigma
        assert transport_cost(c, first) == transport_cost(c, _reference_assignment(c))
        for _ in range(3):
            assert np.array_equal(solve_exact(c).sigma, first)

    def test_integer_costs_with_ties(self):
        # Many assignments share the optimal cost; any one may be returned,
        # but always the same one.
        rng = np.random.default_rng(10)
        for m in (6, 17, 40):
            c = CostMatrix(rng.integers(0, 4, (m, m)))
            sigma = solve_exact(c).sigma
            assert transport_cost(c, sigma) == transport_cost(c, _reference_assignment(c))
            assert np.array_equal(solve_exact(c).sigma, sigma)

    def test_far_outlier(self):
        # One point at 1e4 puts max(C) near 1e8 and the warm start's last
        # epsilon near 3e4, far above every other cost, so the duals carry
        # almost nothing about the other 63 points.
        rng = np.random.default_rng(12)
        a, b = _random_points(rng, 64, 2)
        a[0] = 1e4
        c = cost_matrix(a, b)
        assert np.array_equal(solve_exact(c).sigma, _reference_assignment(c))

    def test_non_finite_duals_are_dropped(self, monkeypatch):
        def nan_scale(k, f, g, eps, sweeps):
            return np.full_like(f, np.nan), np.full_like(g, np.nan)

        monkeypatch.setattr("flowbridge.ot._scale", nan_scale)
        c = cost_matrix(*_random_points(np.random.default_rng(11), 20, 2))
        assert np.array_equal(solve_exact(c).sigma, _reference_assignment(c))


class TestSolveSinkhorn:
    def test_marginals_are_uniform(self):
        rng = np.random.default_rng(13)
        a, b = _random_points(rng, 8, 2)
        c = cost_matrix(a, b)
        plan = solve_sinkhorn(c, epsilon=0.05 * float(c.values.mean()))
        m = c.m
        assert np.abs(plan.pi.sum(axis=1) - 1.0 / m).max() < 1e-6
        assert np.abs(plan.pi.sum(axis=0) - 1.0 / m).max() < 1e-6
        assert np.all(plan.pi >= 0)

    def test_cost_approaches_exact_as_epsilon_shrinks(self):
        rng = np.random.default_rng(14)
        a, b = _random_points(rng, 8, 2)
        c = cost_matrix(a, b)
        exact = transport_cost(c, solve_exact(c))
        costs = []
        for eps_frac in (1.0, 0.1, 0.01):
            plan = solve_sinkhorn(c, epsilon=eps_frac * float(c.values.mean()), max_iter=5000)
            costs.append(transport_cost(c, plan))
        # Entropy penalty shrinks with epsilon, so cost decreases toward exact.
        assert costs[0] >= costs[1] >= costs[2]
        assert costs[2] >= exact - 1e-9
        assert costs[2] <= exact * 1.02

    def test_reports_convergence(self):
        rng = np.random.default_rng(15)
        a, b = _random_points(rng, 8, 2)
        c = cost_matrix(a, b)
        plan = solve_sinkhorn(c, epsilon=0.5 * float(c.values.mean()))
        assert plan.converged
        assert plan.residual < 1e-6

    def test_honest_non_convergence_flag(self):
        rng = np.random.default_rng(16)
        a, b = _random_points(rng, 8, 2)
        c = cost_matrix(a, b)
        # Tolerance below the float64 summation floor is unreachable, so the
        # solver must say so instead of pretending.
        plan = solve_sinkhorn(c, epsilon=0.001 * float(c.values.mean()), max_iter=5, tol=1e-30)
        assert not plan.converged
        assert plan.residual > 0
        # Marginals still hold because the plan is rounded onto the polytope.
        assert np.abs(plan.pi.sum(axis=1) - 1.0 / c.m).max() < 1e-12

    def test_rejects_bad_max_iter(self):
        c = cost_matrix(np.zeros((3, 2)), np.ones((3, 2)))
        with pytest.raises(ValidationError, match="max_iter must be >= 1, got 0"):
            solve_sinkhorn(c, epsilon=1.0, max_iter=0)

    def test_rejects_bad_epsilon(self):
        c = cost_matrix(np.zeros((3, 2)), np.ones((3, 2)))
        with pytest.raises(ValidationError):
            solve_sinkhorn(c, epsilon=0.0)
        with pytest.raises(ValidationError):
            solve_sinkhorn(c, epsilon=-1.0)
        with pytest.raises(ValidationError):
            solve_sinkhorn(c, epsilon=float("nan"))
        with pytest.raises(ValidationError):
            solve_sinkhorn(c, epsilon=float("inf"))

    @pytest.mark.parametrize("epsilon", [5e-324, 1e-300])
    def test_rejects_epsilon_below_the_cost_resolution(self, epsilon):
        # Positive and finite, but lost beside max(C) in float64: refused
        # before any scaling, so no overflow and no warning.
        c = cost_matrix(*_random_points(np.random.default_rng(18), 8, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValidationError, match=f"epsilon {epsilon:g} is below float64"):
                solve_sinkhorn(c, epsilon=epsilon)

    def test_accepts_epsilon_one_ulp_of_the_max_cost(self):
        c = cost_matrix(*_random_points(np.random.default_rng(18), 8, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            plan = solve_sinkhorn(c, epsilon=float(np.spacing(c.values.max())), max_iter=10)
        assert np.all(np.isfinite(plan.pi))
        assert np.abs(plan.pi.sum(axis=1) - 1.0 / c.m).max() < 1e-12


_PARITY_CASES = {
    # The benchmark shape: 256 chunks of 16 samples at epsilon 1.
    "m256_eps1": (0, 256, 16, lambda v: 1.0, {}),
    # The 8-point cases of TestSolveSinkhorn.
    "m8_marginals": (13, 8, 2, lambda v: 0.05 * float(v.mean()), {}),
    "m8_eps_mean": (14, 8, 2, lambda v: float(v.mean()), {"max_iter": 5000}),
    "m8_eps_0.1mean": (14, 8, 2, lambda v: 0.1 * float(v.mean()), {"max_iter": 5000}),
    "m8_eps_0.01mean": (14, 8, 2, lambda v: 0.01 * float(v.mean()), {"max_iter": 5000}),
    "m8_converges": (15, 8, 2, lambda v: 0.5 * float(v.mean()), {}),
    "m8_unconverged": (16, 8, 2, lambda v: 0.001 * float(v.mean()), {"max_iter": 5, "tol": 1e-30}),
    # 12 of the 16 rows of exp(-C / epsilon) underflow to 0 here, so the
    # kernel only stays usable because the potentials are absorbed.
    "m16_cmax_2e5eps": (17, 16, 2, lambda v: float(v.max()) / 2e5, {}),
}


@pytest.mark.parametrize("case", list(_PARITY_CASES))
def test_sinkhorn_matches_log_domain_reference(case):
    seed, m, d, eps_of, kwargs = _PARITY_CASES[case]
    c = cost_matrix(*_random_points(np.random.default_rng(seed), m, d))
    eps = eps_of(c.values)
    plan = solve_sinkhorn(c, epsilon=eps, **kwargs)
    pi, iterations, converged = _reference_sinkhorn(c, eps, **kwargs)
    assert plan.iterations == iterations
    assert plan.converged == converged
    assert np.all(np.isfinite(plan.pi))
    # The exponent (f + g - C) / epsilon carries a rounding error of about
    # ulp * max(C) / epsilon in any float64 solver, which sets the floor
    # once max(C) / epsilon passes ~1e4.
    floor = float(c.values.max()) / eps * np.finfo(np.float64).eps
    assert np.abs(plan.pi - pi).max() <= max(1e-12, floor) / c.m


_point_sets = st.tuples(
    st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(1, 4)
).map(lambda t: _random_points(np.random.default_rng(t[0]), t[1], t[2]))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    points=_point_sets,
    eps_frac=st.floats(1e-3, 4.0),
    max_iter=st.integers(1, 300),
    tol=st.sampled_from([1e-3, 1e-6, 1e-9]),
)
def test_sinkhorn_invariants(points, eps_frac, max_iter, tol):
    c = cost_matrix(*points)
    plan = solve_sinkhorn(c, epsilon=eps_frac * float(c.values.mean()), max_iter=max_iter, tol=tol)
    assert np.all(plan.pi >= 0)
    assert np.abs(plan.pi.sum(axis=1) - 1.0 / c.m).max() <= 1e-12
    assert np.abs(plan.pi.sum(axis=0) - 1.0 / c.m).max() <= 1e-12
    assert plan.converged == (plan.residual < tol)
    assert 1 <= plan.iterations <= max_iter


@settings(max_examples=40, deadline=None, derandomize=True)
@given(points=_point_sets)
def test_exact_is_a_bijection_no_costlier_than_independent(points):
    c = cost_matrix(*points)
    sigma = solve_exact(c).sigma
    assert np.array_equal(np.sort(sigma), np.arange(c.m))
    # The identity pairing is the independent coupling of the same noise.
    assert transport_cost(c, sigma) <= transport_cost(c, np.arange(c.m)) + 1e-9


# The chunk pool of the 8-Gaussian training: clustered data against noise.
_clustered_sets = st.integers(0, 2**32 - 1).map(np.random.default_rng).map(
    lambda rng: (gen_eight_gaussians(256, rng), rng.standard_normal((256, 2), dtype=np.float32))
)


def _signal_stream(degradation, rng):
    """Batches of 16 signals of 256 samples, as the signal training draws them."""
    spec = TaskSpec(family="toy_signal", n=256, degradation=degradation)
    return make_training_stream(spec, 16, rng)


def _chunk_points(values, rng, n_c):
    """Data and noise chunks of one batch, as `couple_chunked_ot` pools them."""
    noise = rng.standard_normal(values.shape, dtype=np.float32)
    return values.reshape(-1, n_c), noise.reshape(-1, n_c)


# The chunk pool of the reverb training at n_c=16: 256 chunks of 16 samples.
_reverb_sets = st.integers(0, 2**32 - 1).map(np.random.default_rng).map(
    lambda rng: _chunk_points(next(_signal_stream("reverb", rng)).values, rng, 16)
)


def _ring_pair(seed, m, noise):
    """Two noisy draws of the radius-1.5 ring: what `empirical_w2` solves in a ring bridge."""
    rng = np.random.default_rng(seed)

    def ring():
        theta = rng.uniform(0.0, 2.0 * np.pi, m)
        points = 1.5 * np.stack([np.cos(theta), np.sin(theta)], axis=1)
        return (points + noise * rng.standard_normal((m, 2))).astype(np.float32)

    return ring(), ring()


_ring_pairs = st.builds(
    _ring_pair, st.integers(0, 2**32 - 1), st.integers(64, 512), st.floats(0.02, 0.05)
)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(points=st.one_of(_point_sets, _clustered_sets, _ring_pairs, _reverb_sets))
def test_exact_matches_the_unreduced_solve(points):
    c = cost_matrix(*points)
    assert np.array_equal(solve_exact(c).sigma, _reference_assignment(c))


_REDUCED_POOLS = {
    "planar": lambda: cost_matrix(*_random_points(np.random.default_rng(19), 12, 2)),
    "eight_gaussians": lambda: cost_matrix(
        gen_eight_gaussians(256, np.random.default_rng(20)),
        np.random.default_rng(21).standard_normal((256, 2)),
    ),
    "ring": lambda: cost_matrix(*_ring_pair(22, 512, 0.02)),
    "zero": lambda: CostMatrix(np.zeros((5, 5))),
    "constant": lambda: CostMatrix(np.full((5, 5), 2.5)),
    "m1": lambda: CostMatrix(np.full((1, 1), 3.0)),
    "integer_ties": lambda: CostMatrix(np.random.default_rng(10).integers(0, 4, (17, 17))),
}


@pytest.mark.parametrize("pool", list(_REDUCED_POOLS))
def test_dual_reduced_has_a_zero_in_every_row_and_column(pool):
    k = _dual_reduced(_REDUCED_POOLS[pool]().values)
    assert np.all(k >= 0)
    assert np.all(k.min(axis=1) == 0)
    assert np.all(k.min(axis=0) == 0)


def test_warm_start_runs_three_stages_below_the_mean_cost(monkeypatch):
    # Each stage builds one kernel. A schedule entering at max(C), about
    # 5 x mean(C) on this pool, takes more stages.
    stage_eps = []
    kernel = ot._kernel

    def counted(cv, f, g, eps, out=None):
        stage_eps.append(eps)
        return kernel(cv, f, g, eps, out=out)

    monkeypatch.setattr(ot, "_kernel", counted)
    c = _REDUCED_POOLS["eight_gaussians"]()
    solve_exact(c)
    assert len(stage_eps) == 3
    assert max(stage_eps) < float(c.values.mean())


def test_exact_on_clip_pools_with_repeated_chunks():
    # Clipping flattens runs of samples to the same level, so a clip batch
    # chunked at n_c=4 repeats chunks exactly, and its pool has many optima
    # of equal cost. Any one may be returned, always the same one.
    stream = _signal_stream("clip", np.random.default_rng(0))
    rng = np.random.default_rng(1)
    repeats = []
    for _ in range(20):
        data, noise = _chunk_points(next(stream).values, rng, 4)
        repeats.append(len(data) - len(np.unique(data, axis=0)))
        c = cost_matrix(data, noise)
        sigma = solve_exact(c).sigma
        rows = np.arange(c.m)
        # Equal optima differ by swapping repeated chunks, so they match the
        # same multiset of costs.
        assert np.array_equal(
            np.sort(c.values[rows, sigma]), np.sort(c.values[rows, _reference_assignment(c)])
        )
        assert np.array_equal(solve_exact(c).sigma, sigma)
    assert max(repeats) > 0


class TestTransportPlan:
    def test_rejects_non_square(self):
        with pytest.raises(ShapeError, match="transport plan must be square"):
            TransportPlan(np.full((2, 3), 1.0 / 6.0))

    def test_rejects_negative_entries(self):
        pi = np.full((2, 2), 0.25)
        pi[0, 0] = -0.25
        with pytest.raises(ValidationError, match="transport plan has negative entries"):
            TransportPlan(pi)


class TestPlanToPairs:
    def test_sampling_recovers_sharp_plan(self):
        # A permutation plan leaves each row one column to draw.
        perm = np.array([2, 0, 3, 1])
        pi = np.zeros((4, 4))
        pi[np.arange(4), perm] = 0.25
        plan = TransportPlan(pi)
        rng = np.random.default_rng(0)
        for _ in range(20):
            assert np.array_equal(plan_to_pairs(plan, rng), perm)

    def test_sampling_follows_row_distribution(self):
        pi = np.array([[0.9, 0.1], [0.5, 0.5]]) / 2.0
        plan = TransportPlan(pi)
        rng = np.random.default_rng(21)
        draws = np.array([plan_to_pairs(plan, rng)[0] for _ in range(2000)])
        # Row 0 picks column 0 with probability 0.9.
        assert abs(np.mean(draws == 0) - 0.9) < 0.03

    def test_sampling_is_reproducible(self):
        rng_a = np.random.default_rng(22)
        rng_b = np.random.default_rng(22)
        pi = np.full((6, 6), 1.0 / 36.0)
        plan = TransportPlan(pi)
        assert np.array_equal(plan_to_pairs(plan, rng_a), plan_to_pairs(plan, rng_b))

    def test_rejects_zero_row(self):
        pi = np.zeros((3, 3))
        pi[0, 0] = pi[1, 1] = 1.0 / 3.0
        plan = TransportPlan(pi)
        with pytest.raises(ValidationError):
            plan_to_pairs(plan, np.random.default_rng(0))

    def test_rejects_nan_row(self):
        pi = np.full((3, 3), 1.0 / 9.0)
        pi[1] = np.nan
        plan = TransportPlan(pi)
        with pytest.raises(ValidationError):
            plan_to_pairs(plan, np.random.default_rng(0))


class TestTransportCost:
    def test_assignment_and_sharp_plan_agree(self):
        rng = np.random.default_rng(30)
        a, b = _random_points(rng, 5, 2)
        c = cost_matrix(a, b)
        sigma = solve_exact(c)
        pi = np.zeros((5, 5))
        pi[np.arange(5), sigma.sigma] = 0.2
        plan = TransportPlan(pi)
        assert abs(transport_cost(c, sigma) - transport_cost(c, plan)) < 1e-12

    def test_size_mismatch_rejected(self):
        c = cost_matrix(np.zeros((3, 2)), np.ones((3, 2)))
        with pytest.raises(ShapeError):
            transport_cost(c, Assignment(np.array([0, 1])))

    def test_plan_size_mismatch_rejected(self):
        c = cost_matrix(np.zeros((3, 2)), np.ones((3, 2)))
        with pytest.raises(ShapeError, match="plan size 2 != cost matrix size 3"):
            transport_cost(c, TransportPlan(np.full((2, 2), 0.25)))

    @pytest.mark.parametrize(
        "pairing",
        [[-1, 0, 1], [0, 1, 3], [0.0, 1.0, 2.0], [True, False, True]],
        ids=["negative", "past_end", "float", "bool"],
    )
    def test_malformed_pairing_rejected(self, pairing):
        # A negative index would wrap to the last column.
        c = cost_matrix(*_random_points(np.random.default_rng(31), 3, 2))
        with pytest.raises(ValidationError, match="integer column indices"):
            transport_cost(c, np.array(pairing))
