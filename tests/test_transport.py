"""Transport solvers against closed forms and a brute-force optimizer."""

import warnings

import numpy as np
import pytest

from totseg import transport
from totseg.errors import NumericalError
from totseg.transport import (
    MAX_SIGMA,
    TransportConfig,
    marginal_error,
    sinkhorn_ot,
    sinkhorn_tot,
    temporal_prior,
)

import oracles


def reference_prior(num_frames: int, num_clusters: int, sigma: float) -> np.ndarray:
    """Direct per-entry evaluation of the diagonal Gaussian, 1-based."""
    out = np.zeros((num_frames, num_clusters))
    scale = 1.0 / (sigma * np.sqrt(2.0 * np.pi))
    for i in range(1, num_frames + 1):
        for j in range(1, num_clusters + 1):
            d = abs(i / num_frames - j / num_clusters) / np.sqrt(
                1.0 / num_frames**2 + 1.0 / num_clusters**2
            )
            out[i - 1, j - 1] = scale * np.exp(-(d**2) / (2.0 * sigma**2))
    return out


class TestTemporalPrior:
    def test_square_prior_diagonal_hits_gaussian_peak(self):
        sigma = 1.3
        prior = temporal_prior(5, 5, sigma)
        peak = 1.0 / (sigma * np.sqrt(2.0 * np.pi))
        np.testing.assert_allclose(np.diag(prior), peak, rtol=0, atol=1e-15)

    def test_square_prior_is_symmetric(self):
        prior = temporal_prior(7, 7, 0.8)
        np.testing.assert_allclose(prior, prior.T, rtol=0, atol=1e-15)

    def test_matches_reference_formula(self):
        prior = temporal_prior(6, 3, 1.0)
        np.testing.assert_allclose(prior, reference_prior(6, 3, 1.0), rtol=0, atol=1e-12)

    def test_row_argmax_tracks_the_diagonal(self):
        # Distances compared in exact rational arithmetic; when two
        # clusters are equidistant from a frame either peak is acceptable.
        from fractions import Fraction

        for b in (3, 6, 10, 17):
            for k in (2, 3, 6, 10):
                prior = temporal_prior(b, k, 2.5)
                for i in range(1, b + 1):
                    dists = [
                        abs(Fraction(i, b) - Fraction(j, k)) for j in range(1, k + 1)
                    ]
                    nearest = {jj for jj, d in enumerate(dists) if d == min(dists)}
                    assert int(prior[i - 1].argmax()) in nearest

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            temporal_prior(0, 3, 1.0)
        with pytest.raises(ValueError, match="sigma"):
            temporal_prior(3, 3, 0.0)


class TestSinkhornOT:
    def test_constant_scores_give_uniform_coupling(self):
        solved = sinkhorn_ot(np.full((4, 3), 2.7), epsilon=0.3, iterations=5)
        np.testing.assert_allclose(solved.values, 1.0 / 12.0, rtol=1e-14)
        # every entry identical by symmetry of the computation
        assert np.unique(solved.values).size == 1

    def test_sharp_diagonal_scores_converge_to_identity_coupling(self):
        b = 4
        epsilon = 0.1
        scores = 50.0 * epsilon * np.eye(b)
        solved = sinkhorn_ot(scores, epsilon, iterations=500, tolerance=1e-12)
        np.testing.assert_allclose(solved.values, np.eye(b) / b, rtol=0, atol=1e-6)

    def test_matches_polytope_optimizer(self):
        rng = np.random.default_rng(10)
        scores = rng.uniform(-1.0, 1.0, size=(3, 2))
        epsilon = 0.2
        solved = sinkhorn_ot(scores, epsilon, iterations=100000, tolerance=1e-10)
        prior = np.ones_like(scores)
        _, best = oracles.polytope_maximum(scores, prior, epsilon)
        ours = oracles.transport_objective(solved.values, scores, prior, epsilon)
        assert abs(best - ours) < 1e-5

    def test_shift_invariance(self):
        rng = np.random.default_rng(11)
        scores = rng.uniform(-1.0, 1.0, size=(5, 4))
        a = sinkhorn_ot(scores, 0.15, iterations=40)
        b = sinkhorn_ot(scores + 7.3, 0.15, iterations=40)
        np.testing.assert_allclose(a.values, b.values, rtol=0, atol=1e-10)

    def test_rejects_nonpositive_epsilon(self):
        with pytest.raises(ValueError, match="epsilon"):
            sinkhorn_ot(np.zeros((2, 2)), 0.0)

    def test_nan_scores_raise_numerical_error_naming_epsilon(self):
        scores = np.array([[np.nan, 0.0], [0.0, 0.0]])
        with pytest.raises(NumericalError, match="epsilon=0.5"):
            sinkhorn_ot(scores, 0.5)


class TestSinkhornTOT:
    def test_zero_scores_reduce_to_scaling_the_prior(self):
        prior = temporal_prior(6, 3, 1.0)
        zeros = np.zeros((6, 3))
        # kernel is the prior itself, so rho cannot matter
        a = sinkhorn_tot(zeros, prior, rho=0.07, iterations=2000, tolerance=1e-12)
        b = sinkhorn_tot(zeros, prior, rho=0.35, iterations=2000, tolerance=1e-12)
        np.testing.assert_allclose(a.values, b.values, rtol=0, atol=1e-14)
        # the result is a diagonal scaling of the prior: Q / T has rank one
        ratio = a.values / prior
        rank_one = np.outer(ratio[:, 0], ratio[0, :]) / ratio[0, 0]
        np.testing.assert_allclose(ratio, rank_one, rtol=1e-8)
        assert max(a.row_error, a.col_error) < 1e-12

    def test_uniform_prior_degenerates_to_entropic_solver(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            b = int(rng.integers(2, 7))
            k = int(rng.integers(2, 5))
            scores = rng.uniform(-1.0, 1.0, size=(b, k))
            reg = float(rng.uniform(0.05, 0.5))
            entropic = sinkhorn_ot(scores, reg, iterations=7)
            with_prior = sinkhorn_tot(scores, np.ones((b, k)), reg, iterations=7)
            np.testing.assert_allclose(
                with_prior.values, entropic.values, rtol=0, atol=1e-10
            )

    def test_matches_polytope_optimizer(self):
        rng = np.random.default_rng(13)
        scores = rng.uniform(-1.0, 1.0, size=(4, 3))
        prior = temporal_prior(4, 3, 1.0)
        rho = 0.1
        solved = sinkhorn_tot(scores, prior, rho, iterations=100000, tolerance=1e-10)
        _, best = oracles.polytope_maximum(scores, prior, rho)
        ours = oracles.transport_objective(solved.values, scores, prior, rho)
        assert abs(best - ours) < 1e-5

    def test_prior_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            sinkhorn_tot(np.zeros((3, 2)), np.ones((2, 3)), 0.1)

    def test_negative_prior_rejected(self):
        prior = np.ones((2, 2))
        prior[0, 0] = -1.0
        with pytest.raises(ValueError, match="nonnegative"):
            sinkhorn_tot(np.zeros((2, 2)), prior, 0.1)

    def test_zero_prior_entry_pins_coupling_entry_to_zero(self):
        prior = np.ones((3, 3))
        prior[0, 2] = 0.0
        solved = sinkhorn_tot(np.zeros((3, 3)), prior, 0.1, iterations=50)
        assert solved.values[0, 2] == 0.0

    def test_all_zero_prior_row_raises(self):
        prior = np.ones((3, 3))
        prior[1] = 0.0
        with pytest.raises(NumericalError, match="empty row or column"):
            sinkhorn_tot(np.zeros((3, 3)), prior, 0.1)

    @pytest.mark.parametrize(
        "score, empty, message",
        [
            pytest.param((0, 1, np.nan), None, "non-finite values", id="nan_score"),
            pytest.param((2, 2, np.inf), None, "non-finite values", id="inf_score"),
            pytest.param(None, (1, slice(None)), "empty row or column", id="empty_row"),
            pytest.param(None, (slice(None), 2), "empty row or column", id="empty_column"),
            pytest.param(
                (0, 1, np.nan), (1, slice(None)), "non-finite values",
                id="nan_before_empty_row",
            ),
        ],
    )
    def test_bad_kernel_rejected(self, score, empty, message):
        scores = np.zeros((3, 3))
        prior = np.ones((3, 3))
        if score is not None:
            scores[score[:2]] = score[2]
        if empty is not None:
            prior[empty] = 0.0
        with pytest.raises(NumericalError, match=f"{message} in prior-weighted kernel"):
            sinkhorn_tot(scores, prior, 0.1)


class TestMarginals:
    def test_uniform_matrix_sits_on_the_polytope(self):
        assert marginal_error(np.full((5, 4), 1.0 / 20.0)) == (0.0, 0.0)

    def test_block_member_has_zero_error(self):
        q = np.array([[0.5, 0.0], [0.0, 0.5]])
        assert marginal_error(q) == (0.0, 0.0)

    def test_errors_small_after_three_sweeps_tiny_after_fifty(self):
        # Unit regularization on scores in [-1, 1]; sharper kernels
        # converge more slowly and are covered by the tolerance tests.
        rng = np.random.default_rng(14)
        worst3, worst50 = 0.0, 0.0
        for _ in range(50):
            b = int(rng.integers(4, 33))
            k = int(rng.integers(2, 9))
            scores = rng.uniform(-1.0, 1.0, size=(b, k))
            prior = temporal_prior(b, k, 2.5)
            for solved3, solved50 in (
                (sinkhorn_ot(scores, 1.0, 3), sinkhorn_ot(scores, 1.0, 50)),
                (
                    sinkhorn_tot(scores, prior, 1.0, 3),
                    sinkhorn_tot(scores, prior, 1.0, 50),
                ),
            ):
                worst3 = max(worst3, solved3.row_error, solved3.col_error)
                worst50 = max(worst50, solved50.row_error, solved50.col_error)
        assert worst3 < 1e-2
        assert worst50 < 1e-8

    def test_marginal_error_non_increasing_across_sweeps(self):
        rng = np.random.default_rng(15)
        scores = rng.uniform(-1.0, 1.0, size=(6, 4))
        errors = []
        for sweeps in range(1, 25):
            solved = sinkhorn_ot(scores, 0.1, iterations=sweeps)
            errors.append(max(solved.row_error, solved.col_error))
        diffs = np.diff(errors)
        assert np.all(diffs <= 1e-12)

    def test_sweep_budget_and_early_stop(self):
        rng = np.random.default_rng(16)
        scores = rng.uniform(-1.0, 1.0, size=(5, 3))
        fixed = sinkhorn_ot(scores, 1.0, iterations=9)
        assert fixed.sweeps == 9
        stopped = sinkhorn_ot(scores, 1.0, iterations=500, tolerance=1e-6)
        assert stopped.sweeps < 500
        assert max(stopped.row_error, stopped.col_error) <= 1e-6


def test_config_validation():
    cfg = TransportConfig()
    assert cfg.epsilon == 0.05 and cfg.rho == 0.07
    assert cfg.sigma == 2.5 and cfg.iterations == 3
    for kwargs in (
        {"epsilon": 0.0},
        {"rho": -0.1},
        {"sigma": 0.0},
        {"iterations": 0},
        {"marginal_tolerance": -1e-9},
    ):
        with pytest.raises(ValueError):
            TransportConfig(**kwargs)


def test_sigma_bound_is_the_widest_prior_with_a_finite_square():
    wider = float(np.nextafter(MAX_SIGMA, np.inf))
    with pytest.raises(OverflowError):
        wider**2
    with pytest.raises(ValueError, match="sigma must be at most"):
        TransportConfig(sigma=wider)
    cfg = TransportConfig(sigma=MAX_SIGMA)
    assert np.isfinite(temporal_prior(4, 3, cfg.sigma)).all()


def _random_transport_problem(rng):
    """A B x K score matrix, a log-uniform weight and a prior with zeros.

    Zeros are punched into a temporal prior at random, but each row keeps
    its diagonal cell and each column one cell, so no row or column is
    empty; some zero patterns leave the polytope unreachable, and those
    solves never converge.
    """
    b = int(rng.integers(2, 41))
    k = int(rng.integers(2, 9))
    scores = rng.uniform(-1.0, 1.0, size=(b, k))
    reg = float(np.exp(rng.uniform(np.log(1e-4), 0.0)))
    prior = temporal_prior(b, k, float(rng.uniform(0.5, 3.0)))
    keep = rng.random((b, k)) > 0.3
    keep[np.arange(b), np.arange(b) * k // b] = True
    keep[np.arange(k) * b // k, np.arange(k)] = True
    return scores, reg, prior * keep


def test_exp_domain_matches_log_domain_reference():
    # Sharp kernels (weights down to 1e-4 on scores in [-1, 1]) overflow a
    # plain exp-domain loop at once; the stabilized solver must stay finite
    # and follow the log-domain iterates sweep for sweep.
    rng = np.random.default_rng(17)
    converged = 0
    for index in range(240):
        scores, reg, prior = _random_transport_problem(rng)
        if index % 2 == 0:
            solver, args = sinkhorn_ot, (scores, reg)
            log_kernel = scores / reg
        else:
            solver, args = sinkhorn_tot, (scores, prior, reg)
            with np.errstate(divide="ignore"):
                log_kernel = scores / reg + np.log(prior)
        for budget in (3, 50):
            solved = solver(*args, budget)
            reference = oracles.log_domain_sinkhorn(log_kernel, budget)
            assert np.isfinite(solved.values).all()
            assert solved.sweeps == budget
            assert np.abs(solved.values - reference).max() <= 1e-12
        solved = solver(*args, 500, 1e-9)
        if solved.sweeps + solved.newton_steps < 500:
            converged += 1
            assert max(solved.row_error, solved.col_error) <= 1e-9
        else:
            assert solved.sweeps + solved.newton_steps == 500
    assert converged >= 100


def test_failed_newton_finish_ends_at_the_budget():
    # Problem 68 of seed 6 (a plain ot solve) accepts one Newton step,
    # fails the next and finishes with plain sweeps: 499 sweeps and the
    # step spend the budget short of the tolerance. Counting sweeps alone
    # would call this solve stopped early.
    rng = np.random.default_rng(6)
    for _ in range(69):
        scores, reg, _ = _random_transport_problem(rng)
    solved = sinkhorn_ot(scores, reg, 500, 1e-9)
    assert solved.newton_steps >= 1
    assert solved.sweeps + solved.newton_steps == 500
    assert max(solved.row_error, solved.col_error) > 1e-9


def test_long_sharp_solves_absorb_scalings_and_match_reference():
    # At weight 1e-4, scalings that are never folded into the potentials
    # overflow or lose the coupling within a thousand sweeps on these
    # problems.
    prior = temporal_prior(12, 5, 1.0)
    log_prior = np.log(prior)
    for seed in range(3):
        scores = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(12, 5))
        solved = sinkhorn_tot(scores, prior, 1e-4, iterations=1000)
        reference = oracles.log_domain_sinkhorn(scores / 1e-4 + log_prior, 1000)
        assert np.isfinite(solved.values).all()
        assert np.abs(solved.values - reference).max() <= 1e-12


def _solve_random_problem(index, scores, reg, prior, iterations, tolerance=0.0):
    """Even-indexed problems go to the plain solver, odd ones to the prior."""
    if index % 2 == 0:
        return sinkhorn_ot(scores, reg, iterations, tolerance)
    return sinkhorn_tot(scores, prior, reg, iterations, tolerance)


def test_fixed_budget_solves_take_no_newton_step():
    rng = np.random.default_rng(17)
    for index in range(240):
        scores, reg, prior = _random_transport_problem(rng)
        for budget in (3, 50):
            solved = _solve_random_problem(index, scores, reg, prior, budget)
            assert (solved.sweeps, solved.newton_steps) == (budget, 0)


def test_newton_finish_meets_tolerance_and_matches_plain_solves():
    # Every solve that stops below its budget sits on the polytope, without
    # a warning. After Newton steps it matches the plain fixed point (500
    # sweeps, or 100k where 500 are not enough) wherever plain sweeps reach
    # the polytope at all; two boundary cases here, whose optimum puts zero
    # mass on cells the prior allows, are still 3e-6 off after 100k sweeps.
    # A solve whose Newton phase failed at once runs the plain iterates:
    # stopped at 1e-9, those may sit 1e-8 from the fixed point.
    rng = np.random.default_rng(17)
    finished_by_newton = 0
    for index in range(240):
        scores, reg, prior = _random_transport_problem(rng)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            solved = _solve_random_problem(index, scores, reg, prior, 500, 1e-9)
        assert solved.sweeps + solved.newton_steps <= 500
        if solved.sweeps + solved.newton_steps == 500:
            continue
        assert max(solved.row_error, solved.col_error) <= 1e-9
        if solved.newton_steps == 0:
            plain = _solve_random_problem(index, scores, reg, prior, solved.sweeps)
            assert np.abs(solved.values - plain.values).max() <= 1e-12
            continue
        finished_by_newton += 1
        for budget in (500, 100000):
            plain = _solve_random_problem(index, scores, reg, prior, budget)
            if max(plain.row_error, plain.col_error) <= 1e-12:
                assert np.abs(solved.values - plain.values).max() <= 1e-8
                break
    assert finished_by_newton >= 60


def test_unreachable_prior_ends_at_the_budget():
    # The prior's zero pattern connects every frame and cluster, but frames
    # 3-5 may only use cluster 2, which therefore holds at least half the
    # mass instead of a third.
    prior = np.zeros((6, 3))
    prior[0, 0] = prior[1, :2] = prior[2, 1:] = prior[3:, 2] = 1.0
    scores = np.random.default_rng(18).uniform(-1.0, 1.0, size=(6, 3))
    for rho in (1e-3, 0.1, 1.0):
        solved = sinkhorn_tot(scores, prior, rho, iterations=200, tolerance=1e-9)
        assert solved.sweeps + solved.newton_steps == 200
        assert np.isfinite(solved.values).all()
        assert max(solved.row_error, solved.col_error) > 0.01


def test_newton_steps_count_against_the_budget():
    # A near-degenerate K=2 instance of the polytope gate: plain sweeps need
    # more than 300k sweeps to reach 1e-12, Newton steps a dozen. Each
    # budget below that is spent in full.
    scores = np.array(
        [
            [-0.94, 0.69], [0.04, -0.84], [-0.4, 0.71],
            [0.86, 0.03], [0.43, 0.47], [-0.27, 0.84],
        ]
    )
    full = sinkhorn_ot(scores, 0.05, iterations=300000, tolerance=1e-12)
    assert full.sweeps == 3 and 0 < full.newton_steps <= 20
    assert max(full.row_error, full.col_error) <= 1e-12
    for budget in range(1, full.sweeps + full.newton_steps):
        cut = sinkhorn_ot(scores, 0.05, iterations=budget, tolerance=1e-12)
        assert cut.sweeps + cut.newton_steps == budget
        assert cut.sweeps == min(budget, 3)
        assert max(cut.row_error, cut.col_error) > 1e-12


def _solve_weighted(index, scores, prior, iterations, tolerance):
    """_solve_random_problem for scores already divided by their weight."""
    return _solve_random_problem(index, scores, 1.0, prior, iterations, tolerance)


def _assert_stack_equals_blocks(stacked, alone):
    """A stack's solve holds each block's solve alone, bit for bit."""
    assert stacked.values.shape == (len(alone),) + alone[0].values.shape
    for values, solved in zip(stacked.values, alone):
        np.testing.assert_array_equal(values, solved.values)
        assert marginal_error(values) == (solved.row_error, solved.col_error)
    assert stacked.row_error == max(solved.row_error for solved in alone)
    assert stacked.col_error == max(solved.col_error for solved in alone)
    assert stacked.sweeps == sum(solved.sweeps for solved in alone)
    assert stacked.newton_steps == sum(solved.newton_steps for solved in alone)


@pytest.mark.parametrize("tolerance", [0.0, 1e-9])
def test_solves_follow_the_one_block_algorithm_exactly(tolerance):
    # Sharp and smooth kernels, prior entries of zero, Newton steps that
    # backtrack (problem 83 of seed 1) or fail (problem 68 of seed 6): the
    # stacked solver on a matrix takes the one-block algorithm's iterates.
    drawn = []
    for seed, count in ((1, 84), (6, 120)):
        rng = np.random.default_rng(seed)
        drawn += [_random_transport_problem(rng) for _ in range(count)]
    for budget in (3, 50, 500):
        for index, (scores, reg, prior) in enumerate(drawn):
            solved = _solve_random_problem(index, scores, reg, prior, budget, tolerance)
            if index % 2 == 0:
                log_kernel = scores / reg
            else:
                with np.errstate(divide="ignore"):
                    log_kernel = scores / reg + np.log(prior)
            values, sweeps, steps = oracles.sinkhorn_newton_one_block(
                log_kernel, budget, tolerance
            )
            np.testing.assert_array_equal(solved.values, values)
            assert (solved.sweeps, solved.newton_steps) == (sweeps, steps)
            assert (solved.row_error, solved.col_error) == marginal_error(values)


def test_blocks_back_from_newton_absorb_on_their_own_sweep_count(monkeypatch):
    # Problem 262 of seed 1 and problems 68, 330 and 528 of seed 6, as plain
    # ot solves to 1e-9 with 200 to spend, accept a Newton step, fail the
    # next and sweep to the budget. With every scaling past 1 folded in,
    # absorption fires on most eighth sweeps, so a block that absorbs on the
    # wrong round leaves the one-block iterates. Each is solved alone and
    # stacked with the other draws of its shape, most of which fail their
    # first step and so sweep on from an earlier round.
    monkeypatch.setattr(transport, "_ABSORB_ABOVE", 1.0)
    drawn = {}
    for seed in (1, 6):
        rng = np.random.default_rng(seed)
        problems = [_random_transport_problem(rng) for _ in range(600)]
        drawn[seed] = [scores / reg for scores, reg, _ in problems]
    pool = drawn[1] + drawn[6]
    for seed, index in ((1, 262), (6, 68), (6, 330), (6, 528)):
        block = drawn[seed][index]
        kernels = [block] + [k for k in pool if k.shape == block.shape and k is not block]
        assert len(kernels) >= 3
        expected = [oracles.sinkhorn_newton_one_block(k, 200, 1e-9, 1.0) for k in kernels]
        values, sweeps, steps = expected[0]
        assert steps >= 1 and sweeps + steps == 200
        unabsorbed, _, _ = oracles.sinkhorn_newton_one_block(block, 200, 1e-9)
        assert not np.array_equal(values, unabsorbed)
        alone = sinkhorn_ot(block, 1.0, 200, 1e-9)
        np.testing.assert_array_equal(alone.values, values)
        assert (alone.sweeps, alone.newton_steps) == (sweeps, steps)
        stacked = sinkhorn_ot(np.stack(kernels), 1.0, 200, 1e-9)
        np.testing.assert_array_equal(stacked.values, np.stack([e[0] for e in expected]))
        assert stacked.sweeps == sum(e[1] for e in expected)
        assert stacked.newton_steps == sum(e[2] for e in expected)


class TestStacks:
    """n x B x K stacks: every block solved as if alone, in one call.

    Each problem's weight is divided into its scores beforehand, so that
    one solver weight of 1 serves a whole stack: (scores / w) / 1 is
    scores / w, and a block's kernel is the one its own weight gives.
    """

    @staticmethod
    def one_shape_stacks(seed, draws):
        """Random problems grouped by shape, for shapes drawn three times or more."""
        rng = np.random.default_rng(seed)
        groups = {}
        for _ in range(draws):
            scores, reg, prior = _random_transport_problem(rng)
            groups.setdefault(scores.shape, []).append((scores / reg, prior))
        return [problems for problems in groups.values() if len(problems) >= 3]

    @pytest.mark.parametrize("tolerance", [0.0, 1e-9])
    @pytest.mark.parametrize("budget", [3, 50, 500])
    def test_stack_equals_its_blocks_solved_alone(self, budget, tolerance):
        stacks = self.one_shape_stacks(17, 400)
        assert len(stacks) >= 40
        uneven = 0
        for index, problems in enumerate(stacks):
            scores = np.stack([s for s, _ in problems])
            prior_stack = np.stack([p for _, p in problems])
            stacked = _solve_weighted(index, scores, prior_stack, budget, tolerance)
            alone = [_solve_weighted(index, s, p, budget, tolerance) for s, p in problems]
            _assert_stack_equals_blocks(stacked, alone)
            uneven += len({(a.sweeps, a.newton_steps) for a in alone}) > 1
        # Blocks of one stack stopping at different rounds are what the
        # lockstep loop must get right.
        assert uneven >= (20 if tolerance > 0 and budget > 3 else 0)

    @pytest.mark.parametrize("budget", [3, 50, 500])
    def test_failed_newton_block_sweeps_on_while_others_step(self, budget):
        # Problems 68, 499, 501, 634 and 702 of seed 6 are 22 x 4. As plain
        # ot solves to 1e-9 with 500 to spend, 68 accepts one Newton step
        # and then fails, 499, 501 and 702 fail their first, 634 meets the
        # tolerance after three, and each one stops at its own count.
        rng = np.random.default_rng(6)
        drawn = [_random_transport_problem(rng) for _ in range(703)]
        problems = [drawn[i] for i in (68, 499, 501, 634, 702)]
        scores = np.stack([s / reg for s, reg, _ in problems])
        stacked = sinkhorn_ot(scores, 1.0, budget, 1e-9)
        alone = [sinkhorn_ot(s, 1.0, budget, 1e-9) for s in scores]
        _assert_stack_equals_blocks(stacked, alone)
        if budget == 500:
            counts = [(a.sweeps, a.newton_steps) for a in alone]
            assert counts[0] == (499, 1)
            assert counts[3] == (3, 3)
            assert len(set(counts)) == 5

    def test_backtracking_block_steps_beside_full_steps(self):
        # Problems 83, 292, 297 and 475 of seed 1 are 2 x 7 tot solves. To
        # 1e-9, 83 backtracks on a Newton step while 292 takes full ones,
        # and 297 and 475 fail their first step and sweep on.
        rng = np.random.default_rng(1)
        drawn = [_random_transport_problem(rng) for _ in range(476)]
        problems = [drawn[i] for i in (83, 292, 297, 475)]
        scores = np.stack([s / reg for s, reg, _ in problems])
        prior_stack = np.stack([prior for _, _, prior in problems])
        stacked = sinkhorn_tot(scores, prior_stack, 1.0, 500, 1e-9)
        alone = [sinkhorn_tot(s, p, 1.0, 500, 1e-9) for s, p in zip(scores, prior_stack)]
        _assert_stack_equals_blocks(stacked, alone)
        assert [a.newton_steps for a in alone] == [5, 4, 0, 0]

    def test_singular_hessian_fails_only_its_own_block(self):
        # Frames 0-2 may only use clusters 0 and 1, frames 3-5 only cluster
        # 2: the column graph falls apart, so that block's Newton system is
        # singular and the batched linear solve raises. The blocks with a
        # full prior step on.
        blocked = np.zeros((6, 3))
        blocked[:3, :2] = blocked[3:, 2] = 1.0
        full = temporal_prior(6, 3, 1.0)
        prior_stack = np.stack([full, blocked, full])
        scores = np.random.default_rng(8).uniform(-1.0, 1.0, size=(3, 6, 3))
        stacked = sinkhorn_tot(scores, prior_stack, 0.1, 50, 1e-9)
        alone = [sinkhorn_tot(s, p, 0.1, 50, 1e-9) for s, p in zip(scores, prior_stack)]
        _assert_stack_equals_blocks(stacked, alone)
        assert alone[1].newton_steps == 0 and alone[1].sweeps == 50
        assert alone[0].newton_steps > 0 and alone[2].newton_steps > 0

    @pytest.mark.parametrize("tolerance", [0.0, 1e-9])
    def test_stack_of_one_is_the_matrix_call(self, tolerance):
        rng = np.random.default_rng(3)
        for index in range(20):
            scores, reg, prior = _random_transport_problem(rng)
            matrix = _solve_random_problem(index, scores, reg, prior, 500, tolerance)
            stack = _solve_random_problem(
                index, scores[None], reg, prior[None], 500, tolerance
            )
            np.testing.assert_array_equal(stack.values, matrix.values[None])
            assert (stack.row_error, stack.col_error) == (
                matrix.row_error,
                matrix.col_error,
            )
            assert (stack.sweeps, stack.newton_steps) == (
                matrix.sweeps,
                matrix.newton_steps,
            )

    def test_one_prior_serves_the_whole_stack(self):
        scores = np.random.default_rng(4).uniform(-1.0, 1.0, size=(3, 16, 5))
        prior = temporal_prior(16, 5, 1.0)
        stacked = sinkhorn_tot(scores, prior, 0.07, 100, 1e-9)
        alone = [sinkhorn_tot(s, prior, 0.07, 100, 1e-9) for s in scores]
        _assert_stack_equals_blocks(stacked, alone)

    @pytest.mark.parametrize("solver", ["ot", "tot"])
    def test_nan_in_one_block_raises(self, solver):
        scores = np.zeros((3, 4, 2))
        scores[1, 2, 0] = np.nan
        with pytest.raises(NumericalError, match="non-finite values"):
            if solver == "ot":
                sinkhorn_ot(scores, 0.1)
            else:
                sinkhorn_tot(scores, np.ones((4, 2)), 0.1)

    @pytest.mark.parametrize(
        "scores_shape, prior_shape",
        [((2, 4, 3), (3, 4, 3)), ((2, 4, 3), (4, 2)), ((4, 3), (1, 4, 3))],
    )
    def test_prior_must_match_a_block_or_the_stack(self, scores_shape, prior_shape):
        with pytest.raises(ValueError, match="shape"):
            sinkhorn_tot(np.zeros(scores_shape), np.ones(prior_shape), 0.1)

    @pytest.mark.parametrize("shape", [(4,), (1, 2, 4, 3)])
    def test_scores_must_be_a_matrix_or_a_stack(self, shape):
        with pytest.raises(ValueError, match="B x K matrix or an n x B x K stack"):
            sinkhorn_ot(np.zeros(shape), 0.1)
