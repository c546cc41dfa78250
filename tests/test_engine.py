"""Backward-induction engine: decisions, toy cross-section, estimator identities.

The two-date toy is built so the date-1 regression reproduces the worked
three-point system exactly: states (6, 10, 12) with a strike-20 put give
payouts (14, 10, 8), date-2 payouts (10, 14, 9) make the continuation premium
(-4, 4, 1), and the payoff regressor is collinear with the price, so the fit
is the straight line of the reference system.  Every number below is exact.
"""

import dataclasses

import numpy as np
import pytest

from lsmc.contracts import (
    BASKET_CALL,
    BESTOF_CALL,
    PUT_SINGLE,
    BasisSpec,
    BasisTerm,
    PayoffSpec,
    basis_family,
    discounted_payout,
)
from lsmc.engine import (
    BackwardStack,
    ExercisePolicy,
    PolicyStack,
    continue_mask,
    payout_matrix,
    std_error,
    step_back,
    step_set,
)
from lsmc.market import GbmModel, PathSet, generate_paths, uniform_schedule
from reference import checked_reference

PUT_MODEL = GbmModel(spot=[100.0], rate=0.05, dividend=[0.02], vol=[0.20], correlation=[[1.0]])
PUT_SCHEDULE = uniform_schedule(5, 1.0)
PUT_PAYOFF = PayoffSpec(PUT_SINGLE, strike=100.0)
PUT_BASIS = basis_family(PUT_SINGLE, 5)


def toy_paths() -> PathSet:
    values = np.array([[[6.0], [10.0]], [[10.0], [6.0]], [[12.0], [11.0]]])
    return PathSet(values=values, times=np.array([0.5, 1.0]), rate=0.0)


TOY_PAYOFF = PayoffSpec(PUT_SINGLE, strike=20.0)
TOY_BASIS = basis_family(PUT_SINGLE, 3)  # (1, Z, S); Z = 20 - S makes it rank 2


def desk_paths(n=4000, seed=314):
    return generate_paths(PUT_MODEL, PUT_SCHEDULE, n, seed=seed)


class TestDecideContinue:
    def test_plain_indicator(self):
        assert continue_mask(5.0, 7.0)
        assert not continue_mask(5.0, 3.0)
        np.testing.assert_array_equal(
            continue_mask(np.array([5.0, 5.0]), np.array([7.0, 3.0])), [True, False]
        )

    def test_zero_payout_overrides_negative_continuation(self):
        assert continue_mask(0.0, -1.0)
        np.testing.assert_array_equal(
            continue_mask(np.array([0.0, 1.0]), np.array([-1.0, -1.0])), [True, False]
        )

    def test_tie_continues(self):
        assert continue_mask(5.0, 5.0)


@pytest.mark.filterwarnings("ignore:3 paths for 3 regressors")
class TestToyCrossSection:
    def test_classical_keeps_the_outlier_path(self):
        stack = step_set(toy_paths(), TOY_PAYOFF, TOY_BASIS)
        assert stack.value[0, :, 0] == pytest.approx([14.0, 14.0, 9.0], abs=1e-12)
        assert stack.means()[0, 0] == pytest.approx(37.0 / 3.0, abs=1e-12)
        assert stack.ranks[0].tolist() == [2]
        assert len(ExercisePolicy.fitted(toy_paths(), TOY_PAYOFF, TOY_BASIS).coefficients) == 1

    def test_leave_one_out_exercises_the_outlier_path(self):
        stack = step_set(toy_paths(), TOY_PAYOFF, TOY_BASIS)
        assert stack.value[0, :, 1] == pytest.approx([10.0, 10.0, 9.0], abs=1e-12)
        assert stack.means()[0, 1] == pytest.approx(29.0 / 3.0, abs=1e-12)

    def test_flip_events_match_the_closed_form_characterization(self):
        # decision values: C = (11, 11, 11), C' = (24, 28/3, 16) against Z = (14, 10, 8);
        # path 2 flips continue->exercise, path 1 exercise->continue, path 3 is stable
        stack, reference = checked_reference(toy_paths(), TOY_PAYOFF, TOY_BASIS)
        assert stack.flips[0, 1].tolist() == [2]
        (t,) = reference.dates
        assert t.fitted == pytest.approx([11.0, 11.0, 11.0], abs=1e-12)
        assert t.loo_fitted == pytest.approx([24.0, 28.0 / 3.0, 16.0], abs=1e-12)
        d_plus = (t.loo_fitted < t.payout) & (t.payout <= t.fitted)
        d_minus = (t.loo_fitted >= t.payout) & (t.payout > t.fitted)
        np.testing.assert_array_equal(d_plus, [False, True, False])
        np.testing.assert_array_equal(d_minus, [True, False, False])
        # the same events in leverage form: 0 <= C - Z < h (V - Z) and its mirror
        premium = t.response - t.payout
        gap = t.fitted - t.payout
        np.testing.assert_array_equal(d_plus, (gap >= 0.0) & (gap < t.leverage * premium))
        np.testing.assert_array_equal(d_minus, (gap < 0.0) & (gap >= t.leverage * premium))

    def test_price_gap_is_the_flip_payload(self):
        stack = step_set(toy_paths(), TOY_PAYOFF, TOY_BASIS)
        gap = stack.value[0, :, 0] - stack.value[0, :, 1]
        assert gap == pytest.approx([4.0, 4.0, 0.0], abs=1e-12)
        lsm, loo = stack.means()[0]
        assert lsm - loo == pytest.approx(8.0 / 3.0, abs=1e-12)


class TestEstimatorIdentities:
    def test_single_date_reduces_every_estimator_to_european(self):
        schedule = uniform_schedule(1, 1.0)
        paths = generate_paths(PUT_MODEL, schedule, 2000, seed=21)
        basis = basis_family(PUT_SINGLE, 4)
        other = generate_paths(PUT_MODEL, schedule, 2000, seed=22)
        policy = ExercisePolicy.fitted(other, PUT_PAYOFF, basis)
        stack = step_set(paths, PUT_PAYOFF, basis, policy=policy)
        lsm, loo, two = stack.means()[0]
        assert lsm == stack.european[0].mean() == loo == two
        assert stack.ranks[0].tolist() == [] and policy.ranks == ()

    def test_two_pass_on_its_own_paths_degenerates_to_classical(self):
        paths = desk_paths()
        classical = step_set(paths, PUT_PAYOFF, PUT_BASIS)
        policy = ExercisePolicy.fitted(paths, PUT_PAYOFF, PUT_BASIS)
        two = step_set(paths, PUT_PAYOFF, PUT_BASIS, policy=policy)
        assert two.means()[0, 2] == pytest.approx(classical.means()[0, 0], abs=1e-12)
        assert policy.ranks == tuple(classical.ranks[0])

    def test_two_pass_rejects_schedule_mismatch(self):
        paths = desk_paths()
        other = generate_paths(PUT_MODEL, uniform_schedule(4, 1.0), 4000, seed=1)
        policy = ExercisePolicy.fitted(other, PUT_PAYOFF, PUT_BASIS)
        with pytest.raises(ValueError, match="policy for 3 date"):
            step_set(paths, PUT_PAYOFF, PUT_BASIS, policy=policy)

    @pytest.mark.parametrize(
        "basis",
        [basis_family(PUT_SINGLE, 4), BasisSpec(PUT_SINGLE, PUT_BASIS.terms[::-1])],
        ids=["fewer_terms", "reordered_terms"],
    )
    def test_two_pass_rejects_basis_mismatch(self, basis):
        paths = desk_paths()
        policy = ExercisePolicy.fitted(paths, PUT_PAYOFF, basis)
        with pytest.raises(ValueError, match="cannot value 4 date"):
            step_set(paths, PUT_PAYOFF, PUT_BASIS, policy=policy)

    def test_price_is_mean_of_per_path_values(self):
        paths = desk_paths()
        policy = ExercisePolicy.fitted(desk_paths(seed=315), PUT_PAYOFF, PUT_BASIS)
        stack = step_set(paths, PUT_PAYOFF, PUT_BASIS, policy=policy)
        per_path = (stack.value[0, :, 0], stack.value[0, :, 1], stack.held[0])
        assert stack.means()[0].tolist() == [v.mean() for v in per_path]

    def test_pricing_is_deterministic(self):
        a = step_set(desk_paths(), PUT_PAYOFF, PUT_BASIS)
        b = step_set(desk_paths(), PUT_PAYOFF, PUT_BASIS)
        np.testing.assert_array_equal(a.value, b.value)

    def test_warns_when_paths_do_not_exceed_regressors(self):
        values = np.exp(np.random.default_rng(0).standard_normal((4, 2, 1))) * 100.0
        tiny = PathSet(values=values, times=np.array([0.5, 1.0]), rate=0.05)
        # with no more paths than regressors every row has leverage ~ 1
        with pytest.warns(RuntimeWarning, match="regressors"):
            with pytest.warns(RuntimeWarning, match="leverage ~ 1 fell back"):
                step_set(tiny, PUT_PAYOFF, PUT_BASIS)

    def test_classical_exceeds_leave_one_out_on_average(self):
        diffs = []
        for k in range(50):
            paths = generate_paths(PUT_MODEL, PUT_SCHEDULE, 2000, seed=9000 + k)
            lsm, loo = step_set(paths, PUT_PAYOFF, PUT_BASIS).means()[0]
            diffs.append(lsm - loo)
        diffs = np.array(diffs)
        t_stat = diffs.mean() / (diffs.std(ddof=1) / np.sqrt(diffs.size))
        assert t_stat > 3.0


@pytest.fixture(scope="module")
def reference_run():
    """The desk run's stepped stack and its leave-one-out date records, from
    a reference pass checked against the engine's."""
    stack, reference = checked_reference(desk_paths(), PUT_PAYOFF, PUT_BASIS)
    return stack, reference.dates


class TestSeededRunDiagnostics:
    """Per-date identities on a realistic seeded run."""

    def test_fitted_value_decomposition(self, reference_run):
        _, dates = reference_run
        for t in dates:
            blend = (1.0 - t.leverage) * t.loo_fitted + t.leverage * t.response
            assert np.allclose(t.fitted, blend, rtol=1e-10, atol=1e-10)

    def test_flip_sets_match_closed_form_events(self, reference_run):
        stack, dates = reference_run
        assert stack.fallbacks[0] == 0
        by_date = {t.date_index: t for t in dates}
        for i, flips in enumerate(stack.flips[0, 1]):
            t = by_date[i]
            keep_full = (t.fitted >= t.payout) | (t.payout == 0.0)
            keep_loo = (t.loo_fitted >= t.payout) | (t.payout == 0.0)
            actual = keep_full != keep_loo
            d_plus = (t.loo_fitted < t.payout) & (t.payout <= t.fitted)
            d_minus = (t.loo_fitted >= t.payout) & (t.payout > t.fitted)
            # zero payouts force continuation in both runs, so the closed-form
            # events characterize flips exactly on the paying paths
            np.testing.assert_array_equal(actual, (d_plus | d_minus) & (t.payout > 0.0))
            assert flips == int(actual.sum())

    def test_one_step_bias_bound(self, reference_run):
        # at the last regression date both runs share the response, so the
        # one-step value gap obeys the flip-payload bound path by path
        _, dates = reference_run
        t = max(dates, key=lambda d: d.date_index)
        keep_full = (t.fitted >= t.payout) | (t.payout == 0.0)
        keep_loo = (t.loo_fitted >= t.payout) | (t.payout == 0.0)
        v_full = np.where(keep_full, t.response, t.payout)
        v_loo = np.where(keep_loo, t.response, t.payout)
        premium = np.abs(t.response - t.payout)
        bound = (np.abs(t.fitted - t.payout) <= t.leverage * premium) * premium
        assert (np.abs(v_full - v_loo) <= bound + 1e-12).all()


BASKET_MODEL = GbmModel(
    spot=[100.0] * 4, rate=0.0, dividend=[0.0] * 4, vol=[0.40] * 4,
    correlation=np.full((4, 4), 0.5) + 0.5 * np.eye(4),
)


@pytest.mark.parametrize(
    "model, n_dates, payoff, m, n",
    [
        (PUT_MODEL, 5, PUT_PAYOFF, 12, 20_000),
        (BASKET_MODEL, 10, PayoffSpec(BASKET_CALL, strike=100.0), 16, 4000),
    ],
    ids=["put", "basket"],
)
def test_reference_pass_is_the_engine(model, n_dates, payoff, m, n):
    # the per-date records the tests read come from a pass that prices exactly as the engine does
    paths = generate_paths(model, uniform_schedule(n_dates, 1.0), n, seed=5)
    checked_reference(paths, payoff, basis_family(payoff.kind, m))


STACK_CASES = pytest.mark.parametrize(
    "model, n_dates, payoff, m",
    [
        (PUT_MODEL, 5, PUT_PAYOFF, 5),
        (BASKET_MODEL, 10, PayoffSpec(BASKET_CALL, strike=100.0), 10),
    ],
    ids=["put", "basket"],
)


class TestStackedPass:
    """Pricing consecutive sets as one stack equals pricing each set alone, bit for bit.

    Each stack covers a chunk of the pool, generated on its own at its offset,
    as experiment 2 generates and prices a chunk.
    """

    # six sets of 250 paths; each tuple of (first, stop) chunks covers them once
    COMPOSITIONS = (
        ((0, 6),),
        ((0, 1), (1, 4), (4, 6)),
        ((0, 2), (2, 3), (3, 5), (5, 6)),
    )

    @staticmethod
    def assert_same_results(alone, stack):
        """Each set's lone one-set stack equals that set's arrays in the stack,
        and each price of means, raw and shifted, is the mean of the lone row."""
        assert len(alone) == stack.european.shape[0]
        means, adjusted = stack.means(), stack.means(6.33)
        for k, lone in enumerate(alone):
            euro = lone.european[0]
            rows = (lone.value[0, :, 0], lone.value[0, :, 1], lone.held[0])
            for j, row in enumerate(rows):
                assert means[k, j] == row.mean()
                assert adjusted[k, j] == (row + (6.33 - euro)).mean()
            np.testing.assert_array_equal(stack.value[k], lone.value[0])
            np.testing.assert_array_equal(stack.flips[k], lone.flips[0])
            np.testing.assert_array_equal(stack.ranks[k], lone.ranks[0])
            assert stack.fallbacks[k] == lone.fallbacks[0]
            np.testing.assert_array_equal(stack.held[k], lone.held[0])
            np.testing.assert_array_equal(stack.european[k], euro)

    @staticmethod
    def assert_same_policies(policies, stack):
        """Each set's policy, fitted alone, equals that set's rows of a PolicyStack."""
        assert len(policies) == stack.coefficients.shape[0]
        for k, policy in enumerate(policies):
            np.testing.assert_array_equal(stack.coefficients[k], policy.coefficients)
            assert tuple(stack.ranks[k]) == policy.ranks

    @staticmethod
    def assert_stack_matches_alone(paths, payoff, basis):
        """paths(n_paths, offset) generates that many of the pool's paths from
        offset on.  A PolicyStack shares each chunk's factorization."""
        sets = [paths(250, k * 250) for k in range(6)]
        policies = [ExercisePolicy.fitted(lone, payoff, basis) for lone in sets]
        policy = policies[0]  # any policy of the right shape
        alone = [step_set(lone, payoff, basis, policy=policy) for lone in sets]
        for composition in TestStackedPass.COMPOSITIONS:
            for first, stop in composition:
                chunk = paths((stop - first) * 250, first * 250)
                z = payout_matrix(chunk, payoff)
                stack = BackwardStack(z, 250, basis.m, policy)
                policy_stack = PolicyStack(z, 250, basis.m)
                step_back(chunk, z, basis, [[stack, policy_stack]])
                TestStackedPass.assert_same_results(alone[first:stop], stack)
                TestStackedPass.assert_same_policies(policies[first:stop], policy_stack)
        return alone

    @STACK_CASES
    def test_blocks_match_each_set_alone(self, model, n_dates, payoff, m):
        # 250-path sets: not a multiple of any SIMD width, so a stack shifts
        # each set's rows against the vector lanes of a lone pass
        schedule = uniform_schedule(n_dates, 1.0)

        def paths(n_paths, offset):
            return generate_paths(model, schedule, n_paths, seed=808, offset=offset)

        self.assert_stack_matches_alone(paths, payoff, basis_family(payoff.kind, m))

    @STACK_CASES
    def test_one_group_per_split_matches_each_set_alone(self, model, n_dates, payoff, m):
        # one step_back prices every split of a 1500-path pool, as experiment 2 prices a chunk
        schedule = uniform_schedule(n_dates, 1.0)
        pool = generate_paths(model, schedule, 1500, seed=707)
        basis = basis_family(payoff.kind, m)
        policy = ExercisePolicy.fitted(pool, payoff, basis)  # any policy of the right shape
        z = payout_matrix(pool, payoff)
        sizes = (250, 500, 750, 1500)
        groups = [[BackwardStack(z, n, basis.m, policy), PolicyStack(z, n, basis.m)] for n in sizes]
        step_back(pool, z, basis, groups)
        for n, (stack, policy_stack) in zip(sizes, groups):
            sets = [generate_paths(model, schedule, n, 707, offset=o) for o in range(0, 1500, n)]
            alone = [step_set(lone, payoff, basis, policy=policy) for lone in sets]
            self.assert_same_results(alone, stack)
            policies = [ExercisePolicy.fitted(lone, payoff, basis) for lone in sets]
            self.assert_same_policies(policies, policy_stack)

    def test_odd_sets_match_each_set_alone(self):
        # 999-path sets without antithetic pairs: an odd n starts every other
        # set at an odd row of the stack, off the vector lanes of a lone pass
        def paths(n_paths, offset):
            return generate_paths(
                PUT_MODEL, PUT_SCHEDULE, n_paths, seed=606, antithetic=False, offset=offset
            )

        pool = paths(7 * 999, 0)
        policy = ExercisePolicy.fitted(pool, PUT_PAYOFF, PUT_BASIS)  # any policy of the right shape
        z = payout_matrix(pool, PUT_PAYOFF)
        stack = BackwardStack(z, 999, PUT_BASIS.m, policy)
        policy_stack = PolicyStack(z, 999, PUT_BASIS.m)
        step_back(pool, z, PUT_BASIS, [[stack, policy_stack]])
        sets = [paths(999, k * 999) for k in range(7)]
        alone = [step_set(lone, PUT_PAYOFF, PUT_BASIS, policy=policy) for lone in sets]
        self.assert_same_results(alone, stack)
        policies = [ExercisePolicy.fitted(lone, PUT_PAYOFF, PUT_BASIS) for lone in sets]
        self.assert_same_policies(policies, policy_stack)

    def test_rank_deficient_set_leaves_its_neighbours_unchanged(self):
        # every path of set 2 (pool rows 500 to 750) is out of the money at
        # date 1, so its payoff column vanishes there and only that set loses a rank
        def paths(n_paths, offset):
            chunk = generate_paths(PUT_MODEL, PUT_SCHEDULE, n_paths, seed=909, offset=offset)
            values = chunk.values.copy()
            values[max(500 - offset, 0) : max(750 - offset, 0), 1, 0] += 60.0
            return dataclasses.replace(chunk, values=values)

        assert paths(6 * 250, 0).values[500:750, 1, 0].min() > PUT_PAYOFF.strike
        alone = self.assert_stack_matches_alone(paths, PUT_PAYOFF, PUT_BASIS)
        ranks = [lone.ranks[0, 1] for lone in alone]
        assert ranks == [5, 5, 4, 5, 5, 5]


class TestControlVariateAndBias:
    def test_exact_equals_estimate_leaves_result_unchanged(self):
        stack = step_set(desk_paths(), PUT_PAYOFF, PUT_BASIS)
        adjusted = stack.means(exact_euro=stack.european[0].mean())
        np.testing.assert_allclose(adjusted, stack.means(), rtol=0.0, atol=1e-12)

    def test_shared_adjustment_cancels_in_the_difference(self):
        stack = step_set(desk_paths(), PUT_PAYOFF, PUT_BASIS)
        (lsm, loo), (lsm_cv, loo_cv) = stack.means()[0], stack.means(6.33)[0]
        assert lsm_cv - loo_cv == pytest.approx(lsm - loo, abs=1e-12)

    def test_identical_runs_have_zero_bias(self):
        paths = desk_paths()
        a = step_set(paths, PUT_PAYOFF, PUT_BASIS)
        b = step_set(paths, PUT_PAYOFF, PUT_BASIS)
        assert a.means()[0, 0] - b.means()[0, 0] == 0.0
        assert (a.value[0, :, 0] - b.value[0, :, 0] == 0.0).all()


class TestStandardErrors:
    def test_antithetic_error_uses_pair_means(self):
        euro = step_set(desk_paths(), PUT_PAYOFF, PUT_BASIS).european[0]
        pairs = euro.reshape(-1, 2).mean(axis=1)
        expected = pairs.std(ddof=1) / np.sqrt(pairs.size)
        assert std_error(euro, True) == pytest.approx(expected, rel=1e-12)

    def test_plain_error_uses_path_spread(self):
        paths = generate_paths(PUT_MODEL, PUT_SCHEDULE, 4000, seed=8, antithetic=False)
        euro = step_set(paths, PUT_PAYOFF, PUT_BASIS).european[0]
        expected = euro.std(ddof=1) / np.sqrt(4000)
        assert std_error(euro, False) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("case", [PUT_SINGLE, BASKET_CALL])
def test_payout_matrix_is_date_major(case):
    payoff = PayoffSpec(case, strike=100.0)
    rng = np.random.default_rng(4)
    values = rng.lognormal(np.log(100.0), 0.2, size=(300, 4, payoff.n_assets))
    paths = PathSet(values=values, times=np.array([0.25, 0.5, 0.75, 1.0]), rate=0.05)
    z = payout_matrix(paths, payoff)
    assert z.shape == (300, 4) and z.T.flags.c_contiguous
    for i, t in enumerate(paths.times):
        expected = discounted_payout(payoff, values[:, i, :], float(t), paths.rate)
        assert z[:, i].tobytes() == expected.tobytes()


BESTOF_MODEL = GbmModel(
    spot=[100.0] * 2, rate=0.05, dividend=[0.10] * 2, vol=[0.20] * 2, correlation=np.eye(2)
)


@pytest.mark.parametrize(
    "model, n_dates, case, m",
    [
        (PUT_MODEL, 5, PUT_SINGLE, 5),
        (BESTOF_MODEL, 9, BESTOF_CALL, 11),
        (BASKET_MODEL, 10, BASKET_CALL, 16),
    ],
    ids=["put", "bestof", "basket"],
)
def test_no_reader_depends_on_the_path_layout(model, n_dates, case, m):
    # generate_paths stores the paths date-major; a path-major copy of the
    # same values must price to the same bits
    paths = generate_paths(model, uniform_schedule(n_dates, 1.0), 2000, seed=11)
    path_major = dataclasses.replace(paths, values=np.ascontiguousarray(paths.values))
    assert path_major.values.flags.c_contiguous and not paths.values.flags.c_contiguous
    payoff, basis = PayoffSpec(case, strike=100.0), basis_family(case, m)
    stack, copied = step_set(paths, payoff, basis), step_set(path_major, payoff, basis)
    for name in ("european", "value", "flips", "ranks"):
        assert (getattr(stack, name) == getattr(copied, name)).all(), name
    policy = ExercisePolicy.fitted(paths, payoff, basis)
    copied_policy = ExercisePolicy.fitted(path_major, payoff, basis)
    np.testing.assert_array_equal(policy.coefficients, copied_policy.coefficients)
    assert policy.ranks == copied_policy.ranks


def test_european_zero_vol_is_the_discounted_forward_payoff():
    model = GbmModel(spot=[100.0], rate=0.05, dividend=[0.02], vol=[0.0], correlation=[[1.0]])
    paths = generate_paths(model, PUT_SCHEDULE, 16, seed=0)
    euro = step_set(paths, PayoffSpec(PUT_SINGLE, strike=120.0), PUT_BASIS).european[0]
    expected = np.exp(-0.05) * (120.0 - 100.0 * np.exp(0.03))
    assert euro.mean() == pytest.approx(expected, rel=1e-12)


def test_rank_zero_regression_is_a_numerical_error():
    # a deep out-of-the-money put with only the payoff as regressor gives an
    # all-zero design matrix at every early date
    from lsmc.errors import NumericalError

    paths = desk_paths(n=64)
    payoff = PayoffSpec(PUT_SINGLE, strike=1e-6)
    basis = BasisSpec(PUT_SINGLE, (BasisTerm("payoff"),))
    with pytest.raises(NumericalError, match="rank-zero"):
        step_set(paths, payoff, basis)


@pytest.mark.filterwarnings("ignore:3 paths for 2 regressors")
def test_custom_basis_without_payoff_term_is_usable():
    # the engine only requires evaluable terms; a (1, S) basis prices the toy
    basis = BasisSpec(PUT_SINGLE, (BasisTerm("const"), BasisTerm("mono", (1,))))
    stack = step_set(toy_paths(), TOY_PAYOFF, basis)
    assert stack.means()[0, 0] == pytest.approx(37.0 / 3.0, abs=1e-12)
    assert stack.ranks[0].tolist() == [2]
