"""Payoff evaluation and basis family ordering."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lsmc.contracts import (
    BASKET_CALL,
    BESTOF_CALL,
    PUT_SINGLE,
    PayoffSpec,
    basis_family,
    design_matrix,
    discounted_payout,
)


class TestPayoffs:
    def test_at_the_money_put_is_worthless(self):
        spec = PayoffSpec(PUT_SINGLE, strike=100.0)
        assert discounted_payout(spec, np.array([[100.0]]), 0.7, 0.05) == 0.0

    def test_bestof_call_discounted_value(self):
        spec = PayoffSpec(BESTOF_CALL, strike=100.0)
        (value,) = discounted_payout(spec, np.array([[90.0, 110.0]]), 1.0, 0.05)
        assert value == pytest.approx(math.exp(-0.05) * 10.0)
        assert value == pytest.approx(9.5123, abs=5e-5)

    def test_basket_at_the_money_zero_rate(self):
        spec = PayoffSpec(BASKET_CALL, strike=100.0)
        assert discounted_payout(spec, np.array([[100.0] * 4]), 2.5, 0.0) == 0.0

    def test_batched_evaluation_matches_scalar(self):
        # each state alone is a one-row batch
        spec = PayoffSpec(BESTOF_CALL, strike=100.0)
        states = np.array([[90.0, 110.0], [120.0, 95.0], [80.0, 70.0]])
        batch = discounted_payout(spec, states, 1.0, 0.05)
        rows = [discounted_payout(spec, s[None, :], 1.0, 0.05) for s in states]
        assert batch.tobytes() == np.concatenate(rows).tobytes()

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown payoff kind"):
            PayoffSpec("chooser", strike=100.0)
        with pytest.raises(ValueError, match="strike"):
            PayoffSpec(PUT_SINGLE, strike=0.0)
        with pytest.raises(ValueError, match="asset"):
            discounted_payout(PayoffSpec(PUT_SINGLE, strike=100.0), np.ones((1, 2)), 1.0, 0.0)

    @settings(max_examples=50, deadline=None)
    @given(
        kind=st.sampled_from([PUT_SINGLE, BESTOF_CALL, BASKET_CALL]),
        strike=st.floats(1.0, 300.0),
        seed=st.integers(0, 2**31),
        t=st.floats(0.01, 10.0),
    )
    def test_nonnegative_for_all_kinds(self, kind, strike, seed, t):
        spec = PayoffSpec(kind, strike=strike)
        states = np.random.default_rng(seed).uniform(1.0, 400.0, size=(20, spec.n_assets))
        assert (np.asarray(discounted_payout(spec, states, t, 0.05)) >= 0.0).all()

    @settings(max_examples=50, deadline=None)
    @given(t1=st.floats(0.01, 5.0), dt=st.floats(0.0, 5.0))
    def test_discounting_monotone_in_time(self, t1, dt):
        spec = PayoffSpec(PUT_SINGLE, strike=100.0)
        state = np.array([[70.0]])
        assert discounted_payout(spec, state, t1 + dt, 0.05) <= discounted_payout(
            spec, state, t1, 0.05
        ) + 1e-15


class TestBasisFamilies:
    def test_put_m5_reaches_cubic(self):
        spec = basis_family(PUT_SINGLE, 5)
        assert spec.labels == ("1", "Z", "S1", "S1^2", "S1^3")

    def test_put_m12_reaches_tenth_power(self):
        assert basis_family(PUT_SINGLE, 12).labels[-1] == "S1^10"

    def test_bestof_m11_exact_ordering(self):
        spec = basis_family(BESTOF_CALL, 11)
        assert spec.labels == (
            "1", "Z", "S1", "S2", "S1^2", "S1*S2", "S2^2",
            "S1^3", "S1^2*S2", "S1*S2^2", "S2^3",
        )

    def test_basket_subsets(self):
        assert basis_family(BASKET_CALL, 6).labels == ("1", "Z", "S1", "S2", "S3", "S4")
        assert basis_family(BASKET_CALL, 10).labels[6:] == ("S1^2", "S2^2", "S3^2", "S4^2")
        assert basis_family(BASKET_CALL, 16).labels[10:] == (
            "S1*S2", "S1*S3", "S1*S4", "S2*S3", "S2*S4", "S3*S4",
        )

    @pytest.mark.parametrize(
        "case,sizes",
        [
            (PUT_SINGLE, (2, 4, 5, 8, 12)),
            (BESTOF_CALL, (4, 7, 11)),
            (BASKET_CALL, (6, 10, 16)),
        ],
    )
    def test_families_nest_by_prefix(self, case, sizes):
        for small, large in zip(sizes, sizes[1:]):
            small_terms = basis_family(case, small).terms
            assert basis_family(case, large).terms[:small] == small_terms

    def test_unsupported_sizes_list_the_valid_ones(self):
        with pytest.raises(ValueError, match=r"\(4, 7, 11\)"):
            basis_family(BESTOF_CALL, 9)
        with pytest.raises(ValueError, match=r"\(6, 10, 16\)"):
            basis_family(BASKET_CALL, 12)
        with pytest.raises(ValueError, match="m >= 2"):
            basis_family(PUT_SINGLE, 1)


class TestBasisRows:
    def test_put_row_values(self):
        spec = basis_family(PUT_SINGLE, 5)
        (row,) = design_matrix(spec, np.array([[100.0]]), np.array([6.0]))
        assert row == pytest.approx([1.0, 6.0, 100.0, 10_000.0, 1_000_000.0])

    def test_bestof_row_values(self):
        spec = basis_family(BESTOF_CALL, 7)
        (row,) = design_matrix(spec, np.array([[90.0, 110.0]]), np.array([9.5123]))
        assert row == pytest.approx([1.0, 9.5123, 90.0, 110.0, 8100.0, 9900.0, 12100.0])

    def test_zero_payout_zeroes_only_the_payoff_entry(self):
        spec = basis_family(PUT_SINGLE, 4)
        (row,) = design_matrix(spec, np.array([[140.0]]), np.array([0.0]))
        assert row == pytest.approx([1.0, 0.0, 140.0, 19_600.0])

    def test_design_matrix_stacks_rows(self):
        spec = basis_family(BASKET_CALL, 16)
        rng = np.random.default_rng(0)
        states = rng.uniform(50.0, 150.0, size=(15, 4))
        z = rng.uniform(0.0, 30.0, size=15)
        matrix = design_matrix(spec, states, z)
        assert matrix.shape == (15, 16)
        for n in (0, 7, 14):
            (row,) = design_matrix(spec, states[n : n + 1], z[n : n + 1])
            assert matrix[n] == pytest.approx(row)


def per_column_design_matrix(spec, states, z):
    """The original per-column construction, ones * s_1 ** e_1 * ...: the
    reference every design matrix must match bit for bit."""
    n = states.shape[0]
    cols = np.empty((n, spec.m))
    for k, term in enumerate(spec.terms):
        if term.kind == "const":
            cols[:, k] = 1.0
        elif term.kind == "payoff":
            cols[:, k] = z
        else:
            col = np.ones(n)
            for j, e in enumerate(term.exponents):
                if e:
                    col = col * states[:, j] ** e
            cols[:, k] = col
    return cols


@pytest.mark.parametrize(
    "case, m",
    [(PUT_SINGLE, m) for m in range(2, 13)]
    + [(BESTOF_CALL, m) for m in (4, 7, 11)]
    + [(BASKET_CALL, m) for m in (6, 10, 16)],
)
def test_design_matrix_is_bit_identical_to_per_column_terms(case, m):
    # prices, flips and fingerprints rest on these bits: squares must stay
    # products and higher powers must stay pow
    spec = basis_family(case, m)
    payoff = PayoffSpec(case, strike=100.0)
    rng = np.random.default_rng(m)
    values = rng.lognormal(np.log(100.0), 0.3, size=(500, 3, payoff.n_assets))
    states = values[:, 1, :]  # a strided date slice, as the backward pass passes it
    z = discounted_payout(payoff, states, 0.5, 0.05)
    matrix = design_matrix(spec, states, z)
    assert matrix.shape == (500, m) and matrix.T.flags.c_contiguous  # term-major
    assert matrix.tobytes() == per_column_design_matrix(spec, states, z).tobytes()
