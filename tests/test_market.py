"""Path simulation: correlation factors, exactness, determinism, chunking."""

import hashlib

import numpy as np
import pytest

from lsmc.market import (
    ExerciseSchedule,
    GbmModel,
    correlation_factor,
    generate_paths,
    uniform_schedule,
)

PUT_MODEL = GbmModel(
    spot=[100.0], rate=0.05, dividend=[0.02], vol=[0.20], correlation=[[1.0]]
)
BESTOF_MODEL = GbmModel(
    spot=[100.0, 100.0],
    rate=0.05,
    dividend=[0.10, 0.10],
    vol=[0.20, 0.20],
    correlation=np.eye(2),
)
BASKET_MODEL = GbmModel(
    spot=[100.0] * 4,
    rate=0.0,
    dividend=[0.0] * 4,
    vol=[0.40] * 4,
    correlation=np.full((4, 4), 0.5) + 0.5 * np.eye(4),
)
PUT_SCHEDULE = uniform_schedule(5, 1.0)


class TestValidation:
    def test_schedule_rejects_time_zero(self):
        with pytest.raises(ValueError, match="strictly positive"):
            ExerciseSchedule(np.array([0.0, 0.5, 1.0]))
        with pytest.raises(ValueError, match="strictly increasing"):
            ExerciseSchedule(np.array([0.5, 0.5, 1.0]))

    def test_model_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="positive"):
            GbmModel(spot=[-1.0], rate=0.0, dividend=[0.0], vol=[0.2], correlation=[[1.0]])
        with pytest.raises(ValueError, match="unit diagonal"):
            GbmModel(spot=[1.0, 1.0], rate=0.0, dividend=[0.0, 0.0], vol=[0.2, 0.2],
                     correlation=[[0.9, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="positive semidefinite"):  # when built
            GbmModel(spot=[1.0, 1.0], rate=0.0, dividend=[0.0, 0.0], vol=[0.2, 0.2],
                     correlation=[[1.0, 1.2], [1.2, 1.0]])

    def test_antithetic_needs_even_path_count(self):
        with pytest.raises(ValueError, match="even"):
            generate_paths(PUT_MODEL, PUT_SCHEDULE, 101, seed=1, antithetic=True)


class TestCorrelationFactor:
    def test_identity(self):
        assert correlation_factor(np.eye(2)) == pytest.approx(np.eye(2))

    def test_two_asset_half_correlation_closed_form(self):
        chol = correlation_factor(np.array([[1.0, 0.5], [0.5, 1.0]]))
        assert chol == pytest.approx(np.array([[1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0]]))

    def test_basket_case_reconstructs(self):
        rho = np.full((4, 4), 0.5) + 0.5 * np.eye(4)
        chol = correlation_factor(rho)
        assert np.abs(chol @ chol.T - rho).max() < 1e-12
        assert np.allclose(chol, np.tril(chol))

    def test_indefinite_rejected(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            correlation_factor(np.array([[1.0, 1.2], [1.2, 1.0]]))

    def test_singular_but_psd_gets_floored_factor(self):
        rho = np.ones((2, 2))  # perfectly correlated, exactly singular
        chol = correlation_factor(rho)
        assert np.abs(chol @ chol.T - rho).max() < 1e-5


class TestGeneratePaths:
    def test_zero_vol_is_pure_drift(self):
        model = GbmModel(spot=[100.0], rate=0.05, dividend=[0.02], vol=[0.0],
                         correlation=[[1.0]])
        paths = generate_paths(model, PUT_SCHEDULE, 8, seed=0)
        expected = 100.0 * np.exp(0.03 * PUT_SCHEDULE.times)
        for n in range(8):
            assert paths.values[n, :, 0] == pytest.approx(expected, rel=1e-14)

    def test_antithetic_pairs_mirror_log_moves(self):
        paths = generate_paths(PUT_MODEL, PUT_SCHEDULE, 64, seed=3)
        forward = 100.0 * np.exp(0.03 * PUT_SCHEDULE.times)
        log_even = np.log(paths.values[0::2, :, 0] / forward)
        log_odd = np.log(paths.values[1::2, :, 0] / forward)
        # mirrored Gaussians shift the deterministic -vol^2/2 * t term equally
        drift = -0.5 * 0.2**2 * PUT_SCHEDULE.times
        assert log_even + log_odd == pytest.approx(np.tile(2 * drift, (32, 1)), abs=1e-12)

    def test_positive_and_deterministic(self):
        a = generate_paths(BASKET_MODEL, uniform_schedule(10, 5.0), 512, seed=9)
        b = generate_paths(BASKET_MODEL, uniform_schedule(10, 5.0), 512, seed=9)
        assert (a.values > 0.0).all()
        np.testing.assert_array_equal(a.values, b.values)
        c = generate_paths(BASKET_MODEL, uniform_schedule(10, 5.0), 512, seed=10)
        assert not np.array_equal(a.values, c.values)

    def test_terminal_mean_matches_lognormal_moment(self):
        # put-case forward at T=1 is 100 * exp(0.03)
        paths = generate_paths(PUT_MODEL, PUT_SCHEDULE, 100_000, seed=2024)
        terminal = paths.values[:, -1, 0]
        pair_means = terminal.reshape(-1, 2).mean(axis=1)
        se = pair_means.std(ddof=1) / np.sqrt(pair_means.size)
        assert abs(terminal.mean() - 100.0 * np.exp(0.03)) < 3.0 * se

    @pytest.mark.parametrize(
        "model,schedule",
        [
            (PUT_MODEL, PUT_SCHEDULE),
            (BESTOF_MODEL, uniform_schedule(9, 3.0)),
            (BASKET_MODEL, uniform_schedule(10, 5.0)),
        ],
        ids=["put", "bestof", "basket"],
    )
    def test_martingale_at_one_million_paths(self, model, schedule):
        paths = generate_paths(model, schedule, 1_000_000, seed=77)
        t_final = schedule.maturity
        for j in range(model.n_assets):
            deflated = np.exp(-(model.rate - model.dividend[j]) * t_final) * paths.values[:, -1, j]
            pair_means = deflated.reshape(-1, 2).mean(axis=1)
            se = pair_means.std(ddof=1) / np.sqrt(pair_means.size)
            assert abs(deflated.mean() - model.spot[j]) < 4.0 * se

    def test_antithetic_reduces_european_put_variance(self):
        n = 100_000
        anti = generate_paths(PUT_MODEL, PUT_SCHEDULE, n, seed=55, antithetic=True)
        plain = generate_paths(PUT_MODEL, PUT_SCHEDULE, n, seed=55, antithetic=False)
        payoff_anti = np.exp(-0.05) * np.maximum(100.0 - anti.values[:, -1, 0], 0.0)
        payoff_plain = np.exp(-0.05) * np.maximum(100.0 - plain.values[:, -1, 0], 0.0)
        var_anti = payoff_anti.reshape(-1, 2).mean(axis=1).var(ddof=1) / (n // 2)
        var_plain = payoff_plain.var(ddof=1) / n
        assert var_anti <= var_plain


# sha256 of generate_paths(model, schedule, 64, seed=12345, antithetic).values,
# recorded before the correlation product became one flattened matrix product;
# any change to the arithmetic of path generation moves these digests.
PATH_DIGESTS = {
    ("put", True): "dbe80b2226a66c0bc4b42ae2cf1fa6ab434a69f98d21977f7379f83b0a3b5c4f",
    ("put", False): "001194004834059baab573e3725e5864912ca5987ed001982098233c139c929b",
    ("bestof", True): "ab7a6a29ceb32a93ae223c4a2b01d09d7acac709d4e699d9d5e6c55dbb843073",
    ("bestof", False): "18f476b04c46356331d111606cd6183835aa6db91f3ba10972819dccdf4220ef",
    ("basket", True): "e7540c3187e15b20c98d11395c04a37c27d47cd6ead7c5d0d1c6a54766cd83f3",
    ("basket", False): "173bde23315a6570eaddbe2157ab72e88e3c93764d34562fbbde2567b6ffb702",
}


@pytest.mark.parametrize("family, antithetic", sorted(PATH_DIGESTS))
def test_path_bits_are_pinned(family, antithetic):
    model, n_dates, maturity = {
        "put": (PUT_MODEL, 5, 1.0),
        "bestof": (BESTOF_MODEL, 9, 3.0),
        "basket": (BASKET_MODEL, 10, 5.0),
    }[family]
    paths = generate_paths(model, uniform_schedule(n_dates, maturity), 64, 12345, antithetic)
    digest = hashlib.sha256(paths.values.tobytes()).hexdigest()
    assert digest == PATH_DIGESTS[family, antithetic]


FAMILIES = {
    "put": (PUT_MODEL, uniform_schedule(5, 1.0)),
    "bestof": (BESTOF_MODEL, uniform_schedule(9, 3.0)),
    "basket": (BASKET_MODEL, uniform_schedule(10, 5.0)),
}


@pytest.mark.parametrize("antithetic", [True, False])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_chunks_are_slices_of_the_pool(family, antithetic):
    # a pool generated chunk by chunk is the pool, bit for bit, whichever
    # rows a chunk starts at: first, mid-pool off any chunk grid, or last
    model, schedule = FAMILIES[family]
    pool = generate_paths(model, schedule, 1000, 77, antithetic)
    for offset in (0, 398, 800):
        chunk = generate_paths(model, schedule, 200, 77, antithetic, offset=offset)
        assert chunk.values.tobytes() == pool.values[offset : offset + 200].tobytes()


@pytest.mark.parametrize("antithetic", [True, False])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_paths_are_stored_date_major(family, antithetic):
    # values is the (N, I, J) view of an (I, J, N) buffer: each date's states,
    # and each asset's prices on a date, are contiguous, at any chunk offset
    model, schedule = FAMILIES[family]
    for offset in (0, 398):
        values = generate_paths(model, schedule, 200, 77, antithetic, offset=offset).values
        assert values.shape == (200, schedule.n_dates, model.n_assets)
        assert values.transpose(1, 2, 0).flags.c_contiguous
        for i in range(schedule.n_dates):
            assert values[:, i, :].T.flags.c_contiguous


@pytest.mark.parametrize("offset", [-2, 3])
def test_antithetic_chunk_must_start_on_a_pair(offset):
    with pytest.raises(ValueError, match="offset"):
        generate_paths(PUT_MODEL, PUT_SCHEDULE, 64, 1, antithetic=True, offset=offset)
