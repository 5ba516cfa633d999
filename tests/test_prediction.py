import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tenscache.prediction as prediction_mod
from tenscache.prediction import (
    DemandHistory,
    PredictorConfig,
    fit_predict,
    normalize_demands,
)

RNG = np.random.default_rng(23)


def random_simplex(rng, n):
    p = rng.random(n) + 1e-3
    return p / p.sum()


def history_from_slots(slot_list):
    """Stack per-slot (F,) share vectors into a single-BS DemandHistory."""
    return DemandHistory(np.stack(slot_list)[:, :, None])


class TestNormalizeDemands:
    def test_single_file_takes_all(self):
        d = np.zeros((3, 3, 2, 4))
        d[1, 0, :, :] = 5.0
        hist = normalize_demands(d)
        np.testing.assert_allclose(hist.shares[:, 1, :], 1.0)
        assert hist.shares[:, 0, :].max() == 0.0

    def test_uniform_tensor(self):
        d = np.ones((4, 4, 2, 3))
        hist = normalize_demands(d)
        np.testing.assert_allclose(hist.shares, 0.25)

    def test_two_file_ratio(self):
        # file 1 mass 6, file 2 mass 2 -> shares (0.75, 0.25)
        d = np.zeros((2, 2, 1, 1))
        d[0, 0, 0, 0], d[0, 1, 0, 0] = 4.0, 2.0
        d[1, 0, 0, 0], d[1, 1, 0, 0] = 1.5, 0.5
        hist = normalize_demands(d)
        np.testing.assert_allclose(hist.shares[0, :, 0], [0.75, 0.25])

    def test_zero_slot_uniform_fallback(self):
        d = np.zeros((5, 5, 2, 2))
        d[:, :, 0, 0] = 1.0  # only (bs 0, slot 0) has mass
        hist = normalize_demands(d)
        np.testing.assert_allclose(hist.shares[1, :, 1], 0.2)

    def test_negative_entries_clipped(self):
        d = np.full((2, 2, 1, 1), -1.0)
        d[0, 0, 0, 0] = 3.0
        hist = normalize_demands(d)
        np.testing.assert_allclose(hist.shares[0, :, 0], [1.0, 0.0])

    def test_negative_entries_read_as_their_clip_bitwise(self):
        # a completed window is clipped here; the raw shares of an observed
        # window go through the same clip
        d = np.moveaxis(RNG.random((5, 16, 16, 2)) - 0.3, 0, -1)  # a window view, as run_online's
        d[:, :, 1, 2] = -1.0  # an all-negative slice reads uniform
        want = normalize_demands(np.clip(d, 0.0, None)).shares
        assert normalize_demands(d).shares.tobytes() == want.tobytes()
        np.testing.assert_array_equal(want[2, :, 1], 1.0 / 16)

    def test_aggregation_axis_switch(self):
        # mass is credited to the primary (row) file, as hit_rate scores it:
        # moving it across the diagonal switches the credited file
        d = np.zeros((2, 2, 1, 1))
        d[0, 1, 0, 0] = 1.0  # primary file 1, recommended file 2
        np.testing.assert_allclose(normalize_demands(d).shares[0, :, 0], [1.0, 0.0])
        np.testing.assert_allclose(
            normalize_demands(d.transpose(1, 0, 2, 3)).shares[0, :, 0], [0.0, 1.0]
        )


class TestFitPredict:
    def test_stationary_history_reproduced(self):
        p = random_simplex(RNG, 6)
        hist = history_from_slots([p] * 8)
        for mode in ("lp", "mean"):
            fc = fit_predict(hist, PredictorConfig(order=3, mode=mode), 0)
            np.testing.assert_allclose(fc.shares, p, atol=1e-9)

    def test_known_recursion_recovered(self):
        rng = np.random.default_rng(0)
        slots = [random_simplex(rng, 8), random_simplex(rng, 8)]
        for _ in range(10):
            slots.append(0.5 * slots[-1] + 0.5 * slots[-2])
        truth_next = 0.5 * slots[-1] + 0.5 * slots[-2]
        hist = history_from_slots(slots)
        fc = fit_predict(hist, PredictorConfig(order=2), 0)
        np.testing.assert_allclose(fc.coefficients, [0.5, 0.5], atol=1e-6)
        assert np.abs(fc.shares - truth_next).max() <= 1e-6

    def test_mean_mode_is_window_average(self):
        rng = np.random.default_rng(1)
        slots = [random_simplex(rng, 5) for _ in range(4)]
        hist = history_from_slots(slots)
        fc = fit_predict(hist, PredictorConfig(order=3, mode="mean"), 0)
        np.testing.assert_allclose(fc.shares, np.mean(slots[-3:], axis=0), atol=1e-12)

    def test_order_one_lp_equals_mean(self):
        rng = np.random.default_rng(2)
        slots = [random_simplex(rng, 5) for _ in range(5)]
        hist = history_from_slots(slots)
        lp = fit_predict(hist, PredictorConfig(order=1, mode="lp"), 0)
        mean = fit_predict(hist, PredictorConfig(order=1, mode="mean"), 0)
        np.testing.assert_allclose(lp.shares, mean.shares, atol=1e-12)

    def test_window_too_short_rejected(self):
        hist = history_from_slots([random_simplex(RNG, 4)] * 3)
        with pytest.raises(ValueError):
            fit_predict(hist, PredictorConfig(order=3), 0)

    def test_unconstrained_optimum_returned_when_feasible(self):
        # recursion coefficients already satisfy the sum-to-one constraint, so
        # the constrained solve must match the plain normal-equations oracle
        rng = np.random.default_rng(3)
        slots = [random_simplex(rng, 10), random_simplex(rng, 10)]
        for _ in range(12):
            slots.append(0.7 * slots[-1] + 0.3 * slots[-2])
        hist = history_from_slots(slots)
        fc = fit_predict(hist, PredictorConfig(order=2), 0)
        a, y = _oracle_system(np.stack(slots), 2)
        oracle = np.linalg.solve(a.T @ a, a.T @ y)
        np.testing.assert_allclose(fc.coefficients, oracle, atol=1e-8)

    def test_file_permutation_equivariance(self):
        rng = np.random.default_rng(4)
        slots = [random_simplex(rng, 7) for _ in range(9)]
        hist = history_from_slots(slots)
        perm = rng.permutation(7)
        hist_p = history_from_slots([s[perm] for s in slots])
        cfg = PredictorConfig(order=3)
        fc = fit_predict(hist, cfg, 0)
        fc_p = fit_predict(hist_p, cfg, 0)
        np.testing.assert_allclose(fc_p.shares, fc.shares[perm], atol=1e-9)

    def test_failed_solve_falls_back_to_mean(self, monkeypatch):
        monkeypatch.setattr(prediction_mod, "_solve_constrained", lambda *a: None)
        slots = [random_simplex(np.random.default_rng(6), 5) for _ in range(6)]
        hist = history_from_slots(slots)
        fc = fit_predict(hist, PredictorConfig(order=2, mode="lp"), 0)
        assert fc.used_fallback
        np.testing.assert_allclose(fc.coefficients, [0.5, 0.5])


def _oracle_system(shares, m_order):
    tau, f = shares.shape[0], shares.shape[1]
    rows_a, rows_y = [], []
    for j in range(tau - m_order):
        s = tau - 1 - j
        rows_y.append(shares[s, :, 0] if shares.ndim == 3 else shares[s])
        rows_a.append(
            np.stack(
                [shares[s - m, :, 0] if shares.ndim == 3 else shares[s - m]
                 for m in range(1, m_order + 1)],
                axis=1,
            )
        )
    return np.concatenate(rows_a), np.concatenate(rows_y)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=10**6),
)
def test_forecast_on_simplex_property(num_files, m_order, seed):
    rng = np.random.default_rng(seed)
    window = m_order + 1 + int(rng.integers(0, 4))
    slots = [random_simplex(rng, num_files) for _ in range(window)]
    hist = history_from_slots(slots)
    for mode in ("lp", "mean"):
        fc = fit_predict(hist, PredictorConfig(order=m_order, mode=mode), 0)
        assert (fc.shares >= 0).all()
        assert abs(fc.shares.sum() - 1.0) <= 1e-6
