"""Acceptance suite: one test per release criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v`` (the per-criterion lines are
written straight to the terminal, bypassing capture).
"""

import sys
import time

import numpy as np
import pytest

from tenscache.caching import OnlineConfig, run_online
from tenscache.completion import FwConfig, beta_invariance_check, complete, line_search
from tenscache.ingest import synth_low_rank, synth_lowrank_stream
from tenscache.prediction import DemandHistory, PredictorConfig, fit_predict
from tenscache.tensors import SparseTensor, UnfoldSpec, fold, unfold


@pytest.fixture()
def report(capfd):
    """Print one [PASS]/[FAIL] line per criterion on the real terminal."""

    def _report(criterion: str, ok: bool, detail: str = ""):
        status = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        with capfd.disabled():
            print(f"[{status}] {criterion}{suffix}", flush=True)
        assert ok, f"{criterion}{suffix}"

    return _report


def _criterion1_fixture(seed=1):
    ranks = (2, 2, 2, 2)
    obs, truth = synth_low_rank((40, 40, 3, 10), ranks, observe_fraction=0.5, seed=seed)
    return obs, sum(ranks)


def test_criterion_1_exact_recovery(report):
    obs, budget = _criterion1_fixture()
    start = time.perf_counter()
    _, trace = complete(obs, FwConfig(rank_budget=budget))
    elapsed = time.perf_counter() - start
    rse = trace[-1].rse
    iters = len(trace) - 1
    ok = rse <= 1e-6 and iters <= budget and elapsed < 5.0
    report(
        "criterion 1: exact recovery at matching rank budget",
        ok,
        f"rse={rse:.2e}, iters={iters}/{budget}, {elapsed:.2f}s",
    )


def test_criterion_2_beta_invariance(report):
    obs, budget = _criterion1_fixture()
    start = time.perf_counter()
    ok = beta_invariance_check(obs, FwConfig(rank_budget=budget), [1.0, 1e5, 1e9], rel_tol=1e-8)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    report(
        "criterion 2: beta-invariance of iterates and gamma*beta products",
        ok,
        f"{elapsed:.2f}s",
    )


def test_criterion_3_multirank_vs_rank1(report):
    obs, budget = _criterion1_fixture()
    _, trace_multi = complete(obs, FwConfig(rank_budget=budget, update_rule="multi"))
    _, trace_r1 = complete(obs, FwConfig(rank_budget=budget, update_rule="rank1"))

    def iters_to(trace, tol):
        return next((row.iteration for row in trace if row.rse <= tol), np.inf)

    final_ok = trace_multi[-1].rse <= trace_r1[-1].rse
    speed_ok = iters_to(trace_multi, 1e-3) < iters_to(trace_r1, 1e-3)
    report(
        "criterion 3: multi-rank dominates rank-1 at equal budget",
        final_ok and speed_ok,
        f"final {trace_multi[-1].rse:.2e} vs {trace_r1[-1].rse:.2e}, "
        f"iters-to-1e-3 {iters_to(trace_multi, 1e-3)} vs {iters_to(trace_r1, 1e-3)}",
    )


def test_criterion_4_line_search_matches_grid_oracle(report):
    rng = np.random.default_rng(17)
    gammas = np.arange(0.0, 10.0 + 1e-9, 1e-4)
    shape = (4, 5, 6)
    total = int(np.prod(shape))
    worst = 0.0
    for _ in range(100):
        flat = rng.choice(total, size=25, replace=False)
        idx = np.stack(np.unravel_index(flat, shape, order="F"), axis=1)
        t = SparseTensor(shape, idx, rng.normal(size=25))
        x = rng.normal(size=shape)
        s = rng.normal(size=shape)
        residual = t.gather(x) - t.values
        gamma0 = line_search(residual, t.gather(s))
        if gamma0 == 0.0:
            s, gamma0 = -s, line_search(residual, t.gather(-s))
        s *= gamma0 / rng.uniform(0.1, 9.0)
        gamma = line_search(residual, t.gather(s))
        obs_x, obs_s = t.gather(x), t.gather(s)
        objective = ((obs_x[None, :] - gammas[:, None] * obs_s[None, :] - t.values) ** 2).sum(axis=1)
        worst = max(worst, abs(gamma - gammas[int(np.argmin(objective))]))
    report(
        "criterion 4: closed-form step size matches grid-search oracle",
        worst <= 1e-4 + 1e-9,
        f"worst |gamma - grid| = {worst:.2e} over 100 fixtures",
    )


def test_criterion_5_unfold_fold_round_trip(report):
    rng = np.random.default_rng(23)
    shapes = [
        (2, 3, 4), (6, 6, 6), (5, 2, 6), (3, 3, 3), (4, 6, 2),
        (2, 3, 4, 5), (6, 5, 4, 3), (2, 2, 6, 2), (3, 4, 3, 4),
        (2, 3, 2, 4, 3), (6, 2, 3, 2, 4), (2, 2, 2, 2, 2),
    ]
    checked = 0
    ok = True
    for shape in shapes:
        n = len(shape)
        x = rng.normal(size=shape)
        for k in range(1, n + 1):
            for d in range(1, n):
                spec = UnfoldSpec(k, d)
                ok = ok and np.array_equal(fold(unfold(x, spec), spec, shape), x)
                checked += 1
    report(
        "criterion 5: unfold/fold round-trip exact over all (k, d)",
        ok,
        f"{checked} (shape, k, d) combinations, orders 3-5, dims <= 6",
    )


def test_criterion_6_rank_ledger(report):
    rng = np.random.default_rng(29)
    ok = True
    for run in range(50):
        order = int(rng.integers(3, 5))
        shape = tuple(int(rng.integers(3, 9)) for _ in range(order))
        ranks = tuple(int(rng.integers(1, 3)) for _ in range(order))
        budget = int(rng.integers(2, 12))
        frac = float(rng.uniform(0.3, 0.9))
        obs, _ = synth_low_rank(shape, ranks, observe_fraction=frac, seed=run)
        state, trace = complete(obs, FwConfig(rank_budget=budget))
        # consumption only grows, so the final ledger bounds every iteration
        ok = ok and state.consumed_total() <= budget
        ok = ok and (len(trace) - 1) <= budget
        for k, consumed in state.consumed.items():
            rows, cols = UnfoldSpec(k, 1).matrix_dims(shape)
            ok = ok and consumed <= min(rows, cols)
    report("criterion 6: rank ledger and iteration count bounded by budget", ok,
            "50 random solver runs")


def test_criterion_7_paper_scale_runtime(report):
    obs, _ = synth_low_rank((128, 128, 3, 10), (2, 2, 2, 2), observe_fraction=0.1, seed=3)
    start = time.perf_counter()
    _, trace = complete(obs, FwConfig(rank_budget=8))
    elapsed = time.perf_counter() - start
    report(
        "criterion 7: 128x128x3x10 run at R=2N completes within 2 s",
        elapsed <= 2.0,
        f"{elapsed:.3f}s, {len(trace) - 1} iterations, final rse {trace[-1].rse:.2e}",
    )


def test_criterion_8_predictor_recovery(report):
    rng = np.random.default_rng(31)

    def simplex(n):
        p = rng.random(n) + 1e-3
        return p / p.sum()

    slots = [simplex(16), simplex(16)]
    for _ in range(10):
        slots.append(0.5 * slots[-1] + 0.5 * slots[-2])
    truth_next = 0.5 * slots[-1] + 0.5 * slots[-2]
    hist = DemandHistory(np.stack(slots)[:, :, None])
    fc = fit_predict(hist, PredictorConfig(order=2), 0)
    coeff_err = float(np.abs(fc.coefficients - 0.5).max())
    forecast_err = float(np.abs(fc.shares - truth_next).max())
    report(
        "criterion 8: order-2 recursion coefficients and forecast recovered",
        coeff_err <= 1e-6 and forecast_err <= 1e-6,
        f"coeff err {coeff_err:.2e}, forecast err {forecast_err:.2e}",
    )


def _paired_caching_runs(seed):
    observed, truth = synth_lowrank_stream(24, 3, 200, observe_fraction=0.05, seed=seed)
    base = dict(tau=8, order=4, cache_size=6, predictors=("mean",), shift=2)
    [on] = run_online(observed, OnlineConfig(completion=True, rank_budgets=(16,), **base), truth)
    [off] = run_online(observed, OnlineConfig(completion=False, rank_budgets=(16,), **base), truth)
    return on, off


def test_criterion_9_caching_dominance(report):
    oracle_ok = True
    deltas = []
    for seed in (0, 1, 2):
        on, off = _paired_caching_runs(seed)
        for rep in (on, off):
            for got, oracle in zip(rep.outcomes, rep.oracle_outcomes):
                oracle_ok = oracle_ok and oracle.hit_rate >= got.hit_rate - 1e-12
        deltas.append(on.average() - off.average())
    dominance_ok = all(d >= 0.0 for d in deltas)
    report(
        "criterion 9: oracle dominates per slot; completion-on >= completion-off x3 seeds",
        oracle_ok and dominance_ok,
        "deltas " + ", ".join(f"{d:+.4f}" for d in deltas),
    )


def test_criterion_10_rank_insensitive_hit_rate(report):
    observed, truth = synth_lowrank_stream(24, 3, 200, observe_fraction=0.05, seed=0)
    base = dict(tau=8, order=4, cache_size=6, predictors=("mean",), shift=2, completion=True)
    budgets = (8, 16, 24)  # 2N, 4N, 6N at N=4
    reports = run_online(observed, OnlineConfig(rank_budgets=budgets, **base), truth)
    averages = [rep.average() for rep in reports]
    spread = (max(averages) - min(averages)) / max(averages)
    report(
        "criterion 10: average hit rate insensitive to rank budget (<= 5%)",
        spread <= 0.05,
        f"averages {[f'{a:.4f}' for a in averages]}, relative spread {spread:.3f}",
    )


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-v"]))
