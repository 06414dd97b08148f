"""The cohort-vectorised momentum backtest against the per-cohort loop.

`ref_panel_matrix` and `ref_run_backtest` below are the dict-to-matrix
rebuild and the loop over formation and holding months that the dense
`PanelData` and the vectorised `run_backtest` replaced. The new kernel
must reproduce them bit for bit (every monthly return, the cumulative
sum and the t-statistic), because it adds the same floats in the same
order, and must count the same months used and skipped.
"""

import hashlib
import struct

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from marketsolver import (
    BacktestResult,
    DegenerateSampleError,
    InsufficientDataError,
    MomentumConfig,
    PanelData,
    gen_momentum_panel,
    run_backtest,
    t_statistic,
)
from marketsolver.cli import main
from marketsolver.momentum import _rank, _window_sums

# ------------------------------------------------------ frozen reference


def ref_panel_matrix(panel):
    asset_idx = {a: i for i, a in enumerate(panel.assets)}
    month_idx = {m: j for j, m in enumerate(panel.months)}
    mat = np.full((len(panel.assets), len(panel.months)), np.nan)
    for i, j in zip(*np.nonzero(~np.isnan(panel.return_matrix))):
        asset, month = panel.assets[i], panel.months[j]
        mat[asset_idx[asset], month_idx[month]] = panel.return_matrix[i, j]
    return mat


def ref_run_backtest(panel, cfg):
    J, K, skip = cfg.formation_months, cfg.holding_months, cfg.skip_months
    M = len(panel.months)
    if M < J + K + skip + 1:
        raise InsufficientDataError("too short")
    R = ref_panel_matrix(panel)
    observed = ~np.isnan(R)
    history = observed.cumsum(axis=1)
    first_formation = J - 1 + skip
    winners, losers = {}, {}
    months_skipped = 0
    for c in range(first_formation, M - 1):
        w0 = c - skip - J + 1
        window = R[:, w0 : c - skip + 1]
        eligible = ~np.isnan(window).any(axis=1)
        eligible &= history[:, c] >= cfg.required_history
        idx = np.nonzero(eligible)[0]
        if idx.size < cfg.decile_count:
            months_skipped += 1
            continue
        scores = window[idx].sum(axis=1)
        order = idx[np.lexsort((idx, scores))]
        k = idx.size // cfg.decile_count
        losers[c] = order[:k]
        winners[c] = order[-k:]
    monthly = []
    for m in range(first_formation + K, M):
        cohort_returns = []
        for c in range(m - K, m):
            if c not in winners:
                continue
            long_leg = R[winners[c], m]
            short_leg = R[losers[c], m]
            long_leg = long_leg[~np.isnan(long_leg)]
            short_leg = short_leg[~np.isnan(short_leg)]
            if long_leg.size == 0 or short_leg.size == 0:
                continue
            cohort_returns.append(float(long_leg.mean() - short_leg.mean()))
        if cohort_returns:
            monthly.append((panel.months[m], float(np.mean(cohort_returns))))
    series = [r for _, r in monthly]
    result = BacktestResult(
        monthly_returns=monthly,
        cumulative=float(sum(series)),
        months_used=len(monthly),
        months_skipped=months_skipped,
    )
    try:
        result.t_stat = t_statistic(series)
    except DegenerateSampleError:
        result.t_stat = float("nan")
    return result


def bits(x):
    """The exact IEEE-754 bit pattern, so 0.0 and -0.0 (and NaNs) compare."""
    return struct.pack("<d", x)


def assert_identical(panel, cfg):
    got, want = run_backtest(panel, cfg), ref_run_backtest(panel, cfg)
    assert [m for m, _ in got.monthly_returns] == [m for m, _ in want.monthly_returns]
    assert [bits(r) for _, r in got.monthly_returns] == [
        bits(r) for _, r in want.monthly_returns
    ]
    assert all(type(r) is float for _, r in got.monthly_returns)
    assert bits(got.cumulative) == bits(want.cumulative)
    assert bits(got.t_stat) == bits(want.t_stat)
    assert (got.months_used, got.months_skipped) == (want.months_used, want.months_skipped)
    return got


# -------------------------------------------------------- random panels


@st.composite
def panels(draw):
    n_assets = draw(st.integers(1, 30))
    J = draw(st.integers(1, 12))
    K = draw(st.integers(1, 4))
    skip = draw(st.integers(0, 3))
    n_months = draw(st.integers(J + K + skip + 1, J + K + skip + 30))
    cfg = MomentumConfig(
        formation_months=J,
        holding_months=K,
        decile_count=draw(st.integers(2, 6)),
        min_history=draw(st.one_of(st.none(), st.integers(1, J + 4))),
        skip_months=skip,
    )
    seed = draw(st.integers(0, 2**32 - 1))
    hole_share = draw(st.sampled_from([0.0, 0.02, 0.1, 0.3]))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        returns = rng.normal(0.0, 1.0, (n_assets, n_months))
    else:  # a small alphabet, so scores and legs tie often
        returns = rng.choice([-0.3, -0.1, 0.0, 0.1, 0.2, 0.7], (n_assets, n_months))
    returns[rng.random((n_assets, n_months)) < hole_share] = np.nan
    # late listings make the rankable count, and so k, vary by cohort
    for i in range(n_assets):
        if rng.random() < 0.3:
            returns[i, : rng.integers(0, n_months)] = np.nan
    months = [f"{2000 + t // 12:04d}-{t % 12 + 1:02d}" for t in range(n_months)]
    assets = [f"A{i:03d}" for i in range(n_assets)]
    return PanelData(assets=assets, months=months, returns=returns), cfg


class TestAgainstTheLoop:
    @settings(max_examples=400, deadline=None)
    @given(panels())
    def test_random_panels(self, case):
        panel, cfg = case
        assert_identical(panel, cfg)

    def test_pairwise_sum_windows_and_legs(self):
        # J >= 9 makes numpy add formation windows pairwise, and 100
        # assets at 3 deciles give legs of 33: both are past the 8-term
        # unrolled block
        for seed, (J, K) in enumerate([(9, 1), (12, 3), (16, 2), (12, 12)]):
            panel = gen_momentum_panel(100, 120, 0.1, seed=seed)
            assert_identical(panel, MomentumConfig(J, K, decile_count=3, skip_months=1))

    def test_unrankable_months_and_a_dead_leg(self):
        months = [f"2020-{m:02d}" for m in range(1, 13)]
        returns = np.arange(4 * 12, dtype=float).reshape(4, 12) % 5 - 2
        returns[:3, 3:5] = np.nan  # three assets vanish: months unrankable
        returns[1:, 8] = np.nan  # one-asset legs die in a holding month
        panel = PanelData(["A", "B", "C", "D"], months, returns)
        got = assert_identical(panel, MomentumConfig(1, 2, decile_count=4))
        assert got.months_skipped == 3
        assert got.months_used < len(months) - 2

    def test_long_formation_windows(self):
        # 8 accumulators from J = 8, a remainder at 9, 17 and 129, whole
        # 8-term blocks at 64 and 128, halves split at a multiple of 8 past 128
        for seed, J in enumerate([8, 9, 17, 64, 128, 129, 150]):
            rng = np.random.default_rng(seed)
            panel = gen_momentum_panel(30, J + 30, 0.1, seed=seed)
            assert_identical(panel, MomentumConfig(J, 2, decile_count=3, skip_months=1))
            returns = rng.choice([-0.3, -0.0, 0.0, 0.1, 0.7], (30, J + 30))
            returns[rng.random(returns.shape) < 0.01] = np.nan
            ticks = PanelData(panel.assets, panel.months, returns)
            assert_identical(ticks, MomentumConfig(J, 1, decile_count=4))

    def test_overflowing_window_sums(self):
        # finite returns near +-1e308: window sums overflow to +-inf, and
        # to NaN where pairwise accumulators of both signs overflow, so the
        # ranking falls back to lexsort
        months = [f"{2000 + t // 12:04d}-{t % 12 + 1:02d}" for t in range(40)]
        assets = [f"A{i:03d}" for i in range(20)]
        for seed, J in enumerate([2, 3, 8, 10, 17]):
            rng = np.random.default_rng(seed)
            returns = rng.choice([1e308, -1e308, 0.6e308, -0.9e308, 0.0, 1.0], (20, 40))
            returns[rng.random(returns.shape) < 0.05] = np.nan
            windows = sliding_window_view(returns, J, axis=1)
            with np.errstate(over="ignore", invalid="ignore"):
                sums = windows.sum(axis=-1)[~np.isnan(windows).any(axis=-1)]
                assert_identical(PanelData(assets, months, returns), MomentumConfig(J, 2, decile_count=3))
            assert np.isinf(sums).any()
            assert J < 8 or np.isnan(sums).any()

    def test_criterion_08_panels(self):
        # the 200 null and 50 power panels of acceptance criterion 08
        for seed in range(200):
            panel = gen_momentum_panel(100, 240, persistence=0.0, seed=seed)
            assert_identical(panel, MomentumConfig())
        for seed in range(50):
            panel = gen_momentum_panel(100, 240, persistence=0.15, seed=1000 + seed)
            assert_identical(panel, MomentumConfig(holding_months=1))


# ------------------------------------------- window sums and the ranking


def test_window_sums_are_numpys_bit_for_bit():
    rng = np.random.default_rng(0)
    for J in [*range(1, 18), 64, 127, 128, 129, 136, 200, 300]:
        shape = (7, J + 25)
        wide = rng.normal(0.0, 1.0, shape) * 10.0 ** rng.integers(-8, 9, shape)
        ticks = rng.choice([-0.3, -0.1, -0.0, 0.0, 0.1, 0.2, 0.7], shape)
        for R in (wide, ticks):
            want = sliding_window_view(R, J, axis=1).sum(axis=-1)
            got = _window_sums(np.ascontiguousarray(R.T), J, shape[1] - J + 1).T
            assert got.view(np.int64).tolist() == want.view(np.int64).tolist(), J


def test_ranking_is_lexsorts_on_every_eligible_prefix():
    rng = np.random.default_rng(1)
    alphabets = [
        [-0.3, -0.0, 0.0, 0.1, 0.7],
        [-0.0, 0.0],
        [-1.0, 1.0, 2.0],
        [-np.inf, -0.0, 0.0, np.inf, np.nan, 0.5],  # overflowed sums: lexsort runs
    ]
    for case in range(3000):
        rows, width = int(rng.integers(1, 12)), int(rng.integers(1, 25))
        alphabet = alphabets[case % len(alphabets)]
        keys = rng.choice(alphabet, (rows, width))
        if case % 5 == 0:  # mostly distinct scores
            keys = np.where(rng.random((rows, width)) < 0.7, rng.normal(size=(rows, width)), keys)
        eligible = rng.random((rows, width)) < rng.choice([0.3, 0.8, 1.0])
        keys[~eligible & (rng.random((rows, width)) < 0.5)] = np.nan  # holes
        want = np.lexsort((keys, ~eligible), axis=1)
        got = _rank(keys.copy(), eligible)
        for row, count in enumerate(eligible.sum(axis=1).tolist()):
            assert got[row, :count].tolist() == want[row, :count].tolist(), case


# --------------------------------------------------- CLI output, pinned

# sha256 of stdout from the per-cohort loop and the dict-backed panel:
# `momentum gen --seed s`, then `backtest` and `partition` of that CSV.
PINNED_CLI_SHA256 = {
    1: [
        "421a067ead2c7d54579fd8443330ddeaa809a039ca4e7815894f65d7b055098e",
        "3e1041c383f6016bc55c3c733a917f3315ee58e1e8ce7e57068d16a02e9ed29f",
        "b734528eb332bb436ac96b950d65e7b05ae34d142cdf02c4801faa77be9d3bb3",
    ],
    2: [
        "838dc7357d103503a5d33f036c11c605798fd1ee730ee9ab3315ea11694fbee3",
        "ffcf52fbf8d116e0e8b76faa5a8975477e5dfa3a2d8f7cbb385b661089a08208",
        "0cd2739200bc516085e743f464d2083b25728cfa9c46976d20011aa75600d20f",
    ],
    3: [
        "4d020151ee1ec8258b014c24ffc5dee43fc5c97564a9c4c787f097aa4010766f",
        "ce119718dbc5556ff8bbba583942a0ecefc112214df79451365ecef42b9df023",
        "bdd58aa57b41b70b088942fb5a313fa7408d9347f2d3d760e1e36d23c84ae5ec",
    ],
    4: [
        "33684e9e90c29205089a9fbb5bf8d73af616fc8ef88749bf0cd626650fda5618",
        "a77187a53feb25cc058444acc0cd22cb97a01f4bc39d78601ea8c5322ddbaee3",
        "7bb0038bdf1cf60eddcf44e4ba9247d99a66d0c5bc2779e3cd4e17fdffcbca3e",
    ],
    5: [
        "7ca6d2800be27019d43ac0f9ff7800ceb7317a5b0c028bc802edeb553bf61ba1",
        "2baa8fdae6634fbb2f68370601be6c52936efcc03508829eaf1b076459d30e0d",
        "62d6257ea03606dba61c1ecd3310b91a1d1abfc1944dd6dba47347ea20d698d5",
    ],
}


def _cli_digests(seed, tmp_path, capsys):
    digests = []
    gen = ["momentum", "gen", "--seed", str(seed), "--persistence", "0.1"]
    assert main(gen) == 0
    csv_text = capsys.readouterr().out
    digests.append(hashlib.sha256(csv_text.encode()).hexdigest())
    path = tmp_path / f"panel{seed}.csv"
    path.write_text(csv_text)
    for argv in (
        ["momentum", "backtest", str(path)],
        ["momentum", "partition", str(path), "--breakpoints", "1985-12,1992-06",
         "--format", "csv", "--holding", "1"],
    ):
        assert main(argv) == 0
        digests.append(hashlib.sha256(capsys.readouterr().out.encode()).hexdigest())
    return digests


def test_cli_stdout_is_unchanged(tmp_path, capsys):
    for seed in range(1, 6):
        assert _cli_digests(seed, tmp_path, capsys) == PINNED_CLI_SHA256[seed]
