"""Cross-sectional momentum backtest over a monthly returns panel.

Implements the classic formation/holding design: each month, rank assets
on their cumulative return over the past J months, go long the top decile
equal-weight and short the bottom decile, and hold for K months. With
K > 1 the strategy runs K overlapping cohorts and the calendar-month
return is their equal average. Performance aggregation is additive in
monthly returns throughout.

Also provides data-point counting and period-partitioned reports of the
form (period, performance, data_count), plus a synthetic panel generator
that plants a tunable autoregressive signal in expected returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import DegenerateSampleError, InsufficientDataError
from .series import PanelData


@dataclass
class MomentumConfig:
    """Formation/holding design parameters.

    min_history is the number of observed months an asset needs before it
    can be ranked; it defaults to the formation window itself. skip_months
    inserts a gap between formation and holding (0 = none).
    """

    formation_months: int = 6
    holding_months: int = 6
    decile_count: int = 10
    min_history: Optional[int] = None
    skip_months: int = 0

    def __post_init__(self):
        if self.formation_months < 1 or self.holding_months < 1:
            raise ValueError("formation and holding windows must be >= 1 month")
        if self.decile_count < 2:
            raise ValueError("decile_count must be >= 2")
        if self.skip_months < 0:
            raise ValueError("skip_months must be >= 0")

    @property
    def required_history(self) -> int:
        return self.min_history if self.min_history is not None else self.formation_months


@dataclass
class BacktestResult:
    monthly_returns: list[tuple[str, float]] = field(default_factory=list)
    cumulative: float = 0.0
    t_stat: float = 0.0
    months_used: int = 0
    months_skipped: int = 0

    def to_dict(self) -> dict:
        return {
            "monthly_returns": [
                {"month": m, "return": r} for m, r in self.monthly_returns
            ],
            "cumulative": self.cumulative,
            # undefined (NaN) when the monthly series is constant or empty
            "t_stat": None if math.isnan(self.t_stat) else self.t_stat,
            "months_used": self.months_used,
            "months_skipped": self.months_skipped,
        }


@dataclass
class PartitionReport:
    """One row per consecutive period: (period, performance, data_count)."""

    rows: list[tuple[str, float, int]] = field(default_factory=list)

    def to_csv(self) -> str:
        lines = ["period,performance,data_count"]
        for period, perf, count in self.rows:
            lines.append(f"{period},{perf!r},{count}")
        return "\n".join(lines) + "\n"

    def to_dicts(self) -> list[dict]:
        return [
            {"period": period, "performance": perf, "data_count": count}
            for period, perf, count in self.rows
        ]


def t_statistic(returns: Sequence[float]) -> float:
    """mean / (sample sd / sqrt(n)); needs n >= 2 and positive variance."""
    n = len(returns)
    if n < 2:
        raise DegenerateSampleError(f"need at least 2 observations, got {n}")
    arr = np.asarray(returns, dtype=float)
    sd = float(arr.std(ddof=1))
    if sd == 0.0:
        raise DegenerateSampleError("sample standard deviation is zero")
    return float(arr.mean() / (sd / math.sqrt(n)))


def _panel_matrix(panel: PanelData) -> np.ndarray:
    """Assets x months return matrix with NaN holes."""
    asset_idx = {a: i for i, a in enumerate(panel.assets)}
    month_idx = {m: j for j, m in enumerate(panel.months)}
    mat = np.full((len(panel.assets), len(panel.months)), np.nan)
    for (asset, month), r in panel.returns.items():
        mat[asset_idx[asset], month_idx[month]] = r
    return mat


def run_backtest(panel: PanelData, cfg: MomentumConfig) -> BacktestResult:
    """Winners-minus-losers backtest over the panel.

    Long weights total +1 and short weights -1 each month before any
    missing-data renormalization, so the portfolio is zero-cost. A
    formation month with fewer rankable assets than decile buckets is
    skipped and counted in months_skipped; assets missing a return during
    a holding month drop out of that cohort's leg with the remaining
    weights renormalized.
    """
    J, K, skip = cfg.formation_months, cfg.holding_months, cfg.skip_months
    M = len(panel.months)
    if M < J + K + skip + 1:
        raise InsufficientDataError(
            f"panel spans {M} months; need at least {J + K + skip + 1}"
        )
    R = _panel_matrix(panel)
    n_assets = R.shape[0]
    observed = ~np.isnan(R)
    history = observed.cumsum(axis=1)

    # Cohort formed at month c ranks on months c-skip-J+1..c-skip and
    # trades months c+1..c+K.
    first_formation = J - 1 + skip
    winners: dict[int, np.ndarray] = {}
    losers: dict[int, np.ndarray] = {}
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

    monthly: list[tuple[str, float]] = []
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
        result.t_stat = float("nan")  # constant or empty monthly series
    return result


def count_data_points(panel: PanelData, through: str) -> int:
    """Present (asset, month) entries with month <= through."""
    return sum(1 for (_, month) in panel.returns if month <= through)


def partition_report(
    panel: PanelData, breakpoints: list[str], cfg: MomentumConfig
) -> PartitionReport:
    """Split the backtest into consecutive periods ending at each breakpoint.

    Each row reports the cumulative winners-minus-losers return over the
    period plus the running data count through the period's end. A final
    period is appended when the last breakpoint falls before the panel's
    last month.
    """
    if sorted(breakpoints) != list(breakpoints):
        raise ValueError("breakpoints must be sorted ascending")
    if not breakpoints:
        raise ValueError("need at least one breakpoint")
    result = run_backtest(panel, cfg)
    ends = list(breakpoints)
    if ends[-1] < panel.months[-1]:
        ends.append(panel.months[-1])
    rows = []
    prev_end: Optional[str] = None
    for end in ends:
        start = panel.months[0] if prev_end is None else prev_end
        perf = sum(
            r
            for month, r in result.monthly_returns
            if month <= end and (prev_end is None or month > prev_end)
        )
        rows.append((f"{start}..{end}", float(perf), count_data_points(panel, end)))
        prev_end = end
    return PartitionReport(rows=rows)


def gen_momentum_panel(
    n_assets: int,
    n_months: int,
    persistence: float,
    seed: int,
    shock_scale: float = 1.0,
    noise_scale: float = 0.25,
    with_components: bool = False,
):
    """Synthetic panel whose expected returns follow an AR(1).

    Each asset's expected return mu obeys mu[t] = persistence * mu[t-1]
    + shock, initialized at its stationary spread; the observed return
    adds i.i.d. noise on top. persistence 0 gives a pure i.i.d. panel.
    With with_components=True, also returns the expected-return matrix.
    """
    if not 0.0 <= persistence < 1.0:
        raise ValueError(f"persistence must lie in [0, 1), got {persistence}")
    if n_assets < 1 or n_months < 1:
        raise ValueError("n_assets and n_months must be positive")
    rng = np.random.default_rng(seed)
    stationary = shock_scale / math.sqrt(1.0 - persistence**2)
    mu = np.empty((n_assets, n_months))
    mu[:, 0] = rng.normal(0.0, stationary, n_assets)
    shocks = rng.normal(0.0, shock_scale, (n_assets, n_months))
    for t in range(1, n_months):
        mu[:, t] = persistence * mu[:, t - 1] + shocks[:, t]
    returns = mu + rng.normal(0.0, noise_scale, (n_assets, n_months))

    months = [f"{1980 + t // 12:04d}-{t % 12 + 1:02d}" for t in range(n_months)]
    assets = [f"S{i:04d}" for i in range(n_assets)]
    data = {
        (assets[i], months[t]): float(returns[i, t])
        for i in range(n_assets)
        for t in range(n_months)
    }
    panel = PanelData(assets=assets, months=months, returns=data)
    if with_components:
        return panel, mu
    return panel
