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

from .errors import DegenerateSampleError, InsufficientDataError, ResultOverflowError
from .series import PanelData, _check_panel_size, _increasing

SHOCK_SCALE = 1.0
NOISE_SCALE = 0.25


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
                {"month": m, "return": _finite(r, f"return for {m}")}
                for m, r in self.monthly_returns
            ],
            "cumulative": _finite(self.cumulative, "cumulative return"),
            # undefined (NaN) when the monthly series is constant or empty
            "t_stat": None if math.isnan(self.t_stat) else _finite(self.t_stat, "t-statistic"),
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
            lines.append(f"{period},{_finite(perf, f'performance of {period}')!r},{count}")
        return "\n".join(lines) + "\n"

    def to_dicts(self) -> list[dict]:
        return [
            {"period": period, "performance": _finite(perf, f"performance of {period}"),
             "data_count": count}
            for period, perf, count in self.rows
        ]


def _finite(value: float, what: str) -> float:
    """value, unless float64 overflowed on the way to it (inf or NaN)."""
    if not math.isfinite(value):
        raise ResultOverflowError(f"{what} is {value!r}: the panel's returns overflow float64")
    return value


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


def _window_sums(X: np.ndarray, m: int, n: int, lo: int = 0) -> np.ndarray:
    """Row c is X[lo + c] + ... + X[lo + c + m - 1], for c < n.

    Bit for bit numpy's sum of each window (0.0 plus its pairwise_sum),
    from m shifted-slice adds instead of one reduce call per window. Below
    8 terms: left to right. Up to 128: 8 accumulators, combined as
    ((0+1)+(2+3))+((4+5)+(6+7)), then the remainder in order. Above 128:
    halves split at a multiple of 8. Seeding each block with 0.0 stands
    for the leading 0.0; either only turns -0.0 into 0.0.
    """
    if m > 128:
        half = m // 2 - m // 2 % 8
        return _window_sums(X, half, n, lo) + _window_sums(X, m - half, n, lo + half)
    terms = [X[lo + j : lo + j + n] for j in range(m)]
    if m < 8:
        acc = terms[0] + 0.0
        for term in terms[1:]:
            acc += term
        return acc
    r = [terms[0] + 0.0, *terms[1:8]]
    for i in range(8, m - m % 8, 8):
        r = [a + b for a, b in zip(r, terms[i : i + 8])]
    acc = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for term in terms[m - m % 8 :]:
        acc += term
    return acc


def _rank(keys: np.ndarray, eligible: np.ndarray) -> np.ndarray:
    """np.lexsort((keys, ~eligible), axis=1) on each row's eligible prefix.

    One unstable argsort, ineligible keys set to +inf in place (NaN keys
    would knock numpy's SIMD sort off its fast path). Rows where np.sort
    shows equal finite neighbours (0.0 equals -0.0) are sorted again as
    ints, run of equal keys * columns + column: lexsort's stable tie
    order. An eligible key that is not finite (an overflowed window sum)
    would tie with or sort after +inf, so then lexsort itself runs.
    """
    if not np.isfinite(keys[eligible]).all():
        return np.lexsort((keys, ~eligible), axis=1)
    width = keys.shape[1]
    np.copyto(keys, np.inf, where=~eligible)
    order = np.argsort(keys, axis=1)
    ranked = np.sort(keys, axis=1)
    step = ranked[:, 1:] != ranked[:, :-1]
    tied = np.flatnonzero((~step & (ranked[:, 1:] < np.inf)).any(axis=1))
    if tied.size:
        runs = np.zeros((tied.size, width), dtype=np.int64)
        np.cumsum(step[tied], axis=1, out=runs[:, 1:])
        order[tied] = np.sort(runs * width + order[tied], axis=1) % width
    return order


def run_backtest(panel: PanelData, cfg: MomentumConfig) -> BacktestResult:
    """Winners-minus-losers backtest over the panel.

    Long weights total +1 and short weights -1 each month before any
    missing-data renormalization, so the portfolio is zero-cost. A
    formation month with fewer rankable assets than decile buckets is
    skipped and counted in months_skipped; assets missing a return during
    a holding month drop out of that cohort's leg with the remaining
    weights renormalized. More buckets than assets leave every month
    unranked, so such a count acts as assets + 1, which stays in int64.

    Every cohort is ranked at once. Formation scores are J shifted-slice
    adds in numpy's pairwise order, bit for bit numpy's window sums. One
    argsort ranks every cohort; cohorts with equal finite scores are
    sorted again so ties keep ascending asset order, and np.lexsort runs
    only when an eligible score overflowed. Each leg is one gathered
    (cohorts x k) block averaged row by row, so each float is added in the
    same order as a per-cohort `mean` would add it.
    """
    J, K, skip = cfg.formation_months, cfg.holding_months, cfg.skip_months
    D = min(cfg.decile_count, len(panel.assets) + 1)
    M = len(panel.months)
    if M < J + K + skip + 1:
        raise InsufficientDataError(
            f"panel spans {M} months; need at least {J + K + skip + 1}"
        )
    R = panel.return_matrix
    X = np.ascontiguousarray(R.T)  # months x assets: a cohort's window is rows
    seen = np.zeros((M + 1, X.shape[1]), dtype=np.intp)  # observed months before j
    np.cumsum(~np.isnan(X), axis=0, out=seen[1:])

    # Cohort q is formed at month c = first + q, ranks on window q (months
    # q..q+J-1 = c-skip-J+1..c-skip) and trades months c+1..c+K.
    first = J - 1 + skip
    formed = np.arange(first, M - 1)
    n_cohorts = len(formed)
    eligible = seen[J : J + n_cohorts] - seen[:n_cohorts] == J
    eligible &= seen[first + 1 : M] >= cfg.required_history
    order = _rank(_window_sums(X, J, n_cohorts), eligible)
    ranked_count = eligible.sum(axis=1)
    leg = ranked_count // D
    cohort_ret = np.zeros((n_cohorts, K))
    live = np.zeros((n_cohorts, K), dtype=bool)
    for k in np.unique(leg[leg > 0]).tolist():
        q = np.flatnonzero(leg == k)
        losers = order[q, :k]
        winners = order[q[:, None], (ranked_count[q] - k)[:, None] + np.arange(k)]
        for h in range(1, K + 1):
            held = formed[q] + h
            inside = held < M
            m = held[inside, None]
            long_leg, short_leg = R[winners[inside], m], R[losers[inside], m]
            rows = q[inside]
            cohort_ret[rows, h - 1] = long_leg.sum(axis=1) / k - short_leg.sum(axis=1) / k
            live[rows, h - 1] = True
            holes = np.isnan(long_leg).any(axis=1) | np.isnan(short_leg).any(axis=1)
            for r in np.flatnonzero(holes).tolist():
                longs = long_leg[r][~np.isnan(long_leg[r])]
                shorts = short_leg[r][~np.isnan(short_leg[r])]
                live[rows[r], h - 1] = longs.size > 0 and shorts.size > 0
                if live[rows[r], h - 1]:
                    cohort_ret[rows[r], h - 1] = longs.mean() - shorts.mean()

    # Month m averages cohorts m-K..m-1, oldest first: column j holds
    # cohort m-K+j in its (K-j)-th holding month.
    reported = np.arange(first + K, M)
    q = reported[:, None] - K + np.arange(K) - first
    h = K - 1 - np.arange(K)
    month_rets, month_live = cohort_ret[q, h], live[q, h]
    full = month_live.all(axis=1)
    means = np.zeros(len(reported))
    means[full] = month_rets[full].sum(axis=1) / K
    for r in np.flatnonzero(~full & month_live.any(axis=1)).tolist():
        means[r] = month_rets[r][month_live[r]].mean()
    used = np.flatnonzero(month_live.any(axis=1))
    monthly = [(panel.months[m], r) for m, r in zip(reported[used].tolist(), means[used].tolist())]

    series = [r for _, r in monthly]
    result = BacktestResult(
        monthly_returns=monthly,
        cumulative=float(sum(series)),
        months_used=len(monthly),
        months_skipped=int(np.count_nonzero(ranked_count < D)),
    )
    try:
        result.t_stat = t_statistic(series)
    except DegenerateSampleError:
        result.t_stat = float("nan")  # constant or empty monthly series
    return result


def count_data_points(panel: PanelData, through: str) -> int:
    """Present (asset, month) entries with month <= through."""
    return panel.entries_through(through)


def partition_report(
    panel: PanelData, breakpoints: list[str], cfg: MomentumConfig
) -> PartitionReport:
    """Split the backtest into consecutive periods ending at each breakpoint.

    Each row reports the cumulative winners-minus-losers return over the
    period plus the running data count through the period's end. A final
    period is appended when the last breakpoint falls before the panel's
    last month. Breakpoints must be strictly increasing, as month labels
    are, and the first may not precede the panel's first month; ValueError
    otherwise.
    """
    if not _increasing(breakpoints):
        raise ValueError("breakpoints must be strictly increasing")
    if not breakpoints:
        raise ValueError("need at least one breakpoint")
    if breakpoints[0] < panel.months[0]:
        raise ValueError(
            f"breakpoint {breakpoints[0]!r} precedes the panel's first month {panel.months[0]!r}"
        )
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
) -> PanelData:
    """Synthetic panel whose expected returns follow an AR(1).

    Each asset's expected return mu obeys mu[t] = persistence * mu[t-1]
    + shock (standard deviation SHOCK_SCALE), initialized at its
    stationary spread; the observed return adds i.i.d. noise (standard
    deviation NOISE_SCALE) on top. persistence 0 gives a pure i.i.d. panel.
    The panel size is checked before anything is drawn: CapacityError
    beyond MAX_PANEL_CELLS.
    """
    if not 0.0 <= persistence < 1.0:
        raise ValueError(f"persistence must lie in [0, 1), got {persistence}")
    if n_assets < 1 or n_months < 1:
        raise ValueError("n_assets and n_months must be positive")
    _check_panel_size(n_assets, n_months)
    rng = np.random.default_rng(seed)
    stationary = SHOCK_SCALE / math.sqrt(1.0 - persistence**2)
    mu = np.empty((n_assets, n_months))
    mu[:, 0] = rng.normal(0.0, stationary, n_assets)
    shocks = rng.normal(0.0, SHOCK_SCALE, (n_assets, n_months))
    for t in range(1, n_months):
        mu[:, t] = persistence * mu[:, t - 1] + shocks[:, t]
    returns = mu + rng.normal(0.0, NOISE_SCALE, (n_assets, n_months))

    months = [f"{1980 + t // 12:04d}-{t % 12 + 1:02d}" for t in range(n_months)]
    assets = [f"S{i:04d}" for i in range(n_assets)]
    return PanelData(assets=assets, months=months, returns=returns)
