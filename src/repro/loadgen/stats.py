"""Statistical reduction of load-run outcomes.

:func:`summarize` turns a run's per-request outcomes into the report
the benchmark stores: terminal-status counts, goodput, shed rate,
latency percentiles (p50/p95/p99) and degradation-tier occupancy —
each rate/percentile with a seeded **bootstrap confidence interval**
(percentile method), so two runs can be compared honestly instead of
by point estimates.

:func:`compare` judges candidate vs baseline: relative goodput gain,
whether the goodput CIs are disjoint (the acceptance criterion of the
adaptive-vs-static soak), and **Cliff's delta** on the completed-request
latency samples as a scale-free effect size.  :func:`paired_ratio`
reduces a paired A/B timing to its median per-rep ratio and an
order-statistic CI (:func:`median_ci`, no resampling).

Every bootstrap takes an explicit seed; the same outcomes + seed always
reproduce the same intervals.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

from repro.util.validation import ConfigError

#: Latency percentiles the report carries.
PERCENTILES = (50.0, 95.0, 99.0)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (numpy default method); NaN if empty."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return float("nan")
    return float(np.percentile(arr, q))


def bootstrap_ci(
    values: Sequence[float],
    stat,
    *,
    n_boot: int = 500,
    alpha: float = 0.05,
    seed: int = 0,
) -> "tuple[float, float]":
    """Percentile-method bootstrap CI of ``stat(sample)``.

    ``stat`` maps a 1-D numpy array to a scalar.  Returns the
    ``(alpha/2, 1 - alpha/2)`` quantiles of the resampled statistic.
    """
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return (float("nan"), float("nan"))
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, arr.size, size=(n_boot, arr.size))
    boots = np.array([stat(arr[row]) for row in idx])
    lo, hi = np.percentile(boots, [100 * alpha / 2, 100 * (1 - alpha / 2)])
    return (float(lo), float(hi))


def median_ci(values: Sequence[float]) -> "tuple[float, float]":
    """Distribution-free 95% CI of the median (n >= 6): order statistics
    x(k), x(n+1-k) for the largest k with P(Bin(n, 1/2) < k) <= 2.5%."""
    x = np.sort(np.asarray(values, dtype=float))
    k, cum = 0, 1  # cum = 2**n P(Bin(n, 1/2) <= k)
    while x.ndim == 1 and 40 * cum <= 2**x.size:
        k, cum = k + 1, cum + math.comb(x.size, k + 1)
    if k == 0:
        raise ConfigError(f"a 95% CI of the median needs >= 6 samples, got {x.shape}")
    return (float(x[k - 1]), float(x[x.size - k]))


def paired_ratio(numer, denom) -> dict:
    """Median of the per-pair ratios ``numer[i] / denom[i]``, its
    :func:`median_ci` and a verdict: which side of 1 the CI lies on."""
    a, b = np.asarray(numer, dtype=float), np.asarray(denom, dtype=float)
    if a.shape != b.shape:
        raise ConfigError(f"paired samples must align: {a.shape} vs {b.shape}")
    lo, hi = median_ci(a / b)
    verdict = "ratio > 1" if lo > 1 else "ratio < 1" if hi < 1 else "no measurable difference"
    return {"ratio_median": float(np.median(a / b)), "ratio_ci": [lo, hi], "verdict": verdict}


def cliffs_delta(a: Sequence[float], b: Sequence[float]) -> float:
    """Cliff's delta effect size: P(a > b) - P(a < b), in [-1, 1].

    Negative means ``a`` stochastically *smaller* than ``b`` (for
    latencies: ``a`` is better).  Computed exactly in O((n+m) log(n+m))
    via rank counting.
    """
    x = np.sort(np.asarray(a, dtype=float))
    y = np.sort(np.asarray(b, dtype=float))
    if x.size == 0 or y.size == 0:
        return float("nan")
    # For each a_i: #(b < a_i) - #(b > a_i), summed.
    lt = np.searchsorted(y, x, side="left")  # b strictly below a_i
    gt = y.size - np.searchsorted(y, x, side="right")  # b strictly above
    return float((lt - gt).sum() / (x.size * y.size))


def _rate_ci(
    event_times: Sequence[float],
    window_s: float,
    *,
    n_boot: int,
    seed: int,
    bin_s: float = 1.0,
) -> "tuple[float, float]":
    """Bootstrap CI of an event *rate* [1/s] by resampling time bins.

    Resampling whole bins (block bootstrap with 1 s blocks) respects
    the serial correlation a queueing system induces — resampling
    individual completions would understate the variance.  ``window_s``
    must cover every event time so the drain tail gets its own bins
    instead of being folded into (and inflating) the last one.
    """
    nbins = max(1, int(np.ceil(window_s / bin_s)))
    counts = np.zeros(nbins)
    for t in event_times:
        counts[min(nbins - 1, max(0, int(t / bin_s)))] += 1
    per_bin_rate = counts / bin_s
    lo, hi = bootstrap_ci(
        per_bin_rate, lambda s: float(np.mean(s)), n_boot=n_boot, seed=seed
    )
    return (lo, hi)


def summarize(
    outcomes: Sequence,
    duration_s: float,
    *,
    seed: int = 0,
    n_boot: int = 500,
    tier_names: "Sequence[str]" = ("full", "reduced", "direct", "shed"),
) -> dict:
    """Reduce one run's :class:`~repro.loadgen.runner.RequestOutcome`
    list to the benchmark report (see module docstring)."""
    n = len(outcomes)
    statuses = [o.status for o in outcomes]
    counts = {s: statuses.count(s) for s in sorted(set(statuses))}
    completed = [o for o in outcomes if o.status == "completed"]
    turned_away = sum(
        1 for o in outcomes if o.status in ("shed", "rejected")
    )
    latencies = np.array([o.latency_s for o in completed if o.latency_s is not None])
    finish_times = [
        o.finished_at for o in completed if o.finished_at is not None
    ]
    # Rates are measured over the *observed* window: completions can
    # land after the schedule horizon (the drain tail), and dividing by
    # the nominal duration would overstate throughput for runs with a
    # long tail.  Both sides of a comparison get the same treatment.
    window_s = duration_s
    if finish_times:
        window_s = max(window_s, max(finish_times))
    goodput = len(completed) / window_s if window_s > 0 else float("nan")
    glo, ghi = _rate_ci(
        finish_times, window_s, n_boot=n_boot, seed=seed
    )
    latency: dict = {"n": int(latencies.size)}
    for q in PERCENTILES:
        key = f"p{int(q)}"
        if latencies.size:
            latency[key + "_s"] = percentile(latencies, q)
            lo, hi = bootstrap_ci(
                latencies,
                lambda s, q=q: float(np.percentile(s, q)),
                n_boot=n_boot,
                seed=seed + int(q),
            )
            latency[key + "_ci_s"] = [lo, hi]
        else:
            latency[key + "_s"] = None
            latency[key + "_ci_s"] = None
    tiers = {name: 0 for name in tier_names}
    for o in completed:
        name = tier_names[o.tier] if 0 <= o.tier < len(tier_names) else str(o.tier)
        tiers[name] = tiers.get(name, 0) + 1
    tier_occupancy = (
        {k: v / len(completed) for k, v in tiers.items()} if completed else tiers
    )
    attempts = [o.attempts for o in outcomes]
    return {
        "requests": n,
        "counts": counts,
        "goodput_rps": goodput,
        "goodput_ci_rps": [glo, ghi],
        "shed_rate": (turned_away / n) if n else 0.0,
        "latency": latency,
        "tier_occupancy": tier_occupancy,
        "retries": int(sum(attempts) - n) if n else 0,
        "duration_s": duration_s,
        "window_s": window_s,
        "bootstrap": {"n_boot": n_boot, "seed": seed, "alpha": 0.05},
    }


def compare(
    baseline: Mapping,
    candidate: Mapping,
    *,
    baseline_latencies: "Sequence[float] | None" = None,
    candidate_latencies: "Sequence[float] | None" = None,
) -> dict:
    """Candidate-vs-baseline verdict from two :func:`summarize` docs.

    ``goodput_ci_separated`` is True when the candidate's goodput CI
    lies *entirely above* the baseline's — the non-overlap criterion
    the adaptive-vs-static acceptance check uses.
    """
    g0, g1 = baseline["goodput_rps"], candidate["goodput_rps"]
    lo0, hi0 = baseline["goodput_ci_rps"]
    lo1, hi1 = candidate["goodput_ci_rps"]
    out = {
        "goodput_gain": (g1 - g0) / g0 if g0 else float("inf"),
        "goodput_ci_separated": bool(lo1 > hi0),
        "goodput_baseline_ci_rps": [lo0, hi0],
        "goodput_candidate_ci_rps": [lo1, hi1],
        "shed_rate_delta": candidate["shed_rate"] - baseline["shed_rate"],
    }
    if baseline_latencies is not None and candidate_latencies is not None:
        out["latency_cliffs_delta"] = cliffs_delta(
            candidate_latencies, baseline_latencies
        )
    p0 = baseline["latency"].get("p99_s")
    p1 = candidate["latency"].get("p99_s")
    out["p99_ratio"] = (p1 / p0) if (p0 and p1) else None
    return out
