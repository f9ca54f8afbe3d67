"""Analytic transfer-time model — the paper's Eqs. 1–5.

The paper models a direct RDMA transfer of ``d`` bytes as

    t = t_s + t_t + t_r                                   (Eq. 1)

(sender processing/injection + wire transfer + receiver processing), and
a k-path store-and-forward proxy transfer as

    t' = 2 (t'_s + t'_t + t'_r)                           (Eq. 2)

because the data is *completely stored* at the proxies before the second
hop (pipelining is explicitly future work).  Since ``t'_t = t_t / k`` but
``t'_s >= t_s / k`` and ``t'_r >= t_r / k`` (fixed per-message costs do
not shrink with the split, Eq. 4), the limiting ratio is

    t' / t -> 2 / k                                       (Eq. 5)

so at least **3 proxies** are needed for any benefit, and ``k`` proxies
asymptotically buy ``k/2`` higher throughput.

Concretely this library parameterises the fixed costs as ``o_msg`` (per
message) and ``o_fwd`` (store-and-forward turnaround), and the
bandwidth-shaped part as the single-stream rate ``r``:

    direct:  t(d)     = o_msg + d / r
    proxy:   t'(d, k) = 2 o_msg + o_fwd + 2 d / (k r)

giving the crossover threshold

    d*(k) = r (o_msg + o_fwd) * k / (k - 2)    for k > 2.

With the calibrated Mira constants this lands at 256 KB for k = 4 and
512 KB for k = 3 — the paper's measured Figure 5/6 thresholds.
"""

from __future__ import annotations

from repro.network.params import MIRA_PARAMS, NetworkParams
from repro.util.validation import ConfigError, check_non_negative


class TransferModel:
    """Closed-form direct/proxy transfer times and decision thresholds."""

    #: Paper result: fewer than 3 proxies cannot beat a direct transfer.
    MIN_BENEFICIAL_PROXIES = 3

    def __init__(self, params: NetworkParams = MIRA_PARAMS):
        self.params = params
        self.stream_rate = min(params.stream_cap, params.mem_bw)

    # -- Eq. 1 -------------------------------------------------------------------

    def direct_time(self, nbytes: float, *, path_rate: "float | None" = None) -> float:
        """Uncontended direct transfer time (Eq. 1 with calibrated terms)."""
        check_non_negative("nbytes", nbytes)
        r = self.stream_rate if path_rate is None else min(path_rate, self.stream_rate)
        return self.params.o_msg + nbytes / r

    # -- Eq. 2 -------------------------------------------------------------------

    def proxy_time(self, nbytes: float, k: int) -> float:
        """k-proxy store-and-forward transfer time (Eq. 2).

        Assumes an equal split and link-disjoint paths (what Algorithm 1
        constructs); contention effects beyond that are the simulator's
        job.  The split is exact, ``d / k``, while the flow program emits
        whole-byte shares of ``ceil(d / k)`` and ``floor(d / k)``, so the
        simulated time of an uncontended transfer is this formula with
        ``ceil(d / k)`` in place of ``d / k`` — up to ~1e-5 relative
        longer when k does not divide d (measured at k = 3 and 5).  The
        formula stays as it is: the planner's decisions rest on it.
        """
        check_non_negative("nbytes", nbytes)
        if k < 1:
            raise ConfigError(f"k must be >= 1, got {k}")
        share = nbytes / k
        return 2 * self.params.o_msg + self.params.o_fwd + 2 * share / self.stream_rate

    # -- Eq. 3 -------------------------------------------------------------------

    def time_ratio(self, nbytes: float, k: int) -> float:
        """``t' / t`` (Eq. 3): < 1 means proxies win."""
        return self.proxy_time(nbytes, k) / self.direct_time(nbytes)

    def speedup(self, nbytes: float, k: int) -> float:
        """Predicted direct/proxy speedup for a given size and proxy count."""
        return 1.0 / self.time_ratio(nbytes, k)

    # -- Eq. 5 -------------------------------------------------------------------

    @staticmethod
    def asymptotic_speedup(k: int) -> float:
        """Large-message limit of the speedup: ``k / 2`` (Eq. 5)."""
        if k < 1:
            raise ConfigError(f"k must be >= 1, got {k}")
        return k / 2.0

    def threshold(self, k: int) -> float:
        """Message size above which k proxies beat a direct transfer.

        Infinite for ``k <= 2`` (Eq. 5's corollary: at least 3 proxies).
        """
        if k < 1:
            raise ConfigError(f"k must be >= 1, got {k}")
        if k <= 2:
            return float("inf")
        fixed = self.params.o_msg + self.params.o_fwd
        return self.stream_rate * fixed * k / (k - 2)

    def use_proxies(self, nbytes: float, k: int) -> bool:
        """The Algorithm-1 step-0 decision: is proxying worth it here?"""
        return k >= self.MIN_BENEFICIAL_PROXIES and nbytes > self.threshold(k)

    def best_k(self, nbytes: float, k_available: int) -> int:
        """Proxy count minimising predicted time (0 means go direct)."""
        check_non_negative("nbytes", nbytes)
        if k_available < 0:
            raise ConfigError("k_available must be >= 0")
        best, best_t = 0, self.direct_time(nbytes)
        for k in range(self.MIN_BENEFICIAL_PROXIES, k_available + 1):
            t = self.proxy_time(nbytes, k)
            if t < best_t:
                best, best_t = k, t
        return best
