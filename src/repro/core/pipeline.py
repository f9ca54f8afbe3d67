"""Pipelined proxy relays — the paper's future-work extension (§VII).

The store-and-forward scheme of :mod:`repro.core.multipath` holds each
share at the proxy until it fully arrives, so a transfer always pays two
sequential hops and needs ``k >= 3`` proxies to win (Eq. 5).  The paper's
conclusion proposes the fix: *"we plan to employ pipeline technique in
which data will be split into small messages... Thus, we will need only
2 proxies at least to get benefit."*

This module implements it.  Each proxy's share is cut into chunks; the
source injects chunks in order (chunk ``c+1``'s first hop follows chunk
``c``'s), and the proxy forwards each chunk as soon as it lands.  First
and second hops of *different* chunks overlap, so a pipelined path's
asymptotic rate is the full single-stream rate, not half of it:

    throughput -> k * r        (pipelined; store-and-forward gives k/2 * r)

The chunk size trades pipelining depth against per-chunk overheads;
minimising

    T(C) ~= share/r + C * o_msg + share/(C * r) + (o_msg + o_fwd)

over the chunk count ``C`` gives ``C* = sqrt(share / (r * o_msg))``,
implemented by :func:`optimal_chunk_bytes`.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

from repro.core.multipath import TransferOutcome, TransferSpec, split_bytes
from repro.core.proxy_select import ProxyAssignment, find_proxies
from repro.machine.system import BGQSystem
from repro.mpi.comm import SimComm
from repro.mpi.program import FlowProgram
from repro.network.flow import FlowId
from repro.network.params import NetworkParams
from repro.util.units import KiB
from repro.util.validation import ConfigError

#: Below this share size pipelining cannot amortise its per-chunk costs.
MIN_PIPELINE_CHUNK = 16 * KiB


def optimal_chunk_bytes(share_bytes: int, params: NetworkParams) -> int:
    """Chunk size minimising the pipelined transfer-time model.

    ``C* = sqrt(share / (r * o_msg))`` chunks, clamped so chunks never
    drop below :data:`MIN_PIPELINE_CHUNK` (overhead domination) nor
    exceed the share itself.
    """
    if share_bytes < 1:
        raise ConfigError(f"share_bytes must be >= 1, got {share_bytes}")
    r = min(params.stream_cap, params.mem_bw)
    if params.o_msg <= 0:
        return max(MIN_PIPELINE_CHUNK, share_bytes // 64)
    c_star = math.sqrt(share_bytes / (r * params.o_msg))
    chunks = max(1, round(c_star))
    chunk = share_bytes // chunks if chunks else share_bytes
    return int(min(share_bytes, max(MIN_PIPELINE_CHUNK, chunk)))


def predicted_pipeline_time(
    nbytes: int, k: int, params: NetworkParams, chunk_bytes: "int | None" = None
) -> float:
    """Closed-form pipelined transfer time (the model minimised above)."""
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    share = max(1, nbytes // k)
    if chunk_bytes is None:
        chunk_bytes = optimal_chunk_bytes(share, params)
    nchunks = max(1, math.ceil(share / chunk_bytes))
    r = min(params.stream_cap, params.mem_bw)
    fill = chunk_bytes / r + params.o_msg + params.o_fwd
    return share / r + nchunks * params.o_msg + fill


def build_pipelined_flows(
    prog: FlowProgram,
    spec: TransferSpec,
    assignment: ProxyAssignment,
    *,
    chunk_bytes: "int | None" = None,
    label: str = "pipe",
) -> FlowId:
    """Emit a chunk-pipelined multipath transfer; returns the join event.

    Per carrier path: chunks inject in order (hop-1 of chunk ``c+1``
    depends on hop-1 of chunk ``c``), and every chunk's hop 2 departs as
    soon as its own hop 1 lands — overlapping the next chunk's hop 1.
    Self-carriers (``proxy == src``) send their whole share directly.
    """
    if (assignment.source, assignment.dest) != (spec.src, spec.dst):
        raise ConfigError("assignment endpoints do not match the transfer spec")
    if assignment.k < 1:
        raise ConfigError("assignment has no carriers")
    shares = split_bytes(spec.nbytes, assignment.k)
    exits: list[FlowId] = []
    for share, proxy in zip(shares, assignment.proxies):
        if proxy == spec.src:
            exits.append(
                prog.iput_nodes(
                    spec.src, spec.dst, share, label=f"{label}-self",
                    tag=(spec.src, spec.dst),
                )
            )
            continue
        chunk = chunk_bytes or optimal_chunk_bytes(share, prog.params)
        sizes = []
        rest = share
        while rest > 0:
            take = min(chunk, rest)
            # Fold a trailing fragment into the final chunk.
            if 0 < rest - take < max(1, chunk // 4):
                take = rest
            sizes.append(take)
            rest -= take
        prev_hop1: "FlowId | None" = None
        hop2s: list[FlowId] = []
        for c, size in enumerate(sizes):
            deps1 = (prev_hop1,) if prev_hop1 else ()
            h1 = prog.iput_nodes(
                spec.src, proxy, size, after=deps1,
                label=f"{label}-h1", tag=(spec.src, spec.dst),
            )
            h2 = prog.iput_nodes(
                proxy, spec.dst, size, after=(h1,), relay=True,
                label=f"{label}-h2", tag=(spec.src, spec.dst),
            )
            prev_hop1 = h1
            hop2s.append(h2)
        exits.append(prog.event(hop2s, label=f"{label}-path"))
    return prog.event(exits, label=f"{label}-done")


def run_pipelined_transfer(
    system: BGQSystem,
    specs: Sequence[TransferSpec],
    *,
    assignments: "Mapping[tuple[int, int], ProxyAssignment] | None" = None,
    max_proxies: "int | None" = None,
    min_proxies: int = 2,
    chunk_bytes: "int | None" = None,
) -> TransferOutcome:
    """Run transfers through chunk-pipelined proxies.

    Unlike the store-and-forward engine, ``min_proxies`` defaults to 2 —
    the whole point of the extension.  Transfers whose assignment has
    fewer carriers fall back to direct.
    """
    specs = list(specs)
    if not specs:
        raise ConfigError("specs must be non-empty")
    if min_proxies < 1:
        raise ConfigError("min_proxies must be >= 1")
    if assignments is None:
        plan = find_proxies(
            system,
            [(s.src, s.dst) for s in specs],
            max_proxies=max_proxies,
            min_proxies=min_proxies,
        )
        assignments = plan.assignments
    else:
        plan = None

    comm = SimComm(system)
    prog = FlowProgram(comm)
    mode_used: dict[tuple[int, int], str] = {}
    for spec in specs:
        asg = assignments.get((spec.src, spec.dst))
        if asg is not None and asg.k >= min_proxies and spec.nbytes >= asg.k:
            build_pipelined_flows(prog, spec, asg, chunk_bytes=chunk_bytes)
            mode_used[(spec.src, spec.dst)] = f"pipeline:{asg.k}"
        else:
            prog.iput_nodes(
                spec.src, spec.dst, spec.nbytes, label="direct",
                tag=(spec.src, spec.dst),
            )
            mode_used[(spec.src, spec.dst)] = "direct"
    result = prog.run()
    total = float(sum(s.nbytes for s in specs))
    return TransferOutcome(
        makespan=result.makespan,
        total_bytes=total,
        mode_used=mode_used,
        result=result,
        plan=plan,
    )
