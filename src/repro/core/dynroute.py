"""Transfers under dynamic (zone) routing — the related-work comparator.

The paper positions proxies against BG/Q's own dynamic routing (§II/§III):
dynamic zones relieve *link hotspots* by spraying packets over multiple
dimension orders, but every message remains a single stream bounded by
the per-stream ceiling, and the routing zone is the network's choice —
not a mechanism applications can use to gang multiple streams.

``run_dynamic_transfer`` executes a transfer set under the spray model
of :class:`repro.routing.dynamic.DynamicRouter`, producing the same
:class:`~repro.core.multipath.TransferOutcome` as the direct and proxy
engines, so the three policies are directly comparable (see
``benchmarks/bench_ablation_dynamic_routing.py``).
"""

from __future__ import annotations

from typing import Sequence

from repro.core.multipath import TransferOutcome, TransferSpec, split_bytes
from repro.machine.system import BGQSystem
from repro.mpi.comm import SimComm
from repro.mpi.program import FlowProgram
from repro.network.flow import Flow
from repro.routing.dynamic import DynamicRouter
from repro.routing.zones import ZoneId
from repro.util.validation import ConfigError


def run_dynamic_transfer(
    system: BGQSystem,
    specs: Sequence[TransferSpec],
    *,
    zone: ZoneId = ZoneId.DYNAMIC_UNRESTRICTED,
    nsplits: int = 4,
    seed=2014,
) -> TransferOutcome:
    """Execute transfers with zone-0/1 dynamic routing (spray model).

    Each message becomes ``nsplits`` subflows on independently sampled
    zone-conformant paths, jointly capped at the single-stream ceiling.
    """
    specs = list(specs)
    if not specs:
        raise ConfigError("specs must be non-empty")
    if nsplits < 1:
        raise ConfigError(f"nsplits must be >= 1, got {nsplits}")
    router = DynamicRouter(system.topology, zone=zone, seed=seed)
    comm = SimComm(system)
    prog = FlowProgram(comm)
    params = system.params
    sub_cap = min(params.stream_cap, params.mem_bw) / nsplits

    mode_used: dict[tuple[int, int], str] = {}
    for spec in specs:
        k = min(nsplits, spec.nbytes)
        shares = split_bytes(spec.nbytes, k)
        paths = router.sample_spray(spec.src, spec.dst, k)
        exits = []
        for i, (share, path) in enumerate(zip(shares, paths)):
            fid = f"dyn:{spec.src}->{spec.dst}:{i}"
            prog.flows.append(
                Flow(
                    fid=fid,
                    size=float(share),
                    path=path.links,
                    delay=params.o_msg,
                    rate_cap=sub_cap if k > 1 else None,
                    tag=(spec.src, spec.dst),
                )
            )
            exits.append(fid)
        prog.event(exits, label="dyn-done")
        mode_used[(spec.src, spec.dst)] = f"dynamic:z{int(zone)}x{k}"

    result = prog.run()
    total = float(sum(s.nbytes for s in specs))
    return TransferOutcome(
        makespan=result.makespan,
        total_bytes=total,
        mode_used=mode_used,
        result=result,
        plan=None,
    )
