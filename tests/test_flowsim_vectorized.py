"""The vectorized incidence-matrix waterfill against a retained reference.

:func:`waterfill_csr` solves progressive filling over a precomputed
link×flow incidence CSR (plus its transpose) with no per-flow Python
loops.  These tests pin its semantics to ``_waterfill_reference`` below —
a straight per-iteration transliteration of the pre-vectorization
algorithm (remaining-capacity form, kept here verbatim as the oracle) —
over Hypothesis-generated random flow sets:

* identical rates within float tolerance, exact mode and ``fair_tol > 0``;
* the same freeze order, up to near-ties inside the exact-mode 1e-9
  saturation slack (the reference groups those in one iteration, the
  vectorized kernel may split them across adjacent iterations at levels
  within the slack — rates then differ by at most the slack itself);
* freeze levels monotone non-decreasing, every active flow frozen
  exactly once, rates equal to the logged freeze levels.

The harness mirrors :meth:`FlowSim.run`'s setup: dense link space =
real links followed by one private virtual cap link per flow, incidence
rows ending with the virtual link so every row is non-empty.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.network.flowsim import waterfill_csr

N_REAL = 5  # real links; virtual cap links are appended per flow

# Exact-mode freeze grouping uses a 1e-9 relative saturation slack; rates
# may differ by up to that between the two implementations on near-ties.
SLACK = 1e-9


def _waterfill_reference(caps_full, rows, fair_tol=0.0, freeze_log=None):
    """Reference progressive filling (pre-vectorization algorithm).

    ``rows[i]`` is flow i's dense-link row (entry-based: duplicate link
    ids count twice, matching the production kernel).  Appends
    ``(level, frozen_indices)`` per filling iteration to ``freeze_log``.
    """
    nf = len(rows)
    lens = np.fromiter((len(r) for r in rows), dtype=np.int64, count=nf)
    concat_g = np.concatenate(rows)
    flow_of_entry = np.repeat(np.arange(nf), lens)

    links, concat = np.unique(concat_g, return_inverse=True)
    cap_rem = caps_full[links].astype(np.float64, copy=True)
    cap0 = cap_rem.copy()
    nfl = np.bincount(concat, minlength=len(links)).astype(np.float64)
    entry_alive = np.ones(len(concat), dtype=bool)
    rate = np.zeros(nf)
    frozen = np.zeros(nf, dtype=bool)
    n_frozen = 0
    level = 0.0

    for _ in range(nf + 1):
        if n_frozen == nf:
            break
        live = nfl > 0
        assert live.any(), "no live links but unfrozen flows remain"
        shares = np.where(live, cap_rem / np.where(live, nfl, 1.0), np.inf)
        inc = shares.min()
        if inc < 0:
            inc = 0.0
        level += inc
        rate[~frozen] += inc
        cap_rem[live] -= inc * nfl[live]
        if fair_tol > 0:
            sat = live & (shares <= inc * (1 + fair_tol))
            cap_rem[sat] = 0.0
        else:
            sat = live & (cap_rem <= cap0 * SLACK)
        hit = entry_alive & sat[concat]
        assert hit.any(), "no flow froze in an iteration"
        newly = np.unique(flow_of_entry[hit])
        frozen[newly] = True
        n_frozen += len(newly)
        if freeze_log is not None:
            freeze_log.append((level, newly))
        dead = entry_alive & frozen[flow_of_entry]
        np.subtract.at(nfl, concat[dead], 1.0)
        entry_alive[dead] = False
    else:
        raise AssertionError("reference waterfill did not converge")
    return rate


def _call_vectorized(caps_full, rows, active, fair_tol=0.0):
    """Drive :func:`waterfill_csr` exactly as :meth:`FlowSim.run` does."""
    n = len(rows)
    lens = np.fromiter((len(r) for r in rows), dtype=np.int64, count=n)
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lens, out=ptr[1:])
    flat = np.concatenate(rows).astype(np.int64)
    nlinks = len(caps_full)
    rep_flow = np.repeat(np.arange(n, dtype=np.int64), lens)
    t_order = np.argsort(flat, kind="stable")
    t_flow = rep_flow[t_order]
    t_lens = np.bincount(flat, minlength=nlinks)
    t_ptr = np.zeros(nlinks + 1, dtype=np.int64)
    np.cumsum(t_lens, out=t_ptr[1:])
    rows_unique = len(np.unique(flat * np.int64(n) + rep_flow)) == len(flat)
    frozen0 = np.ones(n, dtype=bool)
    frozen0[active] = False
    nfl0 = np.bincount(
        flat[~frozen0[rep_flow]], minlength=nlinks
    ).astype(np.float64)
    log = []
    rate = waterfill_csr(
        caps_full,
        flat,
        ptr,
        lens,
        t_flow,
        t_ptr,
        t_lens,
        frozen0,
        nfl0,
        len(active),
        N_REAL,
        freeze_log=log,
        rows_unique=rows_unique,
        fair_tol=fair_tol,
    )
    return rate, log


# A random flow: real-link bitmask (0 => virtual-only), a virtual rate
# cap, whether the first real link appears twice (exercises the
# duplicate-entry / dedup paths), and whether the flow is active.
flow_specs = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2**N_REAL - 1),
        st.floats(min_value=1.0, max_value=500.0, allow_nan=False),
        st.booleans(),
        st.booleans(),
    ),
    min_size=1,
    max_size=12,
)
cap_specs = st.lists(
    st.floats(min_value=1.0, max_value=1000.0, allow_nan=False),
    min_size=N_REAL,
    max_size=N_REAL,
)


def _scenario(specs, caps):
    rows = []
    for i, (mask, _vcap, dup, _act) in enumerate(specs):
        real = [l for l in range(N_REAL) if mask >> l & 1]
        if dup and real:
            real.append(real[0])
        rows.append(np.array(real + [N_REAL + i], dtype=np.int64))
    caps_full = np.concatenate(
        [np.asarray(caps), [vcap for _, vcap, _, _ in specs]]
    )
    active = np.array(
        [i for i, (_, _, _, act) in enumerate(specs) if act], dtype=np.int64
    )
    if len(active) == 0:  # always exercise at least one active flow
        active = np.array([0], dtype=np.int64)
    return rows, caps_full, active


def _levels_of(log):
    out = {}
    for level, newly in log:
        for j in np.asarray(newly).tolist():
            assert j not in out, f"flow {j} frozen twice"
            out[j] = level
    return out


def _check_against_reference(specs, caps, fair_tol):
    rows, caps_full, active = _scenario(specs, caps)
    rate_vec, log_vec = _call_vectorized(caps_full, rows, active, fair_tol)

    ref_log = []
    rate_ref = _waterfill_reference(
        caps_full,
        [rows[i] for i in active],
        fair_tol=fair_tol,
        freeze_log=ref_log,
    )

    # Same rates (slack-sized divergence allowed on exact-mode near-ties).
    scale = float(caps_full.max())
    np.testing.assert_allclose(
        rate_vec[active], rate_ref, rtol=1e-7, atol=SLACK * scale
    )
    # Inactive flows keep a zero rate.
    inactive = np.setdiff1d(np.arange(len(rows)), active)
    assert not rate_vec[inactive].any()

    # Freeze logs: monotone levels, every active flow exactly once, and
    # per-flow freeze levels agreeing within the slack.  The vectorized
    # log holds the frozen index arrays; their common level is the rate
    # they froze at.
    lv_vec = _levels_of([(rate_vec[np.asarray(nw)[0]], nw) for nw in log_vec])
    lv_ref = _levels_of(ref_log)
    assert set(lv_vec) == {int(i) for i in active}
    assert set(lv_ref) == set(range(len(active)))
    seq = [lv for lv, _ in ref_log]
    assert all(a <= b + SLACK * scale for a, b in zip(seq, seq[1:]))
    vec_seq = [rate_vec[np.asarray(nw)[0]] for nw in log_vec]
    assert all(a <= b + SLACK * scale for a, b in zip(vec_seq, vec_seq[1:]))
    for pos, glob in enumerate(active.tolist()):
        assert abs(lv_vec[glob] - lv_ref[pos]) <= max(
            1e-7 * abs(lv_ref[pos]), SLACK * scale
        )
    # Same freeze order for flows separated by more than the slack: the
    # first-occurrence order in each log matches when sorted by level.
    order_vec = [
        int(j) for nw in log_vec for j in np.asarray(nw).tolist()
    ]
    order_ref = [
        int(active[j]) for _, nw in ref_log for j in np.asarray(nw).tolist()
    ]
    rank_vec = {j: k for k, j in enumerate(order_vec)}
    pos_of = {int(glob): pos for pos, glob in enumerate(active.tolist())}
    for a_i in range(len(order_ref)):
        for b_i in range(a_i + 1, len(order_ref)):
            fa, fb = order_ref[a_i], order_ref[b_i]
            la = lv_ref[pos_of[fa]]
            lb = lv_ref[pos_of[fb]]
            if lb - la > 2 * SLACK * scale + 1e-7 * abs(lb):
                assert rank_vec[fa] < rank_vec[fb], (
                    f"freeze order differs for flows {fa} (level {la}) "
                    f"and {fb} (level {lb})"
                )

    # Feasibility: per-link loads never exceed capacity.
    load = np.zeros(len(caps_full))
    for i in active.tolist():
        np.add.at(load, rows[i], rate_vec[i])
    assert (load <= caps_full * (1 + 1e-9) + 1e-12).all()


class TestVectorizedWaterfill:
    @settings(max_examples=60, deadline=None)
    @given(flow_specs, cap_specs)
    def test_exact_mode_matches_reference(self, specs, caps):
        _check_against_reference(specs, caps, fair_tol=0.0)

    @settings(max_examples=60, deadline=None)
    @given(flow_specs, cap_specs)
    def test_fair_tol_matches_reference(self, specs, caps):
        _check_against_reference(specs, caps, fair_tol=0.05)

    def test_slack_near_tie_grouping_stays_within_slack(self):
        """Two links whose levels differ by under the slack: the reference
        groups them in one iteration, the kernel may split — but the
        rates agree within the slack either way."""
        eps = 2e-10  # inside the 1e-9 relative saturation slack
        caps = np.array([100.0, 100.0 * (1 + eps), 1e9, 1e9])
        rows = [
            np.array([0, 2], dtype=np.int64),
            np.array([1, 3], dtype=np.int64),
        ]
        active = np.array([0, 1], dtype=np.int64)
        rate_vec, _ = _call_vectorized(caps, rows, active)
        rate_ref = _waterfill_reference(caps, rows)
        np.testing.assert_allclose(rate_vec[:2], rate_ref, rtol=1e-9)
