"""Unit tests for the load/store queue searches and the kernel's queues.

The searches run over slot columns (a :class:`tests.conftest.ColumnTable`);
the queue bookkeeping tests watch the kernel's own LQ/SQ deques through a
per-cycle callback during real runs.
"""

import random

import pytest

from repro.isa.opcodes import InstrClass
from repro.lsq.queues import (
    SOA_CACHE,
    SOA_FORWARD,
    SOA_REJECT,
    lq_violation_search_soa,
    sq_forward_search_soa,
)
from repro.sim.config import SchemeConfig, small_config
from repro.sim.processor import Processor
from repro.sim.runner import run_trace
from repro.sim.validate import check_invariants
from tests.conftest import ColumnTable, TraceBuilder, run_until


def mk_store(k, seq, addr, size=8, resolved=True, data_ready=True):
    slot = k.store(seq, addr, size=size, resolve_cycle=1 if resolved else -1)
    k.pdata[slot] = 0 if data_ready else 1
    k.sq.append(slot)
    return slot


def mk_load(k, seq, addr, size=8, issued=False):
    return k.load(seq, addr, size=size, issue_cycle=1 if issued else -1)


def forward(k, load):
    """The SQ forwarding search for ``load`` over ``k.sq``."""
    l_addr = k.addr[load]
    return sq_forward_search_soa(k.sq, k.seq, k.addr, k.size, k.rcyc, k.pdata,
                                 k.seq[load], l_addr, l_addr + k.size[load])


def violation(k, store):
    """The LQ violation search for ``store`` over ``k.lq``."""
    s_addr = k.addr[store]
    return lq_violation_search_soa(k.lq, k.seq, k.addr, k.size, k.icyc,
                                   k.seq[store], s_addr, s_addr + k.size[store])


class TestForwarding:
    def test_no_older_stores_goes_to_cache(self, table):
        action, _, all_resolved = forward(table, mk_load(table, 5, 0x100))
        assert action == SOA_CACHE
        assert all_resolved

    def test_full_cover_forwards(self, table):
        mk_store(table, 1, 0x100, size=8)
        action, match, _ = forward(table, mk_load(table, 5, 0x100, size=4))
        assert action == SOA_FORWARD
        assert table.seq[match] == 1

    def test_partial_cover_rejects(self, table):
        mk_store(table, 1, 0x100, size=4)
        action, _, _ = forward(table, mk_load(table, 5, 0x100, size=8))
        assert action == SOA_REJECT

    def test_data_not_ready_rejects(self, table):
        mk_store(table, 1, 0x100, data_ready=False)
        action, _, _ = forward(table, mk_load(table, 5, 0x100))
        assert action == SOA_REJECT

    def test_youngest_older_store_wins(self, table):
        mk_store(table, 1, 0x100)
        mk_store(table, 2, 0x100)
        _, match, _ = forward(table, mk_load(table, 5, 0x100))
        assert table.seq[match] == 2

    def test_younger_stores_ignored(self, table):
        mk_store(table, 9, 0x100)
        action, _, _ = forward(table, mk_load(table, 5, 0x100))
        assert action == SOA_CACHE

    def test_unresolved_older_store_makes_speculative(self, table):
        mk_store(table, 1, 0x100, resolved=False)
        action, _, all_resolved = forward(table, mk_load(table, 5, 0x200))
        assert action == SOA_CACHE
        assert not all_resolved

    def test_unresolved_does_not_block_forwarding_from_resolved(self, table):
        mk_store(table, 1, 0x100)
        mk_store(table, 2, 0x300, resolved=False)
        action, _, all_resolved = forward(table, mk_load(table, 5, 0x100))
        assert action == SOA_FORWARD
        assert not all_resolved

    def test_search_counting(self):
        """The kernel counts each load's SQ search, or its age-filtered
        skip (Section 3's oldest-store filter), exactly once."""
        b = TraceBuilder()
        for i in range(6):
            b.load(0x100 + 8 * i, dst=2 + i)
        b.fill(10)
        trace = b.build()
        base = small_config(wrongpath_loads=False)
        plain = run_trace(base, trace).counters
        assert plain["sq.searches_assoc"] == 6
        assert plain["sq.searches_filtered_age"] == 0
        filtered = run_trace(
            base.with_scheme(SchemeConfig(kind="conventional", sq_filter=True)),
            trace).counters
        assert filtered["sq.searches_assoc"] == 0
        assert filtered["sq.searches_filtered_age"] == 6


def _replaying_run(on_cycle, scheme=SchemeConfig(kind="conventional")):
    """A run with stores in flight, a premature load and its replay."""
    b = TraceBuilder()
    b.fill(4)
    b.alu(dst=10, cls=InstrClass.IDIV)
    b.store(0x800, srcs=(10,), data_src=28)
    b.load(0x800, dst=11)
    for i in range(6):
        b.store(0x900 + 8 * i)
        b.load(0x900 + 8 * i, dst=12)
    b.fill(30)
    trace = b.build()
    proc = Processor(small_config(wrongpath_loads=False).with_scheme(scheme), trace)
    return proc.run(len(trace), on_cycle=lambda cycle: on_cycle(proc.kernel))


class TestStoreQueueBookkeeping:
    def test_retire_order_enforced(self):
        corrupted = []

        def swap_sq_once(k):
            if not corrupted and len(k.sq) >= 2:
                k.sq[0], k.sq[1] = k.sq[1], k.sq[0]
                corrupted.append(True)

        with pytest.raises(AssertionError, match="SQ retired out of order"):
            _replaying_run(swap_sq_once)
        assert corrupted

    def test_oldest_unresolved(self):
        seen = []

        def check(k):
            unresolved = [k.seq[slot] for slot in k.sq if k.rcyc[slot] < 0]
            assert k.sq_unresolved == len(unresolved)
            if unresolved and len(unresolved) < len(k.sq):
                seen.append(min(unresolved))

        _replaying_run(check)
        assert seen  # some cycle held resolved and unresolved stores

    def test_squash_younger(self):
        proc = Processor(small_config(wrongpath_loads=False),
                         TraceBuilder().store(0x100).store(0x108).store(0x110)
                         .fill(20).build())
        k = run_until(proc, lambda k: len(k.sq) == 3)
        kept, boundary = k.sq[0], k.sq[1]
        k._squash_from(boundary)
        assert list(k.sq) == [kept]
        assert k.sq_by_seq == {k.seq[kept]: kept}
        assert all(k.seq[slot] < k.seq[boundary] for slot in k.rob)
        check_invariants(proc)

    def test_find_by_seq_tracks_allocate_retire_squash(self):
        def check(k):
            assert k.sq_by_seq == {k.seq[slot]: slot for slot in k.sq}

        result = _replaying_run(check)
        assert result.counters["commit.stores"] == 7
        assert result.counters["squash.instructions"] > 0


class TestLoadQueueSearch:
    def test_finds_oldest_younger_issued_overlap(self, table):
        table.lq.append(mk_load(table, 3, 0x100, issued=True))
        table.lq.append(mk_load(table, 4, 0x100, issued=True))
        victim = violation(table, mk_store(table, 2, 0x100))
        assert table.seq[victim] == 3

    def test_ignores_unissued_and_older(self, table):
        table.lq.append(mk_load(table, 1, 0x100, issued=True))    # older than store
        table.lq.append(mk_load(table, 4, 0x100, issued=False))   # not issued
        assert violation(table, mk_store(table, 2, 0x100)) == -1

    def test_ignores_disjoint_addresses(self, table):
        table.lq.append(mk_load(table, 4, 0x200, issued=True))
        assert violation(table, mk_store(table, 2, 0x100)) == -1

    def test_partial_overlap_detected(self, table):
        table.lq.append(mk_load(table, 4, 0x104, size=4, issued=True))
        assert violation(table, mk_store(table, 2, 0x100, size=8)) >= 0

    def test_ring_iteration_is_age_ordered(self):
        def check(k):
            ages = [k.seq[slot] for slot in k.lq]
            assert ages == sorted(ages)

        _replaying_run(check)

    def test_search_counters(self):
        """Every resolving store is counted once: searched, or (under a
        filtering scheme) filtered."""
        conventional = _replaying_run(lambda k: None).counters
        assert conventional["lq.searches_assoc"] == conventional["stores.resolved"]
        assert conventional["lq.searches_filtered"] == 0
        yla = _replaying_run(lambda k: None, SchemeConfig(kind="yla")).counters
        assert yla["lq.searches_filtered"] > 0
        assert (yla["lq.searches_assoc"] + yla["lq.searches_filtered"]
                == yla["stores.resolved"])


class TestSoaSearchEquivalence:
    """The slot-array searches must agree with the object-queue semantics
    they replaced — restated here as brute-force references — on every
    randomized queue population."""

    def test_forward_search_matches_object_path(self):
        rng = random.Random(1234)
        for _ in range(300):
            k = ColumnTable()
            seqs = sorted(rng.randrange(0, 20) for _ in range(rng.randrange(0, 9)))
            stores = [mk_store(k, seq, rng.randrange(0, 5) * 4,
                               size=rng.choice((4, 8)),
                               resolved=rng.random() < 0.7,
                               data_ready=rng.random() < 0.7) for seq in seqs]
            load = mk_load(k, rng.randrange(0, 20), rng.randrange(0, 5) * 4,
                           size=rng.choice((4, 8)))
            l_seq, l_addr, l_end = k.seq[load], k.addr[load], k.addr[load] + k.size[load]
            older = [s for s in stores if k.seq[s] < l_seq]
            hits = [s for s in older if k.rcyc[s] >= 0
                    and k.addr[s] < l_end and l_addr < k.addr[s] + k.size[s]]
            expected_match = hits[-1] if hits else -1
            if not hits:
                expected_action = SOA_CACHE
            elif (k.addr[expected_match] <= l_addr
                  and l_end <= k.addr[expected_match] + k.size[expected_match]
                  and k.pdata[expected_match] == 0):
                expected_action = SOA_FORWARD
            else:
                expected_action = SOA_REJECT
            action, match, all_resolved = forward(k, load)
            assert action == expected_action
            assert all_resolved == all(k.rcyc[s] >= 0 for s in older)
            # Same-age stores are indistinguishable; compare the ages.
            assert (k.seq[match] if match >= 0 else -1) == \
                (k.seq[expected_match] if expected_match >= 0 else -1)

    def test_violation_search_matches_object_path(self):
        rng = random.Random(99)
        for _ in range(300):
            k = ColumnTable()
            seqs = sorted(rng.randrange(0, 20) for _ in range(rng.randrange(0, 9)))
            for seq in seqs:
                k.lq.append(mk_load(k, seq, rng.randrange(0, 5) * 4,
                                    size=rng.choice((4, 8)),
                                    issued=rng.random() < 0.7))
            store = mk_store(k, rng.randrange(0, 20), rng.randrange(0, 5) * 4,
                             size=rng.choice((4, 8)))
            s_seq, s_addr, s_end = k.seq[store], k.addr[store], k.addr[store] + k.size[store]
            matches = [l for l in k.lq if k.seq[l] > s_seq and k.icyc[l] >= 0
                       and s_addr < k.addr[l] + k.size[l] and k.addr[l] < s_end]
            assert violation(k, store) == (matches[0] if matches else -1)
