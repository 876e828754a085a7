"""Unit tests for the DMDC scheme driven by hand-crafted events.

The scheme's hook set runs over a :class:`tests.conftest.ColumnTable`:
the kernel's slot columns, filled by hand.
"""

from repro.core.schemes.dmdc import DmdcScheme
from tests.conftest import ColumnTable


def bind(scheme):
    """``(hooks, table)`` for driving ``scheme`` without a pipeline."""
    table = ColumnTable()
    return scheme.soa_hooks(table), table


def resolve(h, k, store, cycle=0):
    k.rcyc[store] = cycle
    k.icyc[store] = cycle
    return h.on_store_resolve(store, cycle)


class TestSafetyClassification:
    def test_store_safe_without_younger_loads(self):
        s = DmdcScheme()
        h, k = bind(s)
        h.on_load_issue(k.load(3, 0x100), 0)
        store = k.store(5, 0x100)
        resolve(h, k, store)
        assert not k.unsafe[store]
        assert s.stats["stores.safe"] == 1

    def test_store_unsafe_with_younger_issued_load(self):
        s = DmdcScheme()
        h, k = bind(s)
        h.on_load_issue(k.load(9, 0x100), 0)
        store = k.store(5, 0x100)
        resolve(h, k, store)
        assert k.unsafe[store]
        assert k.wend[store] == 9
        assert s.stats["stores.unsafe"] == 1

    def test_never_requests_execution_time_replay(self):
        s = DmdcScheme()
        h, k = bind(s)
        h.on_load_issue(k.load(9, 0x100), 0)
        assert resolve(h, k, k.store(5, 0x100)) == -1


class TestCheckingWindow:
    def test_window_opens_at_unsafe_store_commit(self):
        s = DmdcScheme()
        h, k = bind(s)
        h.on_load_issue(k.load(9, 0x100), 0)
        store = k.store(5, 0x100)
        resolve(h, k, store)
        assert not s.checking_active
        h.on_commit(store, 10)
        assert s.checking_active

    def test_window_terminates_past_boundary(self):
        s = DmdcScheme()
        h, k = bind(s)
        h.on_load_issue(k.load(9, 0x100), 0)
        store = k.store(5, 0x100)
        resolve(h, k, store)
        h.on_commit(store, 10)
        for seq in (6, 7, 8):
            assert h.on_commit(k.alu(seq), 11) is False
            assert s.checking_active
        h.on_commit(k.alu(9), 12)   # boundary reached
        assert not s.checking_active
        assert s.table.marked_count == 0  # flash-cleared

    def test_load_in_window_same_address_replays(self):
        s = DmdcScheme()
        h, k = bind(s)
        premature = k.load(9, 0x100)
        h.on_load_issue(premature, 0)
        store = k.store(5, 0x100)
        resolve(h, k, store, cycle=3)
        h.on_commit(store, 10)
        assert h.on_commit(premature, 11) is True
        assert s.stats["loads.checked"] == 1

    def test_disjoint_load_in_window_passes(self):
        s = DmdcScheme()
        h, k = bind(s)
        h.on_load_issue(k.load(9, 0x100), 0)
        store = k.store(5, 0x100)
        resolve(h, k, store)
        h.on_commit(store, 10)
        assert h.on_commit(k.load(8, 0x4000), 11) is False

    def test_safe_load_bypasses_checking(self):
        s = DmdcScheme(safe_loads=True)
        h, k = bind(s)
        h.on_load_issue(k.load(9, 0x100), 0)
        store = k.store(5, 0x100)
        resolve(h, k, store)
        h.on_commit(store, 10)
        safe = k.load(8, 0x100, safe=True)
        assert h.on_commit(safe, 11) is False
        assert s.stats["loads.safe_bypassed"] == 1

    def test_safe_load_checked_when_optimisation_off(self):
        s = DmdcScheme(safe_loads=False)
        h, k = bind(s)
        h.on_load_issue(k.load(9, 0x100), 0)
        store = k.store(5, 0x100)
        resolve(h, k, store, cycle=3)
        h.on_commit(store, 10)
        safe = k.load(8, 0x100, safe=True)
        assert h.on_commit(safe, 11) is True

    def test_window_stats_recorded(self):
        s = DmdcScheme()
        h, k = bind(s)
        h.on_load_issue(k.load(9, 0x100), 0)
        store = k.store(5, 0x100)
        resolve(h, k, store)
        h.on_commit(store, 10)
        h.on_commit(k.load(7, 0x4000), 11)
        h.on_commit(k.alu(9), 12)
        assert s.window_instrs.count == 1
        assert s.window_loads.mean == 1.0
        assert s.window_unsafe_stores.mean == 1.0

    def test_finalize_closes_open_window(self):
        s = DmdcScheme()
        h, k = bind(s)
        h.on_load_issue(k.load(9, 0x100), 0)
        store = k.store(5, 0x100)
        resolve(h, k, store)
        h.on_commit(store, 10)
        s.finalize(20)
        assert not s.checking_active
        assert s.stats["windows.closed"] == 1


class TestGlobalVsLocal:
    def _unsafe_store(self, h, k, seq, addr, youngest):
        h.on_load_issue(k.load(youngest, addr), 0)
        store = k.store(seq, addr)
        resolve(h, k, store)
        return store

    def test_global_end_pushed_at_issue(self):
        s = DmdcScheme(local=False)
        h, k = bind(s)
        s1 = self._unsafe_store(h, k, 5, 0x100, youngest=9)
        # A second unsafe store pushes the global register before committing.
        self._unsafe_store(h, k, 7, 0x200, youngest=30)
        h.on_commit(s1, 10)
        # Window now extends to 30 even though s2 has not committed.
        h.on_commit(k.alu(9), 11)
        assert s.checking_active

    def test_local_end_only_at_commit(self):
        s = DmdcScheme(local=True)
        h, k = bind(s)
        s1 = self._unsafe_store(h, k, 5, 0x100, youngest=9)
        self._unsafe_store(h, k, 7, 0x200, youngest=30)  # never commits
        h.on_commit(s1, 10)
        h.on_commit(k.alu(9), 11)   # s1's own boundary
        assert not s.checking_active

    def test_local_window_extends_on_second_commit(self):
        s = DmdcScheme(local=True)
        h, k = bind(s)
        s1 = self._unsafe_store(h, k, 5, 0x100, youngest=9)
        s2 = self._unsafe_store(h, k, 7, 0x200, youngest=30)
        h.on_commit(s1, 10)
        h.on_commit(s2, 11)
        h.on_commit(k.alu(9), 12)
        assert s.checking_active  # boundary is now 30


class TestReplayClassification:
    def _window_with_store(self, h, k, store_seq=5, addr=0x100, youngest=9,
                           resolve_cycle=5):
        h.on_load_issue(k.load(youngest, addr), 0)
        store = k.store(store_seq, addr)
        resolve(h, k, store, cycle=resolve_cycle)
        h.on_commit(store, 10)
        return store

    def test_true_replay(self):
        s = DmdcScheme()
        h, k = bind(s)
        self._window_with_store(h, k)
        victim = k.load(8, 0x100, issue_cycle=1)
        k.tvs[victim] = 5
        assert h.on_commit(victim, 11) is True
        assert s.stats["replay.true"] == 1
        assert s.stats["replay.false"] == 0

    def test_addr_match_in_window_is_X(self):
        s = DmdcScheme()
        h, k = bind(s)
        self._window_with_store(h, k, resolve_cycle=5)
        # Issued AFTER the store resolved, inside the window: timing approx.
        late = k.load(8, 0x100, issue_cycle=9)
        assert h.on_commit(late, 11) is True
        assert s.stats["replay.false.addr.X"] == 1

    def test_addr_match_outside_window_is_Y(self):
        s = DmdcScheme()
        h, k = bind(s)
        self._window_with_store(h, k, youngest=7, resolve_cycle=5)
        # seq 8 > boundary 7: only checked because the window merged/stayed.
        stray = k.load(8, 0x100, issue_cycle=9)
        s._active_end = 20  # simulate a merged, extended window
        assert h.on_commit(stray, 11) is True
        assert s.stats["replay.false.addr.Y"] == 1

    def test_hash_conflict_before_store(self):
        s = DmdcScheme(table_entries=16)
        h, k = bind(s)
        self._window_with_store(h, k, resolve_cycle=5)
        alias = next(
            qw * 8 for qw in range(1 << 12)
            if qw * 8 != 0x100 and s.table.index(qw * 8) == s.table.index(0x100)
        )
        early = k.load(8, alias, issue_cycle=2)  # issued before store resolved
        assert h.on_commit(early, 11) is True
        assert s.stats["replay.false.hash.before"] == 1

    def test_hash_conflict_after_store_in_window(self):
        s = DmdcScheme(table_entries=16)
        h, k = bind(s)
        self._window_with_store(h, k, resolve_cycle=5)
        alias = next(
            qw * 8 for qw in range(1 << 12)
            if qw * 8 != 0x100 and s.table.index(qw * 8) == s.table.index(0x100)
        )
        late = k.load(8, alias, issue_cycle=9)
        assert h.on_commit(late, 11) is True
        assert s.stats["replay.false.hash.X"] == 1


class TestCoherence:
    def test_invalidation_filtered_when_no_inflight_loads(self):
        s = DmdcScheme(coherence=True)
        h, _ = bind(s)
        h.on_invalidation(0x1000, 128, 0, oldest_inflight_seq=100)
        assert s.stats["inv.filtered"] == 1
        assert not s.checking_active

    def test_invalidation_opens_window(self):
        s = DmdcScheme(coherence=True)
        h, k = bind(s)
        h.on_load_issue(k.load(9, 0x1008), 0)
        h.on_invalidation(0x1000, 128, 1, oldest_inflight_seq=3)
        assert s.checking_active
        assert s.stats["inv.marked"] == 1

    def test_second_load_to_invalidated_line_replays(self):
        s = DmdcScheme(coherence=True)
        h, k = bind(s)
        h.on_load_issue(k.load(9, 0x1008), 0)
        h.on_invalidation(0x1000, 128, 1, oldest_inflight_seq=3)
        first = k.load(7, 0x1008, issue_cycle=2)
        assert h.on_commit(first, 5) is False   # promotes
        second = k.load(8, 0x1008, issue_cycle=3)
        assert h.on_commit(second, 6) is True
        assert s.stats["replay.false.inv"] == 1

    def test_line_yla_makes_store_safe(self):
        """With two YLA sets a store is safe when either records an older age."""
        s = DmdcScheme(coherence=True)
        h, k = bind(s)
        # A younger load to the same line but a different quad word: the
        # word-interleaved register for the store's bank stays old.
        h.on_load_issue(k.load(9, 0x1008), 0)
        store = k.store(5, 0x1000 + 8 * 3)
        resolve(h, k, store)
        # line register says unsafe, word register says safe -> safe overall
        assert not k.unsafe[store]


class TestCheckingQueueMode:
    def test_exact_match_replays(self):
        s = DmdcScheme(checking_queue_entries=4)
        h, k = bind(s)
        h.on_load_issue(k.load(9, 0x100), 0)
        store = k.store(5, 0x100)
        resolve(h, k, store, cycle=3)
        h.on_commit(store, 10)
        assert h.on_commit(k.load(8, 0x100, issue_cycle=5), 11) is True

    def test_no_hash_conflicts(self):
        s = DmdcScheme(checking_queue_entries=4)
        h, k = bind(s)
        h.on_load_issue(k.load(9, 0x100), 0)
        store = k.store(5, 0x100)
        resolve(h, k, store)
        h.on_commit(store, 10)
        assert h.on_commit(k.load(8, 0x77770, issue_cycle=5), 11) is False

    def test_overflow_forces_replay(self):
        s = DmdcScheme(checking_queue_entries=1)
        h, k = bind(s)
        for seq, youngest in ((3, 40), (5, 41)):
            h.on_load_issue(k.load(youngest, 0x100 + seq * 64), 0)
            store = k.store(seq, 0x100 + seq * 64)
            resolve(h, k, store)
            h.on_commit(store, 10)
        load = k.load(30, 0x9000, issue_cycle=5)
        assert h.on_commit(load, 12) is True
        assert s.stats["replay.overflow"] == 1


class TestNames:
    def test_variant_names(self):
        assert DmdcScheme().name == "dmdc-global"
        assert DmdcScheme(local=True).name == "dmdc-local"
        assert "queue" in DmdcScheme(checking_queue_entries=8).name
        assert "coherent" in DmdcScheme(coherence=True).name
