"""Unit tests for conventional/filtered dependence-checking schemes.

Each scheme's hook set runs over a :class:`tests.conftest.ColumnTable`;
its LQ search tallies land on the table exactly as they land on the
kernel.
"""

from repro.core.schemes.conventional import (
    BloomFilteredScheme,
    ConventionalScheme,
    YlaFilteredScheme,
)
from tests.conftest import ColumnTable


def bind(scheme):
    """``(hooks, table)`` for driving ``scheme`` without a pipeline."""
    table = ColumnTable()
    return scheme.soa_hooks(table), table


def store(k, seq, addr, size=8):
    return k.store(seq, addr, size=size, resolve_cycle=1)


class TestConventional:
    def test_always_searches(self):
        h, k = bind(ConventionalScheme())
        h.on_store_resolve(store(k, 1, 0x100), 0)
        assert k.lq_searches == 1 and k.lq_searches_filtered == 0

    def test_detects_premature_load(self):
        s = ConventionalScheme()
        h, k = bind(s)
        victim = k.load(5, 0x100)
        k.lq.append(victim)
        assert h.on_store_resolve(store(k, 2, 0x100), 0) == victim
        assert s.stats["replay.execution_time"] == 1

    def test_no_coherence_hooks_by_default(self):
        h, k = bind(ConventionalScheme(coherence=False))
        h.on_invalidation(0x1000, 128, 0, 0)
        assert k.lq_inv_searches == 0


class TestConventionalCoherence:
    def test_invalidation_marks_issued_loads(self):
        h, k = bind(ConventionalScheme(coherence=True))
        in_line = k.load(5, 0x1040)
        other = k.load(6, 0x2000)
        k.lq.extend((in_line, other))
        h.on_invalidation(0x1000, 128, 0, 0)
        assert h.inv_marked[in_line] and not h.inv_marked[other]

    def test_load_issue_replays_younger_marked_same_line(self):
        s = ConventionalScheme(coherence=True)
        h, k = bind(s)
        younger = k.load(7, 0x1040)
        h.inv_marked[younger] = True
        k.lq.append(younger)
        victim = h.on_load_issue(k.load(3, 0x1000), 0)
        assert victim == younger
        assert s.stats["replay.coherence"] == 1

    def test_no_replay_for_unmarked(self):
        h, k = bind(ConventionalScheme(coherence=True))
        k.lq.append(k.load(7, 0x1040))
        assert h.on_load_issue(k.load(3, 0x1000), 0) == -1


class TestYlaFiltered:
    def test_filters_when_no_younger_load(self):
        s = YlaFilteredScheme(num_registers=8)
        h, k = bind(s)
        h.on_load_issue(k.load(3, 0x100), 0)
        h.on_store_resolve(store(k, 5, 0x100), 0)   # store younger: safe
        assert k.lq_searches == 0 and k.lq_searches_filtered == 1
        assert s.stats["stores.safe"] == 1

    def test_searches_when_younger_load_issued(self):
        h, k = bind(YlaFilteredScheme(num_registers=8))
        h.on_load_issue(k.load(9, 0x100), 0)
        h.on_store_resolve(store(k, 5, 0x100), 0)
        assert k.lq_searches == 1

    def test_wrongpath_corruption_and_recovery(self):
        h, k = bind(YlaFilteredScheme(num_registers=1))
        h.on_wrongpath_load(age=50, addr=0x100)
        h.on_store_resolve(store(k, 10, 0x100), 0)
        assert k.lq_searches == 1  # corrupted: conservative search
        h.on_recovery(last_kept_seq=10)
        h.on_store_resolve(store(k, 11, 0x100), 0)
        assert k.lq_searches_filtered == 1  # repaired

    def test_squash_rolls_back(self):
        s = YlaFilteredScheme(num_registers=1)
        h, k = bind(s)
        h.on_load_issue(k.load(30, 0x100), 0)
        h.on_squash(20, [])
        assert s.yla.youngest_for(0x100) == 20

    def test_collect_exports_counters(self):
        s = YlaFilteredScheme()
        h, k = bind(s)
        h.on_load_issue(k.load(1, 0), 0)
        s.collect()
        assert s.stats["yla.updates"] == 1


class TestBloomFiltered:
    def test_filters_unknown_address(self):
        h, k = bind(BloomFilteredScheme(entries=256))
        h.on_load_issue(k.load(3, 0x100), 0)
        h.on_store_resolve(store(k, 5, 0x9990 * 8), 0)
        assert k.lq_searches_filtered == 1

    def test_searches_on_aliasing_load_even_if_older(self):
        """The BF has no age information: an *older* issued load to the
        address forces the search (the weakness Figure 3 quantifies)."""
        h, k = bind(BloomFilteredScheme(entries=256))
        h.on_load_issue(k.load(3, 0x100), 0)
        h.on_store_resolve(store(k, 5, 0x100), 0)
        assert k.lq_searches == 1

    def test_commit_removes_from_filter(self):
        h, k = bind(BloomFilteredScheme(entries=256))
        load = k.load(3, 0x100)
        h.on_load_issue(load, 0)
        h.on_commit_load(load)
        h.on_store_resolve(store(k, 5, 0x100), 0)
        assert k.lq_searches_filtered == 1

    def test_squash_removes_issued_loads(self):
        h, k = bind(BloomFilteredScheme(entries=256))
        load = k.load(9, 0x100)
        h.on_load_issue(load, 0)
        h.on_squash(5, [k.addr[load]])
        h.on_store_resolve(store(k, 6, 0x100), 0)
        assert k.lq_searches_filtered == 1

    def test_wrongpath_phantoms_removed_at_recovery(self):
        h, k = bind(BloomFilteredScheme(entries=256))
        h.on_wrongpath_load(50, 0x100)
        h.on_recovery(10)
        h.on_store_resolve(store(k, 11, 0x100), 0)
        assert k.lq_searches_filtered == 1

    def test_collect(self):
        s = BloomFilteredScheme(entries=256)
        h, k = bind(s)
        h.on_load_issue(k.load(1, 0), 0)
        s.collect()
        assert s.stats["bloom.inserts"] == 1
        assert s.stats["bloom.entries"] == 256
