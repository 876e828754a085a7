"""Conventional associative-LQ checking, with optional search filters.

``ConventionalScheme`` is the paper's baseline (Section 2): every resolving
store CAM-searches the LQ for younger issued loads to the same address and
replays from the oldest match.

``YlaFilteredScheme`` (Section 3) and ``BloomFilteredScheme`` (Figure 3 /
[18]) keep that machinery but skip the search when their filter proves no
younger (YLA) / no aliasing (BF) issued load exists.  A filtered search is
counted separately — that count is the energy the filter saves.
"""

from typing import List

from repro.core.bloom import CountingBloomFilter
from repro.core.schemes.base import CheckScheme, SoaHooks
from repro.core.yla import YlaFile
from repro.lsq.queues import lq_violation_search_soa


class ConventionalScheme(CheckScheme):
    """Baseline: unfiltered associative LQ search at store resolution."""

    uses_associative_lq = True
    name = "conventional"

    def __init__(self, coherence: bool = False):
        super().__init__()
        self.coherence = coherence

    def soa_hooks(self, kernel):
        return _ConventionalHooks(self, kernel)


class YlaFilteredScheme(ConventionalScheme):
    """Conventional LQ + YLA-based search filtering (Section 3)."""

    name = "yla"

    def __init__(self, num_registers: int = 8, granularity_bytes: int = 8,
                 coherence: bool = False):
        super().__init__(coherence=coherence)
        self.yla = YlaFile(num_registers, granularity_bytes)

    def soa_hooks(self, kernel):
        return _YlaHooks(self, kernel)

    def collect(self) -> None:
        self.stats["yla.compares"] = self.yla.compares
        self.stats["yla.updates"] = self.yla.updates


class BloomFilteredScheme(ConventionalScheme):
    """Conventional LQ + counting-Bloom-filter search filtering [18]."""

    name = "bloom"

    def __init__(self, entries: int = 1024, coherence: bool = False):
        super().__init__(coherence=coherence)
        self.bloom = CountingBloomFilter(entries)
        self._phantoms: List[int] = []

    def soa_hooks(self, kernel):
        return _BloomHooks(self, kernel)

    def collect(self) -> None:
        self.stats["bloom.probes"] = self.bloom.probes
        self.stats["bloom.inserts"] = self.bloom.inserts
        self.stats["bloom.removes"] = self.bloom.removes
        self.stats["bloom.entries"] = self.bloom.entries
        self.stats["bloom.saturations"] = self.bloom.saturations


class _ConventionalHooks(SoaHooks):
    """:class:`ConventionalScheme`: every resolving store searches the LQ.

    The LQ search tallies live on the kernel (``lq_searches``,
    ``lq_searches_filtered``, ``lq_inv_searches``), which exports them as
    the ``lq.*`` counters.  With coherence on, every load issue performs
    the load-load ordering search, so the hook set also tracks which
    issued loads an invalidation marked.
    """

    has_store_resolve = True

    def __init__(self, scheme, kernel):
        super().__init__(scheme, kernel)
        if scheme.coherence:
            self.has_load_issue = True
            #: Per-slot "an invalidation hit this issued load" bits.
            self.inv_marked = [False] * len(kernel.seq)

    def _classified(self, slot: int, safe: bool, cycle: int) -> None:
        tracer = self.scheme.tracer
        if tracer is not None:
            tracer.record("store_safe" if safe else "store_unsafe",
                          self.k.view(slot), cycle)

    def _filtered(self, slot: int, cycle: int) -> int:
        """A filter proved the store safe: count it and skip the search."""
        self.scheme.stats.bump("stores.safe")
        self.k.lq_searches_filtered += 1
        self._classified(slot, True, cycle)
        return -1

    def _search(self, slot: int, cycle: int) -> int:
        """The unfiltered path: search the slot-array LQ, classify."""
        s = self.scheme
        k = self.k
        self._classified(slot, False, cycle)
        s.stats.bump("lq.searches")
        k.lq_searches += 1
        addr = k.addr[slot]
        victim = lq_violation_search_soa(
            k.lq, k.seq, k.addr, k.size, k.icyc,
            k.seq[slot], addr, addr + k.size[slot])
        if victim >= 0:
            s.stats.bump("replay.execution_time")
        return victim

    def on_store_resolve(self, slot: int, cycle: int) -> int:
        self.scheme.stats.bump("stores.resolved")
        return self._search(slot, cycle)

    def on_load_issue(self, slot: int, cycle: int) -> int:
        if not self.scheme.coherence:
            return -1
        # Load-load ordering (Section 2): the issuing load searches the LQ
        # for *younger* issued loads to the same line that saw an
        # invalidation; replay from the oldest such load.
        k = self.k
        marked = self.inv_marked
        marked[slot] = False
        k.lq_inv_searches += 1
        mask = ~(k.line_bytes - 1)
        line = k.addr[slot] & mask
        lseq = k.seq[slot]
        seq_ = k.seq
        for other in k.lq:
            if (seq_[other] > lseq and k.icyc[other] >= 0 and marked[other]
                    and (k.addr[other] & mask) == line):
                self.scheme.stats.bump("replay.coherence")
                return other
        return -1

    def on_invalidation(self, line_addr: int, line_bytes: int, cycle: int,
                        oldest_inflight_seq: int) -> None:
        if not self.scheme.coherence:
            return
        # Every invalidation searches the whole LQ to mark matching loads.
        k = self.k
        k.lq_inv_searches += 1
        mask = ~(line_bytes - 1)
        for load in k.lq:
            if k.icyc[load] >= 0 and (k.addr[load] & mask) == line_addr:
                self.inv_marked[load] = True


class _YlaHooks(_ConventionalHooks):
    """:class:`YlaFilteredScheme`: the YLA probe decides whether to search."""

    has_load_issue = True

    def on_load_issue(self, slot: int, cycle: int) -> int:
        k = self.k
        self.scheme.yla.observe_load_issue(k.addr[slot], k.seq[slot])
        return super().on_load_issue(slot, cycle)

    def on_wrongpath_load(self, age: int, addr: int) -> None:
        self.scheme.yla.observe_load_issue(addr, age)
        self.scheme.stats.bump("yla.wrongpath_updates")

    def on_store_resolve(self, slot: int, cycle: int) -> int:
        s = self.scheme
        k = self.k
        s.stats.bump("stores.resolved")
        if s.yla.store_is_safe(k.addr[slot], k.seq[slot]):
            return self._filtered(slot, cycle)
        return self._search(slot, cycle)

    def on_recovery(self, last_kept_seq: int) -> None:
        self.scheme.yla.rollback(last_kept_seq)

    def on_squash(self, last_kept_seq: int, squashed_load_addrs) -> None:
        self.scheme.yla.rollback(last_kept_seq)


class _BloomHooks(_ConventionalHooks):
    """:class:`BloomFilteredScheme`: counting-BF probe plus commit/squash
    removals (why this hook set wants the squashed-load addresses)."""

    has_load_issue = True
    commit_mode = 1
    wants_squashed_loads = True

    def on_load_issue(self, slot: int, cycle: int) -> int:
        self.scheme.bloom.insert(self.k.addr[slot])
        return super().on_load_issue(slot, cycle)

    def on_wrongpath_load(self, age: int, addr: int) -> None:
        # Phantom wrong-path loads enter the filter and are backed out at
        # recovery, matching the counting filter's squash behaviour.
        self.scheme.bloom.insert(addr)
        self.scheme._phantoms.append(addr)

    def on_store_resolve(self, slot: int, cycle: int) -> int:
        s = self.scheme
        s.stats.bump("stores.resolved")
        if not s.bloom.may_contain(self.k.addr[slot]):
            return self._filtered(slot, cycle)
        return self._search(slot, cycle)

    def on_commit_load(self, slot: int) -> bool:
        k = self.k
        if k.icyc[slot] >= 0:
            self.scheme.bloom.remove(k.addr[slot])
        return False

    def on_recovery(self, last_kept_seq: int) -> None:
        s = self.scheme
        for addr in s._phantoms:
            s.bloom.remove(addr)
        s._phantoms.clear()

    def on_squash(self, last_kept_seq: int, squashed_load_addrs) -> None:
        # The kernel pre-filters to issued loads.
        remove = self.scheme.bloom.remove
        for addr in squashed_load_addrs:
            remove(addr)
