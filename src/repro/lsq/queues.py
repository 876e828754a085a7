"""Age-ordered load/store queue searches over the kernel's slot arrays.

These model the paper's baseline LSQ (Section 2 and 5):

* loads may issue while older stores still have unresolved addresses
  (speculative issue);
* the SQ forwards from the youngest older store with a resolved, fully
  covering address and ready data;
* a store whose address matches but whose data is not ready — or which only
  partially covers the load — *rejects* the load, which retries later
  (the POWER4-style behaviour the paper assumes);
* a resolving store associatively searches the LQ for younger loads that
  issued prematurely (in the conventional scheme).

The cycle kernel (:mod:`repro.sim.soa`) keeps its LQ/SQ as deques of slot
indices into parallel per-slot state arrays; the searches below walk that
layout.  They return plain ints (action codes, slot indices) and bump no
counters — the kernel tallies searches itself.

The searches are on the simulator's hottest path, so they iterate in place
and exit as soon as the outcome can no longer change.  That discipline is
machine-enforced: ``repro check --static`` registers them in its
hot-function catalogue (rules REPRO004/REPRO005 — no string-keyed counter
bumps, no growable allocations), and the shadow-oracle sanitizer
(:mod:`repro.analysis.sanitizer`) cross-checks every filter/replay
decision built on them against an independent associative oracle; see
``docs/correctness.md``.
"""

#: Outcome codes of a load's SQ search at issue time.
SOA_CACHE = 0    # no conflicting older store: access the D-cache
SOA_FORWARD = 1  # youngest older matching store supplies the data
SOA_REJECT = 2   # matching store can't forward yet: retry later


def sq_forward_search_soa(sq_slots, seq_, addr_, size_, rcyc_, pdata_,
                          load_seq, l_addr, l_end):
    """Resolve a load's memory source against all older in-flight stores.

    ``sq_slots`` is the age-ordered sequence of SQ slot indices; the
    remaining array arguments are the kernel's parallel per-slot state.
    Returns ``(action, match_slot, all_older_resolved)``: the ``SOA_*``
    outcome, the deciding store's slot (-1 for none), and whether every
    older store had a resolved address (the load is then provably not a
    premature load — the paper's *safe load*).

    Scans older stores youngest-first.  The youngest older store with a
    resolved overlapping address decides the outcome; unresolved older
    stores make the load speculative but do not block it.  The scan stops
    early once both facts are settled: an outcome has been found and an
    unresolved older store has been seen.
    """
    all_resolved = True
    action = SOA_CACHE
    match = -1
    for slot in reversed(sq_slots):
        if seq_[slot] >= load_seq:
            continue
        if rcyc_[slot] < 0:
            all_resolved = False
            if match >= 0:
                break
            continue
        if match < 0:
            s_addr = addr_[slot]
            if s_addr < l_end and l_addr < s_addr + size_[slot]:
                match = slot
                if (
                    s_addr <= l_addr
                    and l_end <= s_addr + size_[slot]
                    and pdata_[slot] == 0
                ):
                    action = SOA_FORWARD
                else:
                    action = SOA_REJECT
                if not all_resolved:
                    break
    return action, match, all_resolved


def lq_violation_search_soa(lq_slots, seq_, addr_, size_, icyc_,
                            s_seq, s_addr, s_end) -> int:
    """Conventional violation check: the slot of the oldest younger load,
    already issued, overlapping the store's bytes — or -1.

    Conservative (as in real designs): forwarding provenance is not
    inspected, so a load that forwarded from a younger store still
    matches.  Replaying from the oldest match covers every younger one;
    the age-ordered scan returns on the first match.
    """
    for slot in lq_slots:
        if seq_[slot] > s_seq and icyc_[slot] >= 0:
            l_addr = addr_[slot]
            if s_addr < l_addr + size_[slot] and l_addr < s_end:
                return slot
    return -1
