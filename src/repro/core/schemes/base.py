"""Interface between the cycle kernel and a dependence-checking scheme.

The kernel (:mod:`repro.sim.soa`) owns the machinery every design shares
(speculative load issue, SQ forwarding/rejection, squash, commit order);
a scheme only decides *how premature loads are detected*.  A scheme is
two objects:

* a :class:`CheckScheme` subclass holding the scheme's configuration and
  state (YLA registers, tables, window bookkeeping), its statistics, and
  the end-of-run ``finalize``/``collect`` steps;
* a :class:`SoaHooks` subclass — the scheme's one hook set — built per run
  by :meth:`CheckScheme.soa_hooks`.  The kernel names in-flight
  instructions by **slot index** into its parallel arrays, and the hooks
  read those arrays (``k.seq[slot]``, ``k.addr[slot]``...) directly.

The hooks mirror the micro-architectural events of the paper:

=====================  ====================================================
hook                   corresponds to
=====================  ====================================================
``on_load_issue``      load executes: YLA update / BF insert / hash-key
                       record; conventional coherence load-load check
``on_store_resolve``   store address resolves: conventional LQ search, or
                       filtering, or DMDC safe/unsafe classification
``on_commit``          in-order retirement: DMDC marking, checking mode,
``on_commit_load``     window termination; value-based re-execution
``on_recovery``        branch misprediction recovery (YLA reset remedy)
``on_squash``          replay squash (same repair plus BF bookkeeping)
``on_invalidation``    external coherence invalidation
=====================  ====================================================

``on_store_resolve``/``on_load_issue`` may return a load slot to replay
*now* (execution-time detection); the commit hooks may decide the
committing instruction itself must replay (DMDC's commit-time detection).
"""

from typing import List

from repro.stats.counters import CounterSet, Histogram

#: The slot hook protocol, by name -> number of arguments after ``self``.
#: This is the single source of truth the ``repro check`` lint pass
#: (rule REPRO007) validates hook and scheme classes against: a subclass
#: defining a hook-shaped method that is *not* listed here (e.g.
#: ``on_comit_load``) would silently never be called by the kernel.
PROTOCOL_HOOKS = {
    "on_load_issue": 2,
    "on_wrongpath_load": 2,
    "on_store_resolve": 2,
    "on_commit_load": 1,
    "on_commit": 2,
    "on_recovery": 1,
    "on_squash": 2,
    "on_invalidation": 4,
}


class CheckScheme:
    """Base scheme: shared stats plumbing; its hook set does nothing."""

    #: Whether the LQ must be a fully associative CAM (energy model input).
    uses_associative_lq = True
    #: Whether the pipeline must re-execute every load at commit (the
    #: value-based scheme's bandwidth cost).
    reexecutes_loads = False
    name = "base"

    def __init__(self):
        self.stats = CounterSet()
        self.window_instrs = Histogram()
        self.window_loads = Histogram()
        self.window_safe_loads = Histogram()
        self.window_unsafe_stores = Histogram()
        #: Emit target for scheme events (``store_safe``/``store_unsafe``,
        #: ``window_open``/``window_close``, ``table_mark``/``table_probe``):
        #: the kernel's observer slot (``Processor.tracer``), bound when the
        #: hook set is built.  Emit sites guard with ``is None`` so
        #: observation is zero-cost when off.
        self.tracer = None

    #: True while a DMDC checking window is open (cycle accounting).  A
    #: plain attribute, not a property: the cycle loop reads it every
    #: cycle, and descriptor dispatch is measurable there.  DMDC shadows
    #: it with an instance attribute it flips on activate/terminate.
    checking_active = False

    def soa_hooks(self, kernel) -> "SoaHooks":
        """This scheme's hook set, bound to one kernel run."""
        return SoaHooks(self, kernel)

    def finalize(self, cycle: int) -> None:
        """End-of-run hook (close any open checking window for stats)."""

    def collect(self) -> None:
        """Export component-internal counters into ``self.stats``.

        Called once by the processor when building the result, so the
        energy model can price YLA/bloom/table activity uniformly.
        """


class SoaHooks:
    """A scheme's hook set for one run of the cycle kernel.

    ``k`` is the kernel (or any object with the same slot columns); every
    hook receives slot indices into its parallel arrays, and the
    class-level flags below let the kernel skip the call entirely for
    events a scheme ignores.  Hooks call the scheme's components (YLA,
    bloom filter, checking table/queue) and bump ``scheme.stats``.

    Commit dispatch is ``commit_mode``: 0 = the scheme never acts at
    commit (the kernel makes no call per retiring instruction); 1 = only
    loads matter (:meth:`on_commit_load`); 2 = windowed checking — the
    kernel calls :meth:`on_commit` only while ``scheme.checking_active``
    or when the committing instruction is a store flagged unsafe, so the
    hook must do nothing for any other commit; 3 = every retiring
    instruction goes to :meth:`on_commit` (observers such as the
    sanitizer, which must see each commit).
    """

    has_load_issue = False
    has_store_resolve = False
    commit_mode = 0
    #: True when :meth:`on_squash` needs the addresses of squashed issued
    #: loads (bloom); collecting them costs a pass the others skip.
    wants_squashed_loads = False

    def __init__(self, scheme: CheckScheme, kernel) -> None:
        self.scheme = scheme
        self.k = kernel
        # Bound on the scheme, not the hook set: DMDC closes its last
        # window in ``finalize``, after the kernel has dropped its hooks.
        scheme.tracer = kernel.tracer

    def on_load_issue(self, slot: int, cycle: int) -> int:
        """A load issued (called only when ``has_load_issue``); return a
        younger load slot to replay from, or -1."""
        return -1

    def on_wrongpath_load(self, age: int, addr: int) -> None:
        """A wrong-path load issued (phantom; will be undone by recovery)."""

    def on_store_resolve(self, slot: int, cycle: int) -> int:
        """A store's address resolved; return a victim load slot or -1
        (called only when ``has_store_resolve``)."""
        return -1

    def on_commit_load(self, slot: int) -> bool:
        """Commit-time check for a load; True = replay (``commit_mode`` 1)."""
        return False

    def on_commit(self, slot: int, cycle: int) -> bool:
        """Commit-time check for an instruction; True = replay the head
        (``commit_mode`` 2 and 3)."""
        return False

    def on_recovery(self, last_kept_seq: int) -> None:
        """Branch misprediction recovery completed."""

    def on_squash(self, last_kept_seq: int, squashed_load_addrs: List[int]) -> None:
        """A replay squashed everything younger than ``last_kept_seq``.

        ``squashed_load_addrs`` lists the squashed *issued* loads'
        addresses when ``wants_squashed_loads`` is set, else it is empty.
        """

    def on_invalidation(self, line_addr: int, line_bytes: int, cycle: int,
                        oldest_inflight_seq: int) -> None:
        """An external invalidation for ``line_addr`` arrived."""
