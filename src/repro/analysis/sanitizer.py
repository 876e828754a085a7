"""Shadow-oracle memory-ordering sanitizer.

:class:`MemoryOrderSanitizer` wraps any dependence-checking scheme, and
its hook set wraps the scheme's own (the slot-index protocol of
:class:`repro.core.schemes.base.SoaHooks`), so attaching it changes
*nothing* about the simulated machine: every hook delegates to the
scheme's hook and the simulation result stays bit-identical (pinned by
``tests/test_sanitizer_matrix.py``).  Around each delegation it maintains
an independent shadow associative LQ/SQ (:mod:`repro.analysis.shadow`) and
cross-checks the scheme's decisions against that oracle:

* at **store resolution** it flags every load that truly issued
  prematurely past the store, and classifies any execution-time replay the
  scheme ordered as true or false;
* at **load commit** — the sanitizer sees every commit — it verifies that
  a flagged load does not retire un-replayed (a *missed violation* — the
  unsoundness DMDC's age filter must never exhibit) and classifies
  commit-time replays;
* invariant probes (:mod:`repro.analysis.probes`) check YLA soundness /
  monotonicity / rollback exactness, ``end_check`` window consistency, and
  ROB/LSQ age ordering on every event.

Attach with :func:`attach_sanitizer`; :func:`sanitize_sweep` is the one
sweep loop behind ``repro check --sanitize`` and ``repro.api.check``.
The idle-cycle skipper stays on:
it skips only cycles in which no hook can fire, so a sanitized run checks
exactly the events a stepped one does (pinned by
``tests/test_observers_fastpath.py``).
"""

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.probes import AgeOrderProbe, ProbeSet, WindowProbe, YlaProbe
from repro.analysis.shadow import ShadowLSQ
from repro.core.schemes.base import SoaHooks
from repro.errors import ConfigError, SanitizerError
from repro.sim.config import MachineConfig, scheme_matrix

#: The canonical scheme matrix the correctness suites sweep: one label per
#: scheme family the simulator implements (the fast-path equivalence
#: matrix and the sanitizer matrix must cover the same nine points).
#: Built through the one label codec (:meth:`SchemeConfig.from_label`),
#: so labels here, in ``repro bench``, and on the CLI cannot diverge.
SCHEME_MATRIX = scheme_matrix()

#: Cap on stored per-finding detail strings (counts are never capped).
MAX_DETAILS = 16


class SanitizerReport:
    """Aggregated findings of one sanitized run."""

    def __init__(self, scheme: str):
        self.scheme = scheme
        #: true premature loads the shadow oracle flagged at store resolve
        self.oracle_violations = 0
        #: flagged loads that retired with no replay — unsoundness
        self.missed_violations = 0
        #: replays covering at least one flagged load
        self.true_replays = 0
        #: replays covering no flagged load (the cost of approximation)
        self.false_replays = 0
        #: replays triggered by the load-issue hook (coherence ordering)
        self.coherence_replays = 0
        #: shadow oracle vs. built-in ground-truth flag disagreements
        self.oracle_divergence = 0
        #: invariant-probe failures (messages bounded by MAX_DETAILS)
        self.probe_failures: List[str] = []
        self.probe_failure_count = 0
        self.missed_details: List[str] = []
        self.probe_checks = 0
        self.events_checked = 0

    @property
    def clean(self) -> bool:
        return self.missed_violations == 0 and self.probe_failure_count == 0

    def as_dict(self) -> dict:
        return {
            "scheme": self.scheme,
            "oracle_violations": self.oracle_violations,
            "missed_violations": self.missed_violations,
            "true_replays": self.true_replays,
            "false_replays": self.false_replays,
            "coherence_replays": self.coherence_replays,
            "oracle_divergence": self.oracle_divergence,
            "probe_failures": self.probe_failure_count,
            "probe_checks": self.probe_checks,
            "events_checked": self.events_checked,
            "clean": self.clean,
            "details": self.missed_details + self.probe_failures,
        }

    def format(self) -> str:
        verdict = "CLEAN" if self.clean else "DEFECTIVE"
        lines = [
            f"sanitizer[{self.scheme}]: {verdict} — "
            f"{self.oracle_violations} true violations, "
            f"{self.missed_violations} missed, "
            f"{self.true_replays} true / {self.false_replays} false replays, "
            f"{self.probe_failure_count} probe failures "
            f"({self.probe_checks} probe checks, "
            f"{self.events_checked} events)"
        ]
        lines.extend(f"  missed: {d}" for d in self.missed_details)
        lines.extend(f"  probe:  {d}" for d in self.probe_failures)
        return "\n".join(lines)


class MemoryOrderSanitizer:
    """Scheme wrapper whose hook set cross-checks every decision."""

    def __init__(self, inner, strict: bool = False):
        self.inner = inner
        self.strict = strict
        self.shadow = ShadowLSQ()
        self.report = SanitizerReport(inner.name)
        ylas = []
        for label in ("yla", "yla_line"):
            yla = getattr(inner, label, None)
            if yla is not None:
                ylas.append(YlaProbe(yla, label))
        window = WindowProbe(inner) if hasattr(inner, "end_check") else None
        self.probes = ProbeSet(AgeOrderProbe(), ylas, window)

    def soa_hooks(self, kernel) -> "_SanitizedHooks":
        return _SanitizedHooks(self, self.inner.soa_hooks(kernel), kernel)

    # -- pass-through scheme surface -----------------------------------------
    @property
    def checking_active(self) -> bool:
        return self.inner.checking_active

    def finalize(self, cycle: int) -> None:
        self.inner.finalize(cycle)

    def collect(self) -> None:
        self.inner.collect()
        self.report.probe_checks = self.probes.checks

    def __getattr__(self, attr):
        # Everything else (stats, window histograms, name, energy-model
        # class attributes) reads through to the wrapped scheme, so results
        # built from a sanitized run are indistinguishable from plain runs.
        if attr == "inner":
            raise AttributeError(attr)
        return getattr(self.inner, attr)

    # -- defect recording -------------------------------------------------
    def _missed(self, message: str) -> None:
        self.report.missed_violations += 1
        if len(self.report.missed_details) < MAX_DETAILS:
            self.report.missed_details.append(message)
        if self.strict:
            raise SanitizerError(f"[{self.inner.name}] {message}")

    def _probe_failed(self, message: Optional[str]) -> None:
        if message is None:
            return
        self.report.probe_failure_count += 1
        if len(self.report.probe_failures) < MAX_DETAILS:
            self.report.probe_failures.append(message)
        if self.strict:
            raise SanitizerError(f"[{self.inner.name}] {message}")

    def _yla_probes_after_issue(self, addr: int, age: int) -> None:
        for probe in self.probes.ylas:
            self._probe_failed(probe.after_load_issue(addr, age))

    def _yla_probes_after_rollback(self, last_kept_seq: int) -> None:
        for probe in self.probes.ylas:
            self._probe_failed(probe.after_rollback(last_kept_seq))


class _SanitizedHooks(SoaHooks):
    """A scheme's hook set with the sanitizer interposed on every event.

    Takes every event the kernel offers (including every commit) and
    forwards to the inner hook set only the events its flags ask for.
    """

    has_load_issue = True
    has_store_resolve = True
    commit_mode = 3

    def __init__(self, sanitizer: MemoryOrderSanitizer, inner: SoaHooks, kernel):
        super().__init__(sanitizer, kernel)
        self.san = sanitizer
        self.inner = inner
        self.wants_squashed_loads = inner.wants_squashed_loads

    # -- execution-time hooks ---------------------------------------------
    def on_load_issue(self, slot: int, cycle: int) -> int:
        san = self.san
        k = self.k
        san.report.events_checked += 1
        san.shadow.load_issued(k.view(slot), cycle)
        inner = self.inner
        victim = inner.on_load_issue(slot, cycle) if inner.has_load_issue else -1
        san._yla_probes_after_issue(k.addr[slot], k.seq[slot])
        if victim >= 0:
            # Load-load coherence ordering replay; the kernel squashes
            # from the victim, which on_squash mirrors into the shadow.
            san.report.coherence_replays += 1
        return victim

    def on_wrongpath_load(self, age: int, addr: int) -> None:
        self.inner.on_wrongpath_load(age, addr)
        # Wrong-path loads only push YLA registers forward (conservative);
        # monotonicity must still hold.
        self.san._yla_probes_after_issue(addr, age)

    def on_store_resolve(self, slot: int, cycle: int) -> int:
        san = self.san
        k = self.k
        san.report.events_checked += 1
        flagged = san.shadow.store_resolved(k.view(slot), cycle)
        san.report.oracle_violations += len(flagged)
        inner = self.inner
        victim = inner.on_store_resolve(slot, cycle) if inner.has_store_resolve else -1
        if victim >= 0:
            # Execution-time replay: the kernel squashes from the victim,
            # covering every younger in-flight load.
            if san.shadow.pending_violation_at_or_after(k.seq[victim]):
                san.report.true_replays += 1
            else:
                san.report.false_replays += 1
        return victim

    # -- commit-time hook --------------------------------------------------
    def _inner_commit(self, slot: int, cycle: int) -> bool:
        """The inner hook set's commit decision, by its ``commit_mode``."""
        inner = self.inner
        mode = inner.commit_mode
        if mode == 1:
            return self.k.isld[slot] and inner.on_commit_load(slot)
        return mode > 1 and inner.on_commit(slot, cycle)

    def on_commit(self, slot: int, cycle: int) -> bool:
        san = self.san
        k = self.k
        instr = k.view(slot)
        san.report.events_checked += 1
        san._probe_failed(san.probes.age.on_commit(instr))
        window = san.probes.window
        if window is not None:
            window.before_commit()
        replayed = self._inner_commit(slot, cycle)
        if window is not None:
            san._probe_failed(window.after_commit(instr, replayed))
        shadow = san.shadow
        if instr.is_load:
            rec = shadow.loads.get(instr.seq)
            shadow_violated = rec is not None and rec.violated_by >= 0
            builtin_violated = k.tvs[slot] >= 0
            if shadow_violated != builtin_violated:
                san.report.oracle_divergence += 1
            if replayed:
                if shadow_violated:
                    san.report.true_replays += 1
                else:
                    san.report.false_replays += 1
                # The squash removes the load from the shadow via on_squash.
            else:
                if shadow_violated:
                    san._missed(
                        f"load seq={instr.seq} addr={instr.addr:#x} retired "
                        f"despite premature issue past store "
                        f"seq={rec.violated_by} under {san.inner.name}"
                    )
                shadow.load_committed(instr.seq)
        elif instr.is_store and not replayed:
            shadow.store_committed(instr.seq)
        return replayed

    # -- control-flow repair -----------------------------------------------
    def on_recovery(self, last_kept_seq: int) -> None:
        self.inner.on_recovery(last_kept_seq)
        self.san._yla_probes_after_rollback(last_kept_seq)

    def on_squash(self, last_kept_seq: int, squashed_load_addrs: List[int]) -> None:
        self.inner.on_squash(last_kept_seq, squashed_load_addrs)
        self.san.shadow.squash_younger(last_kept_seq)
        self.san._yla_probes_after_rollback(last_kept_seq)

    # -- coherence ----------------------------------------------------------
    def on_invalidation(self, line_addr: int, line_bytes: int, cycle: int,
                        oldest_inflight_seq: int) -> None:
        self.inner.on_invalidation(line_addr, line_bytes, cycle,
                                   oldest_inflight_seq)


def run_sanitized(config, trace, max_instructions=None, seed: int = 1,
                  strict: bool = False, prewarm: bool = True):
    """Run ``trace`` on ``config`` with a sanitizer attached.

    Mirrors :func:`repro.sim.runner.run_trace` and returns
    ``(SimulationResult, SanitizerReport)``.  The result is bit-identical
    to an unsanitized run of the same configuration (the sanitizer keeps
    its findings out of the scheme's stats), so the pair can be compared
    directly against a plain run.
    """
    from repro.sim.processor import Processor

    processor = Processor(config, trace, seed=seed)
    sanitizer = attach_sanitizer(processor, strict=strict)
    if prewarm:
        processor.prewarm()
    budget = max_instructions if max_instructions is not None else len(trace)
    result = processor.run(budget)
    return result, sanitizer.report


def attach_sanitizer(processor, strict: bool = False) -> MemoryOrderSanitizer:
    """Wrap ``processor``'s scheme in a sanitizer before the run starts."""
    if processor.kernel is not None:
        raise SanitizerError("attach the sanitizer before the run starts")
    sanitizer = MemoryOrderSanitizer(processor.scheme, strict=strict)
    processor.scheme = sanitizer
    return sanitizer


#: Schemes that filter associative LQ searches by age: a sanitized run of
#: one of these must show *some* filtering activity, or the sweep proved
#: nothing about the mechanism under test.
FILTERING_SCHEMES = frozenset(
    {"yla", "bloom", "dmdc", "dmdc-local", "dmdc-queue8"})


def sanitize_sweep(machine: MachineConfig, labels: Sequence[str],
                   workloads: Sequence[str], instructions: int,
                   seed: int = 1, strict: bool = False,
                   ) -> Iterator[Tuple[Dict[str, object], SanitizerReport]]:
    """Sanitize every (workload, scheme label) pair on ``machine``.

    Yields ``(entry, report)`` per run as it finishes.  ``entry`` is the
    report's dict plus ``workload``, ``label``, ``filtered_searches``
    and ``ok``: a run is ok when the report is clean and, for a
    filtering scheme, the filter fired at least once.  Unknown labels
    raise :class:`~repro.errors.ConfigError` before anything runs.
    """
    from repro.workloads import get_workload

    unknown = [label for label in labels if label not in SCHEME_MATRIX]
    if unknown:
        raise ConfigError(f"unknown scheme(s) {', '.join(unknown)}; choose from "
                          f"{', '.join(sorted(SCHEME_MATRIX))}")
    for workload in workloads:
        trace = get_workload(workload).generate(instructions + 2_000)
        for label in labels:
            result, report = run_sanitized(
                machine.with_scheme(SCHEME_MATRIX[label]), trace,
                max_instructions=instructions, seed=seed, strict=strict)
            filtered = (result.counters["lq.searches_filtered"]
                        + result.counters["stores.safe"])
            entry = report.as_dict()
            entry.update(workload=workload, label=label,
                         filtered_searches=int(filtered),
                         ok=report.clean and not (label in FILTERING_SCHEMES
                                                  and filtered == 0))
            yield entry, report
