"""Tests for the related-work schemes: Garg age-hash and value-based."""

import pytest

from repro.core.schemes.garg import AgeHashTable, GargAgeHashScheme
from repro.core.schemes.value import ValueBasedScheme
from repro.errors import ConfigError
from repro.sim.config import SchemeConfig, small_config
from repro.sim.runner import run_trace
from repro.workloads import SyntheticWorkload, WorkloadSpec
from tests.conftest import ColumnTable


def bind(scheme):
    """``(hooks, table)`` for driving ``scheme`` without a pipeline."""
    table = ColumnTable()
    return scheme.soa_hooks(table), table


def store(k, seq, addr):
    return k.store(seq, addr, resolve_cycle=1)


class TestAgeHashTable:
    def test_monotone_ages(self):
        t = AgeHashTable(64)
        t.observe_load(0x100, 10)
        t.observe_load(0x100, 5)
        assert t.youngest_for(0x100) == 10

    def test_default_old(self):
        assert AgeHashTable(64).youngest_for(0x500) == -1

    def test_aliasing_shares_entries(self):
        t = AgeHashTable(16)
        t.observe_load(0x100, 10)
        alias = next(q * 8 for q in range(1 << 12)
                     if q * 8 != 0x100 and t.index(q * 8) == t.index(0x100))
        assert t.youngest_for(alias) == 10

    def test_rollback(self):
        t = AgeHashTable(64)
        t.observe_load(0x100, 50)
        t.rollback(20)
        assert t.youngest_for(0x100) == 20

    def test_rejects_bad_size(self):
        with pytest.raises(ConfigError):
            AgeHashTable(48)


class TestGargScheme:
    def test_safe_store_passes(self):
        s = GargAgeHashScheme(table_entries=256)
        h, k = bind(s)
        h.on_load_issue(k.load(3, 0x100), 0)
        assert h.on_store_resolve(store(k, 5, 0x100), 0) == -1
        assert s.stats["stores.safe"] == 1

    def test_premature_load_triggers_flush_from_store(self):
        s = GargAgeHashScheme(table_entries=256)
        h, k = bind(s)
        st = store(k, 5, 0x100)
        younger = k.load(9, 0x100)
        k.rob.extend((st, younger))
        h.on_load_issue(younger, 0)
        victim = h.on_store_resolve(st, 0)
        assert victim == younger  # first ROB entry younger than the store
        assert s.stats["replay.execution_time"] == 1

    def test_hash_alias_causes_false_flush(self):
        s = GargAgeHashScheme(table_entries=16)
        h, k = bind(s)
        st = store(k, 5, 0x100)
        alias = next(q * 8 for q in range(1 << 12)
                     if q * 8 != 0x100 and s.table.index(q * 8) == s.table.index(0x100))
        innocent = k.load(9, alias)
        k.rob.extend((st, innocent))
        h.on_load_issue(innocent, 0)
        assert h.on_store_resolve(st, 0) == innocent
        assert s.stats["replay.false"] == 1

    def test_stale_entry_with_empty_rob_is_harmless(self):
        s = GargAgeHashScheme(table_entries=256)
        h, k = bind(s)
        h.on_load_issue(k.load(9, 0x100), 0)
        assert h.on_store_resolve(store(k, 5, 0x100), 0) == -1
        assert s.stats["garg.stale_hits"] == 1

    def test_repair_variant_rolls_back(self):
        s = GargAgeHashScheme(repair_on_squash=True)
        h, k = bind(s)
        h.on_load_issue(k.load(50, 0x100), 0)
        h.on_squash(10, [])
        assert s.table.youngest_for(0x100) <= 10


class TestValueScheme:
    def test_clean_load_commits_with_reexecution(self):
        s = ValueBasedScheme()
        h, k = bind(s)
        assert h.on_commit_load(k.load(5, 0x100)) is False
        assert s.stats["value.reexecutions"] == 1

    def test_violated_load_replays(self):
        s = ValueBasedScheme()
        h, k = bind(s)
        load = k.load(5, 0x100)
        k.tvs[load] = 2
        assert h.on_commit_load(load) is True
        assert s.stats["replay.true"] == 1

    def test_non_loads_ignored(self):
        """The value scheme's hook set asks for load commits only, so a
        committing store never reaches it."""
        s = ValueBasedScheme()
        h, k = bind(s)
        assert h.commit_mode == 1
        assert h.on_commit(store(k, 5, 0x100), 1) is False
        assert s.stats["value.reexecutions"] == 0


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def stress_trace(self):
        spec = WorkloadSpec(name="rw", conflict_per_kinstr=4.0, seed=21)
        return SyntheticWorkload(spec).generate(2500)

    @pytest.mark.parametrize("kind", ["garg", "value"])
    def test_soundness_under_stress(self, kind, stress_trace):
        cfg = small_config(wrongpath_loads=False).with_scheme(SchemeConfig(kind=kind))
        result = run_trace(cfg, stress_trace, max_instructions=2000)
        assert result.committed == 2000  # ground-truth checker stayed silent

    def test_value_reexecutes_every_load(self, stress_trace):
        cfg = small_config(wrongpath_loads=False).with_scheme(SchemeConfig(kind="value"))
        result = run_trace(cfg, stress_trace, max_instructions=2000)
        assert result.counters["dcache.reexecutions"] >= result.counters["commit.loads"]

    def test_garg_never_searches_lq(self, stress_trace):
        cfg = small_config(wrongpath_loads=False).with_scheme(SchemeConfig(kind="garg"))
        result = run_trace(cfg, stress_trace, max_instructions=2000)
        assert result.counters["lq.searches_assoc"] == 0
        assert result.counters["garg.table.writes"] > 0

    def test_energy_ordering(self, stress_trace):
        """DMDC's LQ-functionality energy beats Garg's (the paper's claim)."""
        from repro.energy.model import EnergyModel
        cfg0 = small_config(wrongpath_loads=False)
        model = EnergyModel(cfg0)
        energies = {}
        for kind in ("conventional", "dmdc", "garg"):
            cfg = cfg0.with_scheme(SchemeConfig(kind=kind))
            r = run_trace(cfg, stress_trace, max_instructions=2000)
            energies[kind] = model.evaluate(r).lq
        assert energies["dmdc"] < energies["garg"] < energies["conventional"]
