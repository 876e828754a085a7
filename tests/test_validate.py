"""Tests for the structural invariant checker (and, through it, the pipeline)."""

import pytest

from repro.errors import SimulationError
from repro.sim.config import SchemeConfig, small_config
from repro.sim.processor import Processor
from repro.sim.validate import check_invariants, run_with_validation
from repro.workloads import SyntheticWorkload, WorkloadSpec, get_workload
from tests.conftest import run_until


class TestCheckerCatchesCorruption:
    def _warm_proc(self):
        proc = Processor(small_config(), get_workload("gzip").generate(300))
        k = run_until(proc, lambda k: len(k.rob) > 4)
        assert len(k.rob) > 4
        check_invariants(proc)  # healthy first
        return proc

    def test_detects_iq_drift(self):
        proc = self._warm_proc()
        proc.kernel.iq_int += 1
        with pytest.raises(SimulationError, match="IQ"):
            check_invariants(proc)

    def test_detects_register_leak(self):
        proc = self._warm_proc()
        proc.regs_int.free -= 1
        with pytest.raises(SimulationError, match="register leak"):
            check_invariants(proc)

    def test_detects_rename_corruption(self):
        proc = self._warm_proc()
        k = proc.kernel

        def enc(slot):
            return k.seq[slot] << k.pbits | slot

        dst = k.t.dst
        victim = next(slot for slot in k.rob if dst[k.tidx[slot]] >= 0)
        k.rename[dst[k.tidx[victim]]] = enc(k.rob[0])
        try:
            check_invariants(proc)
        except SimulationError:
            return
        # If head happened to be the youngest writer, corrupt differently.
        k.rename[63] = enc(victim)
        with pytest.raises(SimulationError):
            check_invariants(proc)

    def test_detects_age_disorder(self):
        proc = self._warm_proc()
        rob = proc.kernel.rob
        if len(rob) >= 2:
            rob[0], rob[1] = rob[1], rob[0]
            with pytest.raises(SimulationError, match="age-ordered"):
                check_invariants(proc)


class TestPipelineHoldsInvariants:
    """The real assertion: the pipeline never violates the invariants,
    including across replays, rejections, and mispredictions."""

    @pytest.mark.parametrize("scheme", [
        SchemeConfig(kind="conventional"),
        SchemeConfig(kind="dmdc"),
        SchemeConfig(kind="dmdc", local=True),
    ], ids=["conventional", "dmdc-global", "dmdc-local"])
    def test_clean_under_stress(self, scheme):
        spec = WorkloadSpec(name="validate", conflict_per_kinstr=5.0,
                            store_addr_dep_load=0.2, rmw_fraction=0.2, seed=13)
        trace = SyntheticWorkload(spec).generate(1000)
        config = small_config().with_scheme(scheme)
        proc = Processor(config, trace)
        result = run_with_validation(proc, 800, every_cycles=3)
        assert result.committed == 800

    def test_clean_with_wrongpath_and_invalidations(self):
        config = small_config().with_scheme(
            SchemeConfig(kind="dmdc", coherence=True)
        ).with_overrides(invalidation_rate=100.0)
        proc = Processor(config, get_workload("mcf").generate(900))
        result = run_with_validation(proc, 700, every_cycles=5)
        assert result.committed == 700
