"""Per-cycle execution resources: functional units and physical registers."""

from repro.errors import ConfigError, SimulationError


class FunctionalUnits:
    """Per-cycle functional-unit bandwidth with per-class latencies.

    Table 1 of the paper: 8 integer ALUs + 2 integer mul/div, 8 FP ALUs +
    2 FP mul/div.  Loads, stores and branches consume an integer-ALU slot
    (address generation / condition evaluation); loads additionally consume
    a D-cache port, which the pipeline accounts for separately.  The cycle
    kernel reads the two class tables below when it decodes a trace, and
    resets ``_avail_list`` to ``_caps_list`` at the start of every cycle.
    """

    #: Pool index per class (indexed by the ``InstrClass`` value):
    #: 0=int_alu, 1=int_muldiv, 2=fp_alu, 3=fp_muldiv.
    _POOL_INDEX = (0, 1, 1, 2, 3, 3, 0, 0, 0, 0)
    #: Execution latency per class in cycles (SimpleScalar defaults),
    #: indexed by the ``InstrClass`` value.  Loads and stores count their
    #: AGU cycle only; the pipeline adds the cache latency.
    latency_by_cls = (1, 3, 20, 2, 4, 12, 1, 1, 1, 1)

    def __init__(self, int_alu: int = 8, int_muldiv: int = 2, fp_alu: int = 8, fp_muldiv: int = 2):
        if min(int_alu, int_muldiv, fp_alu, fp_muldiv) <= 0:
            raise ConfigError("functional unit counts must be positive")
        self._caps_list = [int_alu, int_muldiv, fp_alu, fp_muldiv]
        self._avail_list = list(self._caps_list)


class PhysRegFile:
    """Free-list accounting for one side's physical register file.

    Only occupancy is modelled: dispatch blocks when no physical register
    is free, and registers return to the pool at commit or squash.  The 32
    architectural registers of the side are permanently mapped.
    """

    def __init__(self, total: int, architectural: int = 32):
        if total <= architectural:
            raise ConfigError(
                f"physical registers ({total}) must exceed architectural ({architectural})"
            )
        self.total = total
        self.free = total - architectural
        self.allocations = 0

    def release(self) -> None:
        self.free += 1
        if self.free > self.total - 32:
            raise SimulationError("physical register free-list overflow (double release)")
