"""Local-vs-service sweep equivalence (PR: design-space autopilot).

The acceptance bar from the issue: the **same GridSpec** executed
through the local engine and through a running 2-shard service must
produce **bit-identical ledgers** — sharding, batching, and the HTTP
wire are invisible to the autopilot's artifact.
"""

import threading

import pytest

from repro.exec.engine import ExecutionEngine
from repro.exec.options import EngineOptions
from repro.service import ServiceClient, ServiceConfig, create_server
from repro.sweeps import GridSpec, SweepError, run_sweep

BUDGET = 600


def small_grid() -> GridSpec:
    return GridSpec(
        name="service-parity",
        axes={"scheme": ["conventional", "dmdc"], "workload": ["gzip", "mcf"]},
        base={"instructions": BUDGET, "seed": 1},
    )


@pytest.fixture(scope="module")
def service():
    config = ServiceConfig(
        port=0, batch_window=0.01, max_queue=64,
        request_timeout=60.0, drain_timeout=60.0,
        engine_options=EngineOptions(cache_enabled=False, max_workers=1),
        shards=2,
        offload=False,  # in-process execution keeps the test fast
    )
    server = create_server(config)
    thread = threading.Thread(target=server.serve_forever,
                              name="test-sweep-serve", daemon=True)
    thread.start()
    try:
        yield ServiceClient(port=server.server_address[1], timeout=60.0)
    finally:
        server.shutdown()
        server.batcher.close(timeout=5.0)
        thread.join(timeout=5.0)
        server.server_close()


class TestServiceBackend:
    def test_ledgers_bit_identical_local_vs_two_shard_service(
            self, service, tmp_path):
        local_path = str(tmp_path / "local.jsonl")
        service_path = str(tmp_path / "service.jsonl")

        local = run_sweep(small_grid(), engine=ExecutionEngine(max_workers=1),
                          ledger=local_path)
        remote = run_sweep(small_grid(), workers=[service],
                           ledger=service_path)

        assert local.complete and remote.complete
        assert remote.accounting.mode == "service[1]"
        assert open(local_path, "rb").read() == open(service_path, "rb").read()
        # Same artifact, therefore the same report.
        assert remote.report().to_dict() == local.report().to_dict()

    def test_service_accounting_comes_from_metrics_deltas(
            self, service, tmp_path):
        grid = GridSpec(
            name="service-acct",
            axes={"scheme": ["dmdc"], "workload": ["parser"]},
            base={"instructions": BUDGET, "seed": 2},
        )
        outcome = run_sweep(grid, workers=[service])
        assert outcome.complete
        assert outcome.accounting.submitted == 1
        # The shard engines report real execution counts over the wire.
        assert outcome.accounting.executed == 1

    def test_chunking_spans_service_requests(self, service):
        outcome = run_sweep(small_grid(), workers=[service], window=2)
        assert outcome.complete
        assert len(outcome.entries) == 4

    def test_progress_labels_service_points(self, service):
        sources = []
        run_sweep(small_grid(), workers=[service],
                  progress=lambda done, total, point, source:
                  sources.append(source))
        assert sources == ["service"] * 4


class _WrongKeyClient:
    """A service stub that answers with a foreign content address (the
    symptom of client and server running different simulator sources)."""

    def sweep(self, points, defaults=None, counters=False):
        return {"points": [{"key": "f" * 64, "summary": {}, "counters": {}}
                           for _ in points],
                "count": len(points)}

    def metrics(self):
        return {}


class TestKeyCrossCheck:
    def test_simulator_mismatch_is_refused(self):
        with pytest.raises(SweepError, match="different simulator"):
            run_sweep(small_grid(), workers=[_WrongKeyClient()])

    def test_short_response_is_refused(self):
        class Short(_WrongKeyClient):
            def sweep(self, points, defaults=None, counters=False):
                return {"points": [], "count": 0}

        with pytest.raises(SweepError, match="0 results"):
            run_sweep(small_grid(), workers=[Short()])
