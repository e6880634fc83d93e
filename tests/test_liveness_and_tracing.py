"""Tests for circuit liveness monitoring, failure injection and tracing."""

import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import attach_tracer
from repro.cli import main
from repro.core import RequestStatus, UserRequest
from repro.network.builder import build_chain_network
from repro.traffic import TrafficEngine, build_topology


class TestChannelCut:
    def test_cut_channel_drops_messages(self):
        from repro.netsim import ClassicalChannel, Simulator
        from repro.netsim.ports import subscribe

        sim = Simulator()
        channel = ClassicalChannel(sim, length_km=1.0)
        inbox = []
        subscribe(channel.port("b"), inbox.append)
        end_a = subscribe(channel.port("a"), lambda m: None)
        channel.cut()
        end_a.io.tx("lost")
        sim.run()
        assert inbox == []
        channel.restore()
        end_a.io.tx("found")
        sim.run()
        assert inbox == ["found"]


class TestLiveness:
    def test_healthy_circuit_stays_up(self):
        net = build_chain_network(3, seed=31)
        circuit_id = net.establish_circuit("node0", "node2", 0.8)
        net.watch_circuit(circuit_id, interval_ms=20.0)
        net.run(until_s=1.0)
        assert circuit_id in net.liveness["node0"]._monitors
        assert circuit_id in net.qnps["node0"]._circuits

    def test_cut_tears_circuit_down_and_aborts_requests(self):
        net = build_chain_network(3, seed=32)
        circuit_id = net.establish_circuit("node0", "node2", 0.8)
        net.watch_circuit(circuit_id, interval_ms=20.0, miss_limit=3)
        handle = net.submit(circuit_id, UserRequest(num_pairs=10 ** 6))
        net.run(until_s=0.2)
        assert handle.status == RequestStatus.ACTIVE
        # Sever the second hop's classical channel.
        net.channels[1].cut()
        net.run(until_s=1.0)
        assert handle.status == RequestStatus.ABORTED
        assert circuit_id not in net.qnps["node0"]._circuits
        assert circuit_id not in net.liveness["node0"]._monitors

    def test_watch_requires_head_end(self):
        net = build_chain_network(3, seed=33)
        circuit_id = net.establish_circuit("node0", "node2", 0.8)
        route = net.route_of(circuit_id)
        with pytest.raises(ValueError):
            net.liveness["node2"].watch(circuit_id, route.path)

    def test_duplicate_watch_rejected(self):
        net = build_chain_network(3, seed=34)
        circuit_id = net.establish_circuit("node0", "node2", 0.8)
        net.watch_circuit(circuit_id)
        with pytest.raises(ValueError):
            net.watch_circuit(circuit_id)

    @pytest.mark.parametrize("interval_ms", [0.0, -5.0])
    def test_non_positive_interval_rejected(self, interval_ms):
        # A zero interval would re-arm the keepalive tick at the same
        # instant forever.
        net = build_chain_network(3, seed=34)
        circuit_id = net.establish_circuit("node0", "node2", 0.8)
        with pytest.raises(ValueError, match="interval must be positive"):
            net.watch_circuit(circuit_id, interval_ms=interval_ms)
        assert circuit_id not in net.liveness["node0"]._monitors

    def test_unwatch_stops_monitoring(self):
        net = build_chain_network(3, seed=35)
        circuit_id = net.establish_circuit("node0", "node2", 0.8)
        net.watch_circuit(circuit_id)
        net.liveness["node0"].unwatch(circuit_id)
        net.channels[0].cut()
        net.run(until_s=1.0)
        # No monitor → no teardown.
        assert circuit_id in net.qnps["node0"]._circuits


class TestTracing:
    def run_traced(self, num_pairs=2, seed=36):
        net = build_chain_network(3, seed=seed)
        circuit_id = net.establish_circuit("node0", "node2", 0.8)
        tracer = attach_tracer(net)
        handle = net.submit(circuit_id, UserRequest(num_pairs=num_pairs))
        net.run_until_complete([handle], timeout_s=120)
        return net, tracer, handle

    def test_sequence_of_kinds(self):
        net, log, handle = self.run_traced()
        kinds = [event.name for event in log.events()]
        assert kinds[0] == "REQUEST"
        for expected in ("FORWARD", "LINK_PAIR", "SWAP", "TRACK", "PAIR",
                         "COMPLETE"):
            assert expected in kinds, expected

    def test_forward_precedes_first_swap(self):
        net, log, handle = self.run_traced()
        first_forward = log.of_kind("FORWARD")[0]
        first_swap = log.of_kind("SWAP")[0]
        assert first_forward.t_start <= first_swap.t_start

    def test_swaps_only_at_intermediate(self):
        net, log, handle = self.run_traced()
        assert all(event.node == "node1" for event in log.of_kind("SWAP"))

    def test_pair_events_at_both_ends(self):
        net, log, handle = self.run_traced()
        pair_nodes = {event.node for event in log.of_kind("PAIR")}
        assert pair_nodes == {"node0", "node2"}

    def test_filters(self):
        net, log, handle = self.run_traced()
        assert any(event.node == "node1" for event in log.events())
        assert log.of_kind("NOPE") == []
        assert len(log.of_kind("SWAP", "PAIR")) == \
            len(log.of_kind("SWAP")) + len(log.of_kind("PAIR"))

    def test_render_sequence(self):
        net, log, handle = self.run_traced()
        text = log.render_sequence(["node0", "node1", "node2"], max_events=40)
        lines = text.splitlines()
        assert "node0" in lines[0] and "node2" in lines[0]
        assert any("SWAP" in line for line in lines)

    def test_flat_views_skip_interval_and_network_marks(self):
        net, log, handle = self.run_traced()
        names = {event.name for event in log.events()}
        assert {"session", "circuit", "ROUTE", "INSTALL"}.isdisjoint(names)
        assert any(span.name == "session" for span in log.spans)
        assert log.of_kind("PAIR")[0].attrs["request"] == handle.request.request_id
        text = log.render_sequence(["node0", "node1", "node2"])
        assert "session" not in text


class TestPinnedTraceOutputs:
    """Byte-for-byte pins of the trace surfaces: the Fig 6 render of the
    ``trace`` subcommand and of ``examples/sequence_trace.py``, and the
    span JSONL that ``traffic --trace-out`` writes.  A refactor of the
    tracer must leave all three unchanged."""

    TRACE_SHA = ("6d2b09b1766faff1d8f5a54d16b5cbf1"
                 "7ca85e20c74378649b67bfa2352f0180")
    EXAMPLE_SHA = ("8f1347d3e503df9ddd5010cd5cd5b7ee"
                   "7d497e9220abd1f95738239679d7cf44")
    JSONL_SHA = ("5b70c721d6a3c8fd4caf4ced8d75496d"
                 "6f6f0cc06921bc14ee6304b09737ec7e")

    @staticmethod
    def sha(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    @pytest.mark.parametrize("formalism", ["dm", "bell"])
    def test_trace_subcommand_render(self, capsys, formalism):
        assert main(["--seed", "7", "--formalism", formalism, "trace"]) == 0
        assert self.sha(capsys.readouterr().out.encode()) == self.TRACE_SHA

    def test_sequence_trace_example(self):
        script = Path(__file__).parent.parent / "examples" / "sequence_trace.py"
        result = subprocess.run([sys.executable, str(script)],
                                capture_output=True, timeout=240, check=True)
        assert self.sha(result.stdout) == self.EXAMPLE_SHA

    def test_traffic_trace_out_jsonl(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        assert main(["--seed", "7", "--formalism", "bell", "traffic",
                     "--size", "3", "--circuits", "4", "--horizon", "1.0",
                     "--trace-out", str(path)]) == 0
        data = path.read_bytes()
        # The same spans as the library run below: circuit, ROUTE and
        # INSTALL included.
        assert data.count(b"\n") == 15864
        assert self.sha(data) == self.JSONL_SHA

    def test_library_run_files_one_span_per_event(self):
        net = build_topology("grid", 3, seed=7, formalism="bell")
        tracer = attach_tracer(net)
        TrafficEngine(net, circuits=4, seed=7).run(horizon_s=1.0)
        assert len(tracer.spans) == 15864
        assert len(tracer.events()) == 15672
