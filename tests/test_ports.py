"""Unit tests for the typed component-and-port wiring layer."""

import pickle

import pytest

from repro.netsim import ClassicalChannel, Simulator
from repro.netsim.ports import (
    CallbackComponent,
    Component,
    Port,
    PortAlreadyConnectedError,
    PortError,
    PortNotConnectedError,
    ProtocolMismatchError,
    connect,
    subscribe,
)


class Recorder(Component):
    """Minimal component with one inbound port (picklable handler)."""

    def __init__(self, name, protocol="test"):
        self.name = name
        self.inbox = []
        self.rx = self.add_port("rx", protocol, handler=self.on_message)
        self.tx_port = self.add_port("tx", protocol)

    def on_message(self, message):
        self.inbox.append(message)


class TestConnectValidation:
    def test_protocol_mismatch_is_typed_and_names_components(self):
        a = Recorder("alpha", protocol="classical")
        b = Recorder("beta", protocol="photon")
        with pytest.raises(ProtocolMismatchError) as err:
            connect(a.rx, b.rx)
        message = str(err.value)
        assert "alpha.rx" in message and "beta.rx" in message
        assert "classical" in message and "photon" in message

    def test_protocol_mismatch_is_a_type_error(self):
        a = Recorder("alpha", protocol="x")
        b = Recorder("beta", protocol="y")
        with pytest.raises(TypeError):
            connect(a.rx, b.rx)

    def test_double_connect_raises_and_names_existing_peer(self):
        a, b, c = Recorder("a"), Recorder("b"), Recorder("c")
        connect(a.rx, b.tx_port)
        with pytest.raises(PortAlreadyConnectedError) as err:
            connect(a.rx, c.tx_port)
        assert "a.rx" in str(err.value) and "b.tx" in str(err.value)

    def test_double_connect_checks_both_sides(self):
        a, b, c = Recorder("a"), Recorder("b"), Recorder("c")
        connect(a.rx, b.tx_port)
        with pytest.raises(PortAlreadyConnectedError):
            connect(c.rx, b.tx_port)

    def test_self_connect_rejected(self):
        a = Recorder("a")
        with pytest.raises(ProtocolMismatchError):
            connect(a.rx, a.rx)

    def test_connecting_a_non_port_is_a_type_error(self):
        a = Recorder("a")
        with pytest.raises(TypeError):
            a.rx.connect("not a port")

    def test_typed_errors_are_runtime_errors_for_back_compat(self):
        assert issubclass(PortAlreadyConnectedError, RuntimeError)
        assert issubclass(PortNotConnectedError, RuntimeError)
        assert issubclass(PortAlreadyConnectedError, PortError)
        assert issubclass(PortNotConnectedError, PortError)


class TestMessaging:
    def test_tx_on_unconnected_port_names_the_component(self):
        a = Recorder("lonely")
        with pytest.raises(PortNotConnectedError) as err:
            a.tx_port.tx("hello")
        assert "lonely.tx" in str(err.value)

    def test_tx_to_handlerless_peer_raises_port_error(self):
        a, b = Recorder("a"), Recorder("b")
        connect(a.rx, b.tx_port)  # b.tx has no handler
        with pytest.raises(PortError) as err:
            a.rx.tx("hello")
        assert "b.tx" in str(err.value)

    def test_tx_delivers_synchronously(self):
        a, b = Recorder("a"), Recorder("b")
        connect(a.tx_port, b.rx)
        a.tx_port.tx("ping")
        assert b.inbox == ["ping"]

    def test_disconnect_then_reconnect(self):
        a, b, c = Recorder("a"), Recorder("b"), Recorder("c")
        connect(a.tx_port, b.rx)
        a.tx_port.disconnect()
        assert not a.tx_port.connected and not b.rx.connected
        connect(a.tx_port, c.rx)
        a.tx_port.tx("ping")
        assert c.inbox == ["ping"] and b.inbox == []

    def test_disconnect_unconnected_is_a_noop(self):
        a = Recorder("a")
        a.rx.disconnect()
        assert not a.rx.connected


class TestComponent:
    def test_duplicate_port_name_rejected(self):
        a = Recorder("a")
        with pytest.raises(ValueError) as err:
            a.add_port("rx", "test")
        assert "a" in str(err.value) and "rx" in str(err.value)

    def test_port_lookup_error_names_component(self):
        a = Recorder("a")
        with pytest.raises(KeyError) as err:
            a.port("nope")
        assert "a" in str(err.value) and "nope" in str(err.value)

    def test_unnamed_component_falls_back_to_class_name(self):
        class Bare(Component):
            pass

        bare = Bare()
        port = bare.add_port("p", "test")
        assert port.full_name == "Bare.p"


class TestAdapters:
    def test_subscribe_routes_messages_to_callable(self):
        a = Recorder("a")
        inbox = []
        subscribe(a.tx_port, inbox.append)
        a.tx_port.tx("out")
        assert inbox == ["out"]

    def test_subscribe_adapter_can_send_back(self):
        a = Recorder("a")
        adapter = subscribe(a.rx, lambda _: None)
        adapter.io.tx("in")
        assert a.inbox == ["in"]

    def test_callback_component_protocol_enforced(self):
        a = Recorder("a", protocol="classical")
        adapter = CallbackComponent(lambda _: None, "photon")
        with pytest.raises(ProtocolMismatchError):
            connect(a.tx_port, adapter.io)


class TestPickle:
    def test_connected_components_round_trip(self):
        a, b = Recorder("a"), Recorder("b")
        connect(a.tx_port, b.rx)
        a2, b2 = pickle.loads(pickle.dumps((a, b)))
        a2.tx_port.tx("after-restore")
        assert b2.inbox == ["after-restore"]
        assert a2.tx_port.peer is b2.rx

    def test_wired_channel_round_trips_through_pickle(self):
        sim = Simulator()
        channel = ClassicalChannel(sim, length_km=1.0, name="c")
        rec = Recorder("sink", protocol="classical")
        connect(channel.port("b"), rec.rx)
        sim2, channel2, rec2 = pickle.loads(pickle.dumps((sim, channel, rec)))
        channel2._ends[0].send("hello")
        sim2.run()
        assert rec2.inbox == ["hello"]

