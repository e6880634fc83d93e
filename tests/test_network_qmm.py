"""Tests for the quantum memory manager and device arbiter."""

from functools import partial

import pytest

from repro.network import DeviceArbiter, QuantumMemoryManager, acquire_ordered, release_all
from repro.netsim import Simulator
from repro.quantum import bell_dm, create_pair


class TestSlotPools:
    def test_register_and_capacity(self):
        qmm = QuantumMemoryManager("n")
        qmm.register_link("l1", 2)
        pool = qmm.comm_pool("l1")
        assert (pool.in_use, pool.capacity) == (0, 2)

    def test_duplicate_link_rejected(self):
        qmm = QuantumMemoryManager("n")
        qmm.register_link("l1", 2)
        with pytest.raises(ValueError):
            qmm.register_link("l1", 2)

    def test_unknown_link_rejected(self):
        qmm = QuantumMemoryManager("n")
        with pytest.raises(KeyError):
            qmm.comm_pool("nope")

    def test_acquire_until_exhausted(self):
        qmm = QuantumMemoryManager("n")
        qmm.register_link("l1", 2)
        pool = qmm.comm_pool("l1")
        s1 = pool.try_acquire()
        s2 = pool.try_acquire()
        assert s1 is not None and s2 is not None
        assert pool.try_acquire() is None
        assert pool.in_use == 2

    def test_release_restores_capacity(self):
        qmm = QuantumMemoryManager("n")
        qmm.register_link("l1", 1)
        pool = qmm.comm_pool("l1")
        slot = pool.try_acquire()
        slot.release()
        assert pool.in_use == 0
        assert pool.try_acquire() is not None

    def test_pools_are_per_link(self):
        qmm = QuantumMemoryManager("n")
        qmm.register_link("l1", 1)
        qmm.register_link("l2", 1)
        assert qmm.comm_pool("l1").try_acquire() is not None
        assert qmm.comm_pool("l2").try_acquire() is not None

    def test_storage_pool(self):
        qmm = QuantumMemoryManager("n")
        qmm.configure_storage(1)
        slot = qmm.try_acquire_storage()
        assert slot is not None
        assert qmm.try_acquire_storage() is None
        slot.release()
        assert qmm.try_acquire_storage() is not None


class TestCorrelatorRegistry:
    def make(self):
        qmm = QuantumMemoryManager("n")
        qmm.register_link("l1", 2)
        qa, qb = create_pair(bell_dm(0))
        slot = qmm.comm_pool("l1").try_acquire()
        correlator = ("l1", 0)
        slot.commit(qa, correlator)
        qmm.bind(correlator, qa)
        return qmm, correlator, qa

    def test_bind_and_get(self):
        qmm, correlator, qubit = self.make()
        assert qmm.get(correlator) is qubit
        assert qmm.get(("l1", 99)) is None

    def test_duplicate_bind_rejected(self):
        qmm, correlator, qubit = self.make()
        with pytest.raises(ValueError):
            qmm.bind(correlator, qubit)

    def test_free_releases_slot_and_notifies(self):
        qmm, correlator, qubit = self.make()
        freed_pools = []
        for pool_name in ("l1", "storage"):
            qmm.on_slot_freed(pool_name, partial(freed_pools.append, pool_name))
        returned = qmm.free(correlator)
        assert returned is qubit
        assert qmm.get(correlator) is None
        assert qmm.comm_pool("l1").in_use == 0
        assert freed_pools == ["l1"]

    def test_free_unknown_correlator_is_none(self):
        qmm, _, _ = self.make()
        assert qmm.free(("l1", 1234)) is None

    def test_release_qubit_without_slot_is_noop(self):
        qmm = QuantumMemoryManager("n")
        qa, _ = create_pair(bell_dm(0))
        qmm.release_qubit(qa)  # no crash

    def test_rebind_slot_moves_pools(self):
        qmm, correlator, qubit = self.make()
        qmm.configure_storage(1)
        freed = []
        for pool_name in ("l1", "storage"):
            qmm.on_slot_freed(pool_name, partial(freed.append, pool_name))
        storage_slot = qmm.try_acquire_storage()
        qmm.rebind_slot(qubit, storage_slot)
        assert qmm.comm_pool("l1").in_use == 0
        assert freed == ["l1"]
        # Correlator still resolves to the qubit.
        assert qmm.get(correlator) is qubit
        # Freeing now releases the storage slot.
        qmm.free(correlator)
        assert qmm.try_acquire_storage() is not None

    def test_one_listener_per_pool(self):
        qmm, _, _ = self.make()
        qmm.on_slot_freed("l1", list)
        with pytest.raises(ValueError, match="already has a listener"):
            qmm.on_slot_freed("l1", list)

    def test_stats(self):
        qmm, _, _ = self.make()
        pool = qmm.comm_pool("l1")
        assert (pool.in_use, pool.capacity) == (1, 2)
        assert qmm.try_acquire_storage() is None  # no storage configured


class TestArbiter:
    def test_parallel_mode_grants_immediately(self):
        sim = Simulator()
        arbiter = DeviceArbiter(sim, serialize=False)
        grants = []
        arbiter.acquire(lambda: grants.append(sim.now))
        arbiter.acquire(lambda: grants.append(sim.now))
        sim.run()
        assert grants == [0.0, 0.0]
        arbiter.release()  # no-op in parallel mode

    def test_serial_mode_queues(self):
        sim = Simulator()
        arbiter = DeviceArbiter(sim, serialize=True)
        order = []

        def first():
            order.append("first")
            sim.schedule(100.0, lambda: (order.append("first-done"), arbiter.release()))

        arbiter.acquire(first)
        arbiter.acquire(lambda: order.append("second"))
        sim.run()
        assert order == ["first", "first-done", "second"]

    def test_release_without_acquire_raises(self):
        sim = Simulator()
        arbiter = DeviceArbiter(sim, serialize=True)
        with pytest.raises(RuntimeError):
            arbiter.release()

    def test_acquire_ordered_is_deadlock_free(self):
        sim = Simulator()
        arbiter_a = DeviceArbiter(sim, name="a", serialize=True)
        arbiter_b = DeviceArbiter(sim, name="b", serialize=True)
        completed = []

        def hold_and_release(tag, pair):
            def on_granted():
                completed.append(tag)
                sim.schedule(10.0, lambda: release_all(pair))
            acquire_ordered(pair, on_granted)

        # Two workers racing for (a, b) in opposite nominal orders.
        hold_and_release("w1", [arbiter_a, arbiter_b])
        hold_and_release("w2", [arbiter_b, arbiter_a])
        sim.run()
        assert sorted(completed) == ["w1", "w2"]
        for arbiter in (arbiter_a, arbiter_b):  # both idle again
            with pytest.raises(RuntimeError, match="release without acquire"):
                arbiter.release()
