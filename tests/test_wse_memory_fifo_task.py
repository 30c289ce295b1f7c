"""Tests for tile memory, hardware FIFOs, and the task scheduler."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.wse import HardwareFifo, TaskScheduler, TileMemory, TileMemoryError
from repro.wse.dsr import Action


class TestTileMemory:
    def test_capacity_enforced(self):
        mem = TileMemory(100)
        mem.alloc("a", 40, np.float16)  # 80 bytes
        with pytest.raises(TileMemoryError):
            mem.alloc("b", 20, np.float16)  # 40 more bytes > 100

    def test_duplicate_name_rejected(self):
        mem = TileMemory(1000)
        mem.alloc("a", 4)
        with pytest.raises(ValueError):
            mem.alloc("a", 4)

    def test_free_reclaims(self):
        mem = TileMemory(100)
        mem.alloc("a", 50, np.float16)
        mem.free("a")
        assert mem.bytes_used == 0
        mem.alloc("b", 50, np.float16)  # fits again

    def test_free_unknown(self):
        with pytest.raises(KeyError):
            TileMemory(100).free("nope")

    def test_store_and_get(self):
        mem = TileMemory(1024)
        arr = mem.store("v", np.arange(4, dtype=np.float32))
        np.testing.assert_array_equal(mem.get("v"), arr)
        assert "v" in mem

    def test_paper_bicgstab_budget(self):
        """Section IV: 10Z fp16 words at Z=1536 is ~31 KB of 48 KB."""
        mem = TileMemory(48 * 1024)
        z = 1536
        for name in ("xp", "xm", "yp", "ym", "zp", "zm", "x", "p", "s", "y"):
            mem.alloc(name, z, np.float16)
        assert mem.bytes_used == 10 * z * 2 == 30720
        assert mem.bytes_free > 0

    def test_max_z_bound(self):
        """Z beyond ~2457 cannot fit the 10-vector budget."""
        mem = TileMemory(48 * 1024)
        z = 2458
        with pytest.raises(TileMemoryError):
            for i in range(10):
                mem.alloc(f"v{i}", z, np.float16)

    def test_adopted_view_charged_like_alloc(self):
        plane = np.zeros((3, 4, 9), np.float16)
        owned, adopted = TileMemory(100), TileMemory(100)
        owned.alloc("v", 9, np.float16)
        view = adopted.adopt("v", plane[1, 2])
        assert np.shares_memory(view, plane)
        assert adopted.get("v") is view
        assert adopted.name_of(view) == "v"
        assert adopted.bytes_used == owned.bytes_used == 18
        with pytest.raises(ValueError):
            adopted.adopt("v", plane[0, 0])  # duplicate name
        with pytest.raises(TileMemoryError):
            adopted.adopt("w", np.zeros(50, np.float16))  # 100 B > 82 free
        with pytest.raises(ValueError):
            adopted.adopt("p", plane[0])  # not 1D

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            TileMemory(0)

    def test_report_contains_entries(self):
        mem = TileMemory(1024)
        mem.alloc("vec", 8, np.float16)
        assert "vec" in mem.report()

    @given(st.lists(st.integers(1, 64), min_size=1, max_size=20))
    @settings(max_examples=30, deadline=None)
    def test_accounting_invariant(self, sizes):
        mem = TileMemory(1 << 20)
        total = 0
        for i, n in enumerate(sizes):
            mem.alloc(f"a{i}", n, np.float16)
            total += 2 * n
            assert mem.bytes_used == total
            assert mem.bytes_used + mem.bytes_free == mem.capacity


class TestHardwareFifo:
    def test_fifo_order(self):
        f = HardwareFifo("f", 4)
        for v in (1, 2, 3):
            f.push(v)
        assert [f.pop(), f.pop(), f.pop()] == [1, 2, 3]

    def test_capacity(self):
        f = HardwareFifo("f", 2)
        f.push(1)
        f.push(2)
        assert f.full
        with pytest.raises(OverflowError):
            f.push(3)

    def test_pop_empty(self):
        with pytest.raises(IndexError):
            HardwareFifo("f", 2).pop()

    def test_on_push_fires_every_push(self):
        fired = []
        f = HardwareFifo("f", 8, on_push=lambda: fired.append(1))
        f.push(1)
        f.push(2)
        assert len(fired) == 2

    def test_stats(self):
        f = HardwareFifo("f", 4)
        f.push(1)
        f.push(2)
        f.pop()
        f.push(3)
        assert f.total_pushed == 3
        assert f.high_water == 2
        assert len(f) == 2

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            HardwareFifo("f", 0)


class TestTaskScheduler:
    def test_activate_then_dispatch(self):
        s = TaskScheduler()
        ran = []
        s.add("t", lambda core: ran.append("t"))
        s.activate("t")
        s.dispatch(None)
        assert ran == ["t"]

    def test_blocked_task_does_not_run(self):
        s = TaskScheduler()
        ran = []
        s.add("t", lambda core: ran.append("t"), blocked=True)
        s.activate("t")
        s.dispatch(None)
        assert ran == []
        s.unblock("t")
        s.dispatch(None)
        assert ran == ["t"]

    def test_activation_consumed_by_run(self):
        s = TaskScheduler()
        ran = []
        s.add("t", lambda core: ran.append(1))
        s.activate("t")
        s.dispatch(None)
        s.dispatch(None)
        assert len(ran) == 1

    def test_activation_idempotent(self):
        s = TaskScheduler()
        ran = []
        s.add("t", lambda core: ran.append(1))
        s.activate("t")
        s.activate("t")
        s.dispatch(None)
        assert len(ran) == 1

    def test_priority_order(self):
        """The SpMV sum task must outrank the completion tree."""
        s = TaskScheduler()
        order = []
        s.add("tree", lambda core: order.append("tree"), priority=0)
        s.add("sum", lambda core: order.append("sum"), priority=1)
        s.activate("tree")
        s.activate("sum")
        s.dispatch(None)
        assert order == ["sum", "tree"]

    def test_cascading_activation(self):
        s = TaskScheduler()
        order = []
        s.add("b", lambda core: order.append("b"), blocked=True)

        def a_body(core):
            order.append("a")
            s.activate("b")
            s.unblock("b")

        s.add("a", a_body)
        s.activate("a")
        s.dispatch(None)
        assert order == ["a", "b"]

    def test_two_way_barrier_semantics(self):
        """activate + unblock from two different events = a 2-way join."""
        s = TaskScheduler()
        ran = []
        s.add("join", lambda core: ran.append(1), blocked=True)
        s.apply("join", Action.ACTIVATE)
        s.dispatch(None)
        assert not ran  # only one arm arrived
        s.apply("join", Action.UNBLOCK)
        s.dispatch(None)
        assert ran == [1]

    def test_duplicate_task_rejected(self):
        s = TaskScheduler()
        s.add("t", lambda core: None)
        with pytest.raises(ValueError):
            s.add("t", lambda core: None)

    def test_unknown_task_raises(self):
        s = TaskScheduler()
        with pytest.raises(KeyError):
            s.activate("ghost")

    def test_runaway_dispatch_detected(self):
        s = TaskScheduler()
        s.add("loop", lambda core: s.activate("loop"))
        s.activate("loop")
        with pytest.raises(RuntimeError, match="quiesce"):
            s.dispatch(None)
