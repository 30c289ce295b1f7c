"""Lowering a recorded tape into a vectorized replay program.

The tape is an SSA value graph in execution order, so every operand id
is smaller than its consumer's id.  One forward scan levelizes it
(``level = 1 + max(level of operands)``); nodes are then bucketed by
``(level, op, operand dtypes, out dtype)`` and each bucket becomes one
batched NumPy operation over a single float64 value buffer:

    gather leaves -> for each level-group: vals[out] = op(vals[a], vals[b])
    -> scatter final cell values -> apply counters/flags/obs

float64 staging is exact: every recorded value is an exact fp16 or fp32
value (both embed losslessly in float64), operands are cast back to
their recorded dtypes before each op, so each vectorized op performs
bit-identical IEEE arithmetic to the scalar loop it replaces — the same
argument :class:`repro.wse.dsr.Instruction` makes for its batched step.

Side effects cost a fixed number of NumPy ops, whatever the tile count:

* final cell values scatter with one fancy-index op per backing buffer
  (the SpMV's fabric-wide ``v``/``u`` planes; the AllReduce engine's
  ``acc``/``result``/has-result arrays, which every ReduceCore views);
* cycle/word accounting replays as recorded deltas.  ``fabric.cycle``,
  ``FabricStats`` and ``total_words_moved`` are a few scalar adds; the
  per-router ``words_moved``, per-core ``elements_processed`` /
  ``cycles_active`` and per-FIFO ``total_pushed`` / ``high_water`` are
  one update each of the fabric's replayed-share tables
  (:mod:`repro.wse.counters`), which those attributes read through;
* completion flags are re-applied only when the fabric stepped live
  since the schedule last applied them (one integer compare otherwise).

Everything lands exactly where a live run would leave it, so
engine-switch boundaries (``skip_cycles`` after a replay, a live run
after an invalidation) observe a consistent fabric.  One limit: a
direct write to ``core.flags`` between two replays, with no live step
in between, is not undone by the second replay.
"""

from __future__ import annotations

import numpy as np

from .record import (
    DTYPES,
    OP_ADD,
    OP_CAST,
    OP_CONST,
    OP_EXTERN,
    OP_LEAF,
    OP_MUL,
    OP_MULX,
    OP_PEND,
    RecordedTape,
    RecordingError,
)

__all__ = ["CompiledSchedule", "compile_tape"]


def compile_tape(tape: RecordedTape, fabric) -> "CompiledSchedule":
    """Levelize and bucket a recorded tape for vectorized replay."""
    ops = tape.ops
    arg_a = tape.arg_a
    arg_b = tape.arg_b
    odt = tape.odt
    n = len(ops)
    level = [0] * n
    for i in range(n):
        op = ops[i]
        if op == OP_PEND:
            raise RecordingError("unconsumed fabric word in tape (pending node)")
        if op in (OP_LEAF, OP_CONST, OP_EXTERN):
            continue
        a = arg_a[i]
        lv = level[a]
        b = arg_b[i]
        if b >= 0 and level[b] > lv:
            lv = level[b]
        level[i] = lv + 1

    buckets: dict[tuple, tuple[list, list, list]] = {}
    for i in range(n):
        op = ops[i]
        if op in (OP_LEAF, OP_CONST, OP_EXTERN):
            continue
        a = arg_a[i]
        b = arg_b[i]
        key = (level[i], op, odt[a], odt[b] if b >= 0 else -1, odt[i])
        bucket = buckets.get(key)
        if bucket is None:
            bucket = ([], [], [])
            buckets[key] = bucket
        bucket[0].append(a)
        bucket[1].append(b)
        bucket[2].append(i)

    groups = []
    for key in sorted(buckets):
        ia, ib, io = buckets[key]
        _lvl, op, dta, dtb, dto = key
        groups.append((
            op, dta, dtb, dto,
            np.asarray(ia, dtype=np.intp),
            np.asarray(ib, dtype=np.intp),
            np.asarray(io, dtype=np.intp),
        ))

    const_idx = np.asarray([i for i, _v in tape.const_vals], dtype=np.intp)
    const_val = np.asarray([v for _i, v in tape.const_vals], dtype=np.float64)

    by_arr: dict[int, tuple[list, list, list]] = {}
    for nid, ai, cell, val in tape.mem_leaves:
        entry = by_arr.setdefault(ai, ([], [], []))
        entry[0].append(cell)
        entry[1].append(nid)
        entry[2].append(val)
    mem_gathers = [
        (target, flat, nids, vals_)
        for target, flat, _members, _owner, _cells, nids, vals_
        in _buffer_groups(tape.arrays, by_arr)
    ]

    ext_gathers = []
    by_name: dict[str, tuple[list, list, list]] = {}
    for nid, name, idx, val in tape.ext_leaves:
        entry = by_name.setdefault(name, ([], [], []))
        entry[0].append(idx)
        entry[1].append(nid)
        entry[2].append(val)
    for name, (idxs, nids, vals_) in by_name.items():
        ext_gathers.append((
            name,
            np.asarray(idxs, dtype=np.intp),
            np.asarray(nids, dtype=np.intp),
            np.asarray(vals_, dtype=np.float64),
        ))

    by_arr = {}
    for (ai, cell), nid in tape.last_writer.items():
        entry = by_arr.setdefault(ai, ([], []))
        entry[0].append(cell)
        entry[1].append(nid)
    scatters = list(_buffer_groups(tape.arrays, by_arr))

    # Object finals without a flat home (a one-shot dot kernel's
    # ScalarAccumulator) apply as one cast per dtype plus a setattr per
    # object; homed ones (ReduceCore acc/result) are already scatters.
    by_dt: dict[int, tuple[list, list, list]] = {}
    for obj, attr, nid, dt in tape.obj_finals:
        entry = by_dt.setdefault(dt, ([], [], []))
        entry[0].append(obj)
        entry[1].append(attr)
        entry[2].append(nid)
    obj_batches = [
        (DTYPES[dt], objs, attrs, np.asarray(nids, dtype=np.intp))
        for dt, (objs, attrs, nids) in by_dt.items()
    ]

    # Counter deltas: one update of a fabric-wide share table per
    # counter (repro.wse.counters), whatever the object count.
    counters = []
    for shares, deltas, updates in (
        (fabric.replayed_routers, tape.router_deltas, (np.add,)),
        (fabric.replayed_cores, tape.core_deltas, (np.add, np.add)),
        (fabric.replayed_fifos, tape.fifo_deltas, (np.add, np.maximum)),
    ):
        if not deltas:
            continue
        objs, *columns = zip(*deltas)
        rows = shares.rows(objs)
        for col, (update, values) in enumerate(zip(updates, columns)):
            counters.append((update, shares, rows, col,
                             np.asarray(values, dtype=np.int64)))

    return CompiledSchedule(
        fabric=fabric,
        n_nodes=n,
        n_groups=len(groups),
        groups=groups,
        const_idx=const_idx,
        const_val=const_val,
        mem_gathers=mem_gathers,
        ext_gathers=ext_gathers,
        scatters=scatters,
        obj_batches=obj_batches,
        obj_writes=tape.obj_writes,
        d_cycle=tape.d_cycle,
        d_total_words=tape.d_total_words,
        stepped=tape.stepped,
        skipped=tape.skipped,
        words=tape.words,
        stall=tape.stall,
        series=tape.series,
        stats_deltas=tape.stats_deltas,
        peak_routers=tape.peak_routers,
        peak_cores=tape.peak_cores,
        counters=counters,
        flag_finals=tape.flag_finals,
        # The recording left the flags at their finals.
        flags_applied_at=fabric._live_steps,
        extern_lengths=tape.extern_lengths,
        profile=getattr(tape, "profile", None),
    )


def _flat_view(array: np.ndarray):
    """``(buffer, offset, step)`` when ``array`` is a 1D view into a
    larger C-contiguous buffer of its dtype, so that ``array[c]`` is
    ``buffer.reshape(-1)[offset + c * step]``; None otherwise."""
    root = array
    while isinstance(root.base, np.ndarray):
        root = root.base
    if (root is array or array.ndim != 1 or root.dtype != array.dtype
            or not root.flags.c_contiguous):
        return None
    size = array.itemsize
    delta = (array.__array_interface__["data"][0]
             - root.__array_interface__["data"][0])
    if delta % size or array.strides[0] % size:
        return None
    return root, delta // size, array.strides[0] // size


def _buffer_groups(arrays, by_arr):
    """Coalesce per-array cell lists by backing buffer.

    ``by_arr`` maps a tape array index to ``(cells, *columns)``.  Returns
    one ``(target, flat, members, owner, cells, *columns)`` tuple per
    group: ``target[flat[k]]`` is the memory of
    ``members[owner[k]][cells[k]]``, and each column is concatenated in
    the same order.  Arrays that view one contiguous buffer (the SpMV's
    per-tile ``v``/``u`` planes) share a group, so a replay gathers or
    scatters all of them in one fancy-index op; an array that owns its
    buffer is its own group.  Recorded views must not overlap: the
    recorder tracks cells per array, so overlapping views would already
    void the tape's provenance.
    """
    groups = []
    by_root: dict[int, tuple] = {}
    for ai, (cells, *_cols) in by_arr.items():
        array = arrays[ai]
        cells = np.asarray(cells, dtype=np.intp)
        view = _flat_view(array)
        if view is None:
            groups.append((array, [(ai, cells, cells)]))
            continue
        root, offset, step = view
        by_root.setdefault(id(root), (root.reshape(-1), []))[1].append(
            (ai, cells, offset + cells * step))
    groups.extend(by_root.values())
    out = []
    for target, parts in groups:
        n_cols = len(by_arr[parts[0][0]]) - 1
        out.append((
            target,
            np.concatenate([p[2] for p in parts]),
            [arrays[p[0]] for p in parts],
            np.concatenate([np.full(len(p[1]), k, dtype=np.intp)
                            for k, p in enumerate(parts)]),
            np.concatenate([p[1] for p in parts]),
            *(np.concatenate([np.asarray(by_arr[p[0]][c]) for p in parts])
              for c in range(1, n_cols + 1)),
        ))
    return out


class CompiledSchedule:
    """A recorded kernel execution, lowered to batched array ops.

    ``execute(externs)`` re-runs the recorded schedule on fresh operand
    values and applies all side effects (memory, accumulators, flags,
    cycle/word counters, obs synthesis) to the recorded fabric.
    ``check()`` re-evaluates the tape from the *recorded* leaf values
    and verifies the fabric's current state matches bit-for-bit — the
    post-recording self-test one-shot runners use.
    """

    def __init__(self, **kw):
        self.__dict__.update(kw)

    # ------------------------------------------------------------------
    def _eval(self, externs=None, recorded_leaves: bool = False) -> np.ndarray:
        vals = np.empty(self.n_nodes, dtype=np.float64)
        if len(self.const_idx):
            vals[self.const_idx] = self.const_val
        for target, flat, nids, rec_vals in self.mem_gathers:
            vals[nids] = rec_vals if recorded_leaves else target[flat]
        for name, idxs, nids, rec_vals in self.ext_gathers:
            if recorded_leaves:
                vals[nids] = rec_vals
            else:
                if externs is None or name not in externs:
                    raise KeyError(f"replay requires extern operand {name!r}")
                vals[nids] = np.asarray(externs[name], dtype=np.float64)[idxs]
        f32 = np.float32
        for op, dta, dtb, dto, ia, ib, io in self.groups:
            if op == OP_CAST:
                r = vals[ia].astype(DTYPES[dto])
            else:
                a = vals[ia]
                b = vals[ib]
                if op == OP_MULX:
                    r = a.astype(f32) * b.astype(f32)
                else:
                    a = a.astype(DTYPES[dta])
                    b = b.astype(DTYPES[dtb])
                    r = a + b if op == OP_ADD else a * b
                if r.dtype != DTYPES[dto]:
                    r = r.astype(DTYPES[dto])
            vals[io] = r
        return vals

    # ------------------------------------------------------------------
    def execute(self, externs=None) -> int:
        """Replay the schedule; returns the cycle delta applied."""
        vals = self._eval(externs)
        for target, flat, _members, _owner, _cells, nids in self.scatters:
            target[flat] = vals[nids]
        for dtype, objs, attrs, nids in self.obj_batches:
            for obj, attr, value in zip(objs, attrs, vals[nids].astype(dtype)):
                setattr(obj, attr, value)
        for acc, dwrites in self.obj_writes:
            acc.writes += dwrites
        self._apply_accounting()
        return self.d_cycle

    def _apply_accounting(self) -> None:
        fabric = self.fabric
        base = fabric.cycle
        fabric.cycle = base + self.d_cycle
        st = fabric.stats
        for field_name, delta in self.stats_deltas:
            setattr(st, field_name, getattr(st, field_name) + delta)
        if st.peak_active_routers < self.peak_routers:
            st.peak_active_routers = self.peak_routers
        if st.peak_active_cores < self.peak_cores:
            st.peak_active_cores = self.peak_cores
        fabric.total_words_moved += self.d_total_words
        for update, shares, rows, col, values in self.counters:
            table = shares.table
            table[rows, col] = update(table[rows, col], values)
        if fabric._live_steps != self.flags_applied_at:
            # Only live stepping moves flags off their finals.
            for core, flags in self.flag_finals:
                core.flags.update(flags)
            self.flags_applied_at = fabric._live_steps
        obs = fabric.obs
        if obs is not None:
            fn = getattr(obs, "on_replay", None)
            if fn is not None:
                fn(fabric, self.stepped, self.skipped, self.words,
                   self.stall, [(base + c, w) for c, w in self.series])
            else:
                obs.on_skip(self.d_cycle)
        # Profiler fold: replays advance the wait-state ledgers exactly
        # as the recorded live run did.  A tape recorded without this
        # profiler (or before it attached) still conserves cycles via
        # the opaque fold, attributed to each tile's frozen state.
        prof = getattr(fabric, "profiler", None)
        if prof is not None and getattr(prof, "attached", False):
            entry = getattr(self, "profile", None)
            if entry is not None and entry[0] is prof:
                prof.fold(entry[1])
            else:
                prof.fold_opaque(self.stepped, self.skipped)

    # ------------------------------------------------------------------
    def check(self) -> list[str]:
        """Verify the compiled tape reproduces the recorded run.

        Evaluates from the recorded leaf values and compares every
        scattered cell and object attribute against the fabric's current
        (post-recording) state.  Returns a list of mismatch reports —
        empty means the replay is proven bit-identical to the live run
        it recorded.
        """
        vals = self._eval(recorded_leaves=True)
        bad: list[str] = []
        for target, flat, members, owner, cells, nids in self.scatters:
            got = vals[nids].astype(target.dtype)
            cur = target[flat]
            word = f"u{got.itemsize}"
            diff = np.flatnonzero(got.view(word) != cur.view(word))
            if len(diff):
                k = int(diff[0])
                bad.append(
                    f"cell {cells[k]} of {self._describe(members[owner[k]])}: "
                    f"replay={got[k]!r} live={cur[k]!r}"
                )
        for dtype, objs, attrs, nids in self.obj_batches:
            for obj, attr, got in zip(objs, attrs, vals[nids].astype(dtype)):
                cur = getattr(obj, attr)
                if not (got == cur or (np.isnan(got) and np.isnan(cur))):
                    bad.append(f"{type(obj).__name__}.{attr}: replay={got!r} live={cur!r}")
        return bad

    def _describe(self, array) -> str:
        """Name a scattered array for :meth:`check`'s reports: the tile
        allocation it is, else its dtype."""
        for row in self.fabric.cores:
            for core in row:
                mem = getattr(core, "memory", None)
                name = mem.name_of(array) if mem is not None else None
                if name is not None:
                    return f"{name!r} on tile ({core.x},{core.y})"
        return f"a {array.dtype} array"
