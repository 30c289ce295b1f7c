"""Live-vs-replay dispatch: how a built fabric program is executed.

Kernels only build a fabric plus a completion predicate; this module is
the one place that turns :attr:`repro.api.RunOptions.engine` into
stepping decisions:

* ``"reference"`` / ``"active"`` step the fabric live — the full-grid
  sweep or the event-driven active-set stepper — with the race
  sanitizer attached whenever ``RunOptions.sanitize`` is set;
* ``"replay"`` steps live on the active-set stepper while a
  :class:`~repro.wse.replay.ReplaySession` records, and executes the
  compiled schedule instead whenever the session says it is still
  valid.

Two calls cover every program shape:

* :func:`run_persistent` — a program loaded once and re-armed per run
  (the paper's model: :class:`~repro.kernels.spmv3d.SpmvEngine`,
  :class:`~repro.wse.allreduce.AllReduceEngine`).  It replays when the
  session is valid, records when it is enabled, and otherwise runs
  live.
* :func:`run_oneshot` — a program built for a single run.  Under replay
  it records that run and proves the compiled schedule reproduces it
  bit for bit (``schedule.check()``); the live results are returned
  either way.
"""

from __future__ import annotations

__all__ = ["select_engine", "open_replay", "run_live", "run_persistent",
           "run_oneshot"]


def select_engine(fabric, engine: str) -> None:
    """Point ``fabric`` at the live stepper behind ``engine``.

    Replay is an orchestration layer over the active-set stepper, so
    every engine except ``"reference"`` steps live as ``"active"``.
    """
    fabric.engine = "reference" if engine == "reference" else "active"


def open_replay(fabric, options, label: str = ""):
    """Select the fabric's live stepper for ``options``; under
    ``engine="replay"`` also return the program's
    :class:`~repro.wse.replay.ReplaySession` (``None`` otherwise).

    Call it on the freshly built program: the session's
    schedule-determinism proof inspects live activation state, which a
    run perturbs.
    """
    select_engine(fabric, options.engine)
    if options.engine != "replay":
        return None
    from .replay import ReplaySession

    return ReplaySession(fabric, label=label)


def run_live(fabric, options, until, max_cycles: int) -> int:
    """Step ``fabric`` until ``until(fabric)``; returns the cycle delta.

    The race sanitizer rides along when ``options.sanitize`` is set.
    """
    start = fabric.cycle
    fabric.run(max_cycles=max_cycles, until=until, sanitize=options.sanitize)
    return fabric.cycle - start


def run_persistent(fabric, session, options, until, max_cycles: int, *,
                   arm, externs, configure=None) -> int:
    """One run of a persistent program; returns the cycle delta.

    ``session`` is :func:`open_replay`'s result.  A valid compiled
    schedule replays on ``externs()`` (the operand arrays the recording
    registered as externs).  Otherwise ``arm()`` re-arms the program in
    place and it runs live — recorded when the session is enabled
    (``configure(recorder)`` registers extern/static arrays first, and
    ``arm`` runs inside the recording so per-run operands it sets enter
    the tape as externs).
    """
    if session is not None and session.valid():
        return session.replay(externs())
    if session is not None and session.enabled:
        with session.record(configure=configure):
            arm()
            return run_live(fabric, options, until, max_cycles)
    if session is not None:
        session.note_fallback()
    arm()
    return run_live(fabric, options, until, max_cycles)


def run_oneshot(fabric, options, until, max_cycles: int,
                label: str = "") -> int:
    """Run a program built for a single execution; returns the cycle
    delta.

    Under ``engine="replay"`` the live run is recorded and the compiled
    schedule must reproduce it bit for bit (``AssertionError``
    otherwise).  A program the analyzer cannot prove
    schedule-deterministic simply runs live.
    """
    session = open_replay(fabric, options, label)
    if session is None or not session.enabled:
        return run_live(fabric, options, until, max_cycles)
    with session.record():
        cycles = run_live(fabric, options, until, max_cycles)
    if session.schedule is not None:
        bad = session.schedule.check()
        if bad:
            raise AssertionError(
                "replay self-check diverged from the live run: "
                + "; ".join(bad[:5])
            )
    return cycles
