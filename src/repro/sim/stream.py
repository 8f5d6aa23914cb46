"""The device stream: the device-physics half of the fleet engine.

The reference engine (:mod:`repro.sim.reference`) keeps every device's
availability events in one global heap.  The fleet engine
(:mod:`repro.sim.fleet`) keeps them in one :class:`DeviceStream` beside the
coordinator's own queue:

* the **static event stream** — every check-in / checkout over the horizon —
  is built once as sorted parallel numpy columns instead of millions of
  heap pushes.  A device is named by its *slot* (its rank in ascending
  device-id order, the index of its state in
  :class:`~repro.sim.vector.VectorDeviceState`) from construction on.  Each
  event is stored as three columns — ``sa_time`` (float64), ``sa_code`` (the
  event's number, see below) and ``sa_slot`` (int32) — and each session
  once, as ``se_end`` (its float64 end): 16 B per event plus 8 B per
  session.  The columns are the only copy: the batched kernels slice them,
  and the per-event readers go through one bounded window of decoded Python
  rows (:meth:`DeviceStream.refill`, :data:`STREAM_WINDOW` events at a time)
  that follows the stream's monotone cursor;
* the **response heap** holds the response events the coordinator schedules
  when it assigns a device (:meth:`DeviceStream.schedule_response`).

The coordinator (the engine) merges the stream with its own queue by
``(time, seq)`` — see :func:`make_static_stream` for how ``seq`` is chosen —
draining runs of static events in batches and responses one at a time.

Determinism contract
--------------------

Event *code* ``c = 2·i + is_checkout`` names session *i*'s check-in
(``c = 2i``) and checkout (``c = 2i + 1``), sessions numbered in session-sort
order.  Static events carry the exact sequence numbers the single-queue
engine would have assigned them: job arrivals take ``0..J-1``, and a static
event takes ``seq = seq0 + code`` with ``seq0 = J``.  So the event's
session is ``code >> 1``, its session end ``se_end[code >> 1]``, and it is a
check-in iff ``code & 1 == 0``.  Dynamic events take coordinator-issued
sequence numbers from the same counter.  Merging the stream and the
coordinator queue by ``(time, seq)`` therefore reproduces the single-queue
engine's processing order *exactly* — the property the engine-identity
tests and the engine-matrix decision hash enforce.
"""

from __future__ import annotations

import heapq
from typing import List, Tuple

import numpy as np

#: Sentinel key sorting after every real event.
INF_KEY: Tuple[float, int] = (float("inf"), 1 << 62)

#: Static events decoded into Python rows per window refill.  Element access
#: on decoded rows is several times cheaper than numpy scalar extraction, so
#: the per-event loops read rows; decoding only a window keeps the boxed
#: values at O(window) instead of O(stream).  Affects wall time and memory
#: only, never results (``tests/sim/test_stream_window.py`` runs the engines
#: at 1, 3 and 64).
STREAM_WINDOW = 1024

#: The static stream: ``(sa_time, sa_code, sa_slot, se_end)`` — three event
#: columns sorted by ``(time, code)`` and the session ends by session.
StaticStream = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def code_dtype(num_events: int) -> type:
    """Narrowest dtype that numbers ``num_events`` events: int32 while every
    code ``0 .. num_events - 1`` fits, int64 beyond."""
    return np.int32 if num_events < 2**31 else np.int64


def make_static_stream(
    starts: np.ndarray,
    slots: np.ndarray,
    ends: np.ndarray,
    horizon: float,
) -> StaticStream:
    """Build the sorted static event stream.

    Inputs are the sessions *in session-sort order*: session ``i`` starts
    at ``starts[i]`` on slot ``slots[i]`` and ends at ``ends[i]``.  Its
    check-in is event code ``2i``, its checkout (at the end clipped to
    ``horizon``) code ``2i + 1``.  A stable sort of the interleaved event
    times *is* the ``(time, code)`` order, so the codes come out of one
    ``argsort`` with no second key.  Returns ``(sa_time, sa_code, sa_slot,
    se_end)``: event time (float64), code (:func:`code_dtype`) and slot
    (int32) per event in stream order, and ``ends`` itself as the session
    end column, read through ``se_end[code >> 1]``.  They stay arrays for
    the whole run; :meth:`DeviceStream.refill` decodes a window at a time
    for the per-event readers.
    """
    n = len(starts)
    times = np.empty(2 * n, dtype=np.float64)
    times[0::2] = starts
    np.minimum(ends, horizon, out=times[1::2])
    code = np.argsort(times, kind="stable").astype(code_dtype(2 * n))
    sa_time = times[code]
    del times  # before the slot gather: this build sets the run's peak
    sa_slot = np.asarray(slots, dtype=np.int32)[code >> 1]
    return sa_time, code, sa_slot, ends


class DeviceStream:
    """The fleet's device stream: static events and the response heap.

    The stream owns the fleet's event streams — the static
    check-in/checkout columns and the dynamic response heap — while the
    coordinator owns every decision and every counter.
    """

    def __init__(self, stream: StaticStream, seq0: int) -> None:
        #: The static stream: event columns sorted by ``(time, seq)`` and
        #: the session ends (see :func:`make_static_stream`).  Event ``p``
        #: has sequence number ``seq0 + sa_code[p]``.
        self.sa_time, self.sa_code, self.sa_slot, self.se_end = stream
        self.seq0 = seq0
        self.st_len = len(self.sa_time)
        self.cursor = 0
        #: Decoded window: ``w_rows[p - w_lo]`` is event ``p`` as a
        #: ``(time, seq, slot, session_end, is_checkin)`` tuple of Python
        #: values, for ``w_lo <= p < w_hi`` (see :meth:`refill`).
        self.w_rows: List[tuple] = []
        self.w_lo = 0
        self.w_hi = 0
        #: Dynamic (response) min-heap of
        #: ``(time, seq, slot, request_id, success)`` tuples.
        self.heap: List[Tuple[float, int, int, int, bool]] = []

    def __getstate__(self) -> dict:
        # Snapshots carry the columns, never the decoded window: a resumed
        # stream refills at its cursor on first read.
        state = self.__dict__.copy()
        state["w_rows"] = []
        state["w_lo"] = state["w_hi"] = 0
        return state

    # ------------------------------------------------------------------ #
    # Stream interface
    # ------------------------------------------------------------------ #
    def refill(self, p: int) -> Tuple[List[tuple], int, int]:
        """Decode events ``[p, p + STREAM_WINDOW)`` into the window.

        Every per-event reader calls this when the position it needs lies
        outside ``[w_lo, w_hi)``.  Readers consume the stream in cursor
        order, so consecutive refills are at least a window apart and the
        run decodes each event at most once.  Returns the new
        ``(w_rows, w_lo, w_hi)`` for loops that keep them in locals.
        """
        hi = min(p + STREAM_WINDOW, self.st_len)
        code = self.sa_code[p:hi]
        self.w_rows = list(
            zip(
                self.sa_time[p:hi].tolist(),
                np.add(code, self.seq0, dtype=np.int64).tolist(),
                self.sa_slot[p:hi].tolist(),
                self.se_end[code >> 1].tolist(),
                ((code & 1) == 0).tolist(),
            )
        )
        self.w_lo = p
        self.w_hi = hi
        return self.w_rows, p, hi

    def events_through(self, time: float, seq: int) -> int:
        """Stream position just past the last static event whose
        ``(time, seq)`` key is ``<= (time, seq)``: two searches on the time
        column, then one on the codes of the events at ``time`` (codes
        ascend within equal times, and ``seq = seq0 + code``).  A bound
        rarely shares its time with a static event (drains end at
        responses, deadlines and arrivals), so that case stops at one
        search and one read."""
        sa_time = self.sa_time
        lo = int(sa_time.searchsorted(time, "left"))
        if lo == self.st_len or sa_time[lo] != time:
            return lo
        hi = int(sa_time.searchsorted(time, "right"))
        return lo + int(
            self.sa_code[lo:hi].searchsorted(seq - self.seq0, "right")
        )

    def head_key(self) -> Tuple[float, int]:
        """(time, seq) of the stream's next event; :data:`INF_KEY` if done."""
        cursor = self.cursor
        if cursor < self.st_len:
            if not self.w_lo <= cursor < self.w_hi:
                self.refill(cursor)
            static = self.w_rows[cursor - self.w_lo][0:2]
            if self.heap and self.heap[0][0:2] < static:
                return self.heap[0][0:2]
            return static
        if self.heap:
            return self.heap[0][0:2]
        return INF_KEY

    def schedule_response(
        self,
        time: float,
        seq: int,
        slot: int,
        request_id: int,
        success: bool,
    ) -> None:
        """The coordinator assigned a device; its (pre-drawn) response
        fires at ``time``."""
        heapq.heappush(self.heap, (time, seq, slot, request_id, success))


def build_stream(
    device_ids: np.ndarray,
    availability,
    horizon: float,
    seq_start: int,
) -> Tuple[DeviceStream, int]:
    """Build the fleet's device stream.

    ``device_ids`` is the fleet, in any order.  The stream names a device
    by its slot — its rank in ascending id order, as in
    :class:`~repro.sim.vector.VectorDeviceState` — and every id the trace
    mentions must be in the fleet (the engine validates that at
    construction).

    Returns ``(stream, seqs_consumed)`` where ``seqs_consumed`` is the
    number of sequence numbers the static events claimed (the coordinator
    advances its own event counter past them so dynamic events sort after
    same-time static ones exactly as in the single-queue engine).
    """
    starts, ids, ends = availability.checkin_events_arrays()
    # Sorted by start first, so the sessions that begin inside the horizon
    # are a prefix: views, not filtered copies.
    k = int(starts.searchsorted(horizon, "left"))
    slots = np.sort(device_ids).searchsorted(ids[:k]).astype(np.int32)
    del ids  # not alive during the stream build's peak
    # Session i of this order takes sequence numbers seq_start + 2i (its
    # check-in) and seq_start + 2i + 1 (its checkout): the single-queue
    # engine's exact enumeration.
    stream = make_static_stream(starts[:k], slots, ends[:k], horizon)
    return DeviceStream(stream, seq_start), 2 * k


__all__ = [
    "DeviceStream",
    "INF_KEY",
    "STREAM_WINDOW",
    "build_stream",
    "code_dtype",
    "make_static_stream",
]
