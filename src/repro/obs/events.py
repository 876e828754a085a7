"""Typed observability events and bounded sinks.

Every event the recorder emits is one :class:`ObsEvent` — a flat record
(cycle, kind, seq, pc, detail) cheap enough to produce per pipeline event
and trivially serializable.  Two sinks are provided: the in-memory
:class:`EventRing` (keeps the most recent N events; the default for the
profile CLI and the service's ``trace=true`` path) and :class:`JsonlSink`
(append-only file, one JSON object per line, for offline analysis).
"""

import json
from collections import deque
from typing import IO, Deque, List, NamedTuple, Optional

#: Every event kind the observer slot (``Processor.tracer``) receives and
#: the recorder emits.  The first eight mirror the pipeline tracer's
#: mnemonics one-to-one; the rest are scheme-level events (YLA
#: classification, checking-window and checking-table activity).
EVENT_KINDS = (
    # pipeline stage events (from the kernel)
    "fetch", "dispatch", "issue", "reject", "complete", "commit", "squash",
    # replay: the kernel passes its detection site, the recorder emits
    # cause detail "<site>:<verdict>"
    "replay",
    # scheme events (from the scheme, through the same slot)
    "store_safe", "store_unsafe",
    "window_open", "window_close",
    "table_mark", "table_probe",
)


class ObsEvent(NamedTuple):
    """One observability event.

    ``detail`` carries kind-specific context: the replay cause
    (``"commit:true"``, ``"execution:false"``, ``"coherence:coherence"``),
    the probe outcome (``"hit"``/``"miss"``), or window-close totals.
    """

    cycle: int
    kind: str
    seq: int
    pc: int
    detail: str

    def to_dict(self) -> dict:
        return {"cycle": self.cycle, "kind": self.kind, "seq": self.seq,
                "pc": self.pc, "detail": self.detail}


class EventRing:
    """Bounded in-memory sink keeping the most recent ``capacity`` events."""

    def __init__(self, capacity: int = 4096):
        self.capacity = capacity
        # maxlen=0 is a valid deque bound: capacity 0 counts events but
        # retains none (never unbounded).
        self._events: Deque[ObsEvent] = deque(maxlen=max(0, capacity))
        self.appended = 0

    def append(self, event: ObsEvent) -> None:
        self._events.append(event)
        self.appended += 1

    def events(self) -> List[ObsEvent]:
        """Retained events, oldest first."""
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)

    @property
    def dropped(self) -> int:
        """Events appended but no longer retained."""
        return self.appended - len(self._events)


class JsonlSink:
    """Append-only JSONL event writer (one JSON object per line)."""

    def __init__(self, path: str):
        self.path = path
        self._fh: Optional[IO[str]] = open(path, "w")
        self.appended = 0

    def append(self, event: ObsEvent) -> None:
        if self._fh is None:
            return
        json.dump(event.to_dict(), self._fh, sort_keys=True)
        self._fh.write("\n")
        self.appended += 1

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
