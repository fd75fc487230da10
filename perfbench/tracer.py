"""Outside-in span tracer: wraps layers' public functions from here.

Nothing under ``src/`` knows about it.  :meth:`Tracer.wrap` replaces a
function with a wrapper that records one span per call — name, start,
end, parent span and query id — into a per-thread buffer of flat arrays
(about 40 bytes per span, so a million spans stay small), and keeps each
span name's call count and *self time*: the span's duration minus the
time its same-thread child spans cover.  :meth:`Tracer.close` restores
the originals; :meth:`Tracer.write` dumps the spans when the run ends.

Spans on a thread started inside a span (Whirlpool-M's server threads)
point at that span as their parent and inherit its query id, but their
time is not subtracted from it: they run beside it, not inside it.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from array import array
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

NO_ID = -1


class _Buffer:
    """One thread's spans plus its per-name aggregates."""

    def __init__(self, thread_no: int, query_id: int, root_parent: int) -> None:
        self.thread_no = thread_no
        self.query_id = query_id
        self.root_parent = root_parent
        self.names = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.query_ids = array("q")
        self.stack: List[List[float]] = []  # [index, start, child_time]
        self.calls: Dict[int, int] = {}
        self.self_s: Dict[int, float] = {}
        self.counts: Dict[str, float] = {}
        self.samples: Dict[str, List[float]] = {}

    def current(self) -> int:
        """Id of the innermost open span (or the inherited parent)."""
        if self.stack:
            return (self.thread_no << 32) | int(self.stack[-1][0])
        return self.root_parent


class Tracer:
    """Records spans, counters and samples while installed."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._local = threading.local()
        self._buffers: List[_Buffer] = []
        self._lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any]] = []
        #: Query id for threads that were given none (closed loops set it
        #: before each query).
        self.query_id = NO_ID

    # -- recording ---------------------------------------------------------------

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            context = getattr(threading.current_thread(), "_perfbench_context", None)
            query_id, parent = context if context is not None else (NO_ID, NO_ID)
            with self._lock:
                buf = _Buffer(len(self._buffers), query_id, parent)
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def set_thread_query(self, query_id: int) -> None:
        self._buffer().query_id = query_id

    def add(self, counter: str, value: float = 1.0) -> None:
        counts = self._buffer().counts
        counts[counter] = counts.get(counter, 0.0) + value

    def sample(self, name: str, value: float) -> None:
        self._buffer().samples.setdefault(name, []).append(value)

    def _name_id(self, name: str) -> int:
        with self._lock:
            if name not in self._name_ids:
                self._name_ids[name] = len(self.names)
                self.names.append(name)
            return self._name_ids[name]

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        before: Optional[Callable[[tuple, dict], None]] = None,
        after: Optional[Callable[[tuple, dict, Any], None]] = None,
        name_of: Optional[Callable[[tuple, dict], str]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``before(args, kwargs)`` and ``after(args, kwargs, result)`` run
        outside the span; their time is also taken out of the enclosing
        span's self time, so hooks charge no layer.  ``name_of`` picks a
        span name per call (e.g. by RPC op) instead of ``name``.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        fixed_id = self._name_id(name)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            buf = tracer._buffer()
            stack = buf.stack
            if before is not None:
                hook_start = clock()
                before(args, kwargs)
                if stack:
                    stack[-1][2] += clock() - hook_start
            name_id = fixed_id if name_of is None else tracer._name_id(name_of(args, kwargs))
            index = len(buf.names)
            buf.names.append(name_id)
            buf.parents.append(buf.current())
            buf.query_ids.append(buf.query_id if buf.query_id != NO_ID else tracer.query_id)
            buf.ends.append(0.0)
            frame = [index, clock(), 0.0]
            buf.starts.append(frame[1])
            stack.append(frame)
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                buf.ends[index] = end
                duration = end - frame[1]
                buf.self_s[name_id] = buf.self_s.get(name_id, 0.0) + duration - frame[2]
                buf.calls[name_id] = buf.calls.get(name_id, 0) + 1
                if stack:
                    stack[-1][2] += duration
            if after is not None:
                after(args, kwargs, result)
                if stack:
                    stack[-1][2] += clock() - end
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def link_threads(self) -> None:
        """Threads started inside a span inherit its id and query id."""
        original = threading.Thread.start
        tracer = self

        def start(thread: threading.Thread) -> None:
            buf = tracer._buffer()
            query_id = buf.query_id if buf.query_id != NO_ID else tracer.query_id
            thread._perfbench_context = (query_id, buf.current())  # type: ignore[attr-defined]
            original(thread)

        self._patches.append((threading.Thread, "start", original))
        threading.Thread.start = start  # type: ignore[method-assign]

    def close(self) -> None:
        """Restore every wrapped function."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------------

    def calls(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            return 0
        return sum(b.calls.get(name_id, 0) for b in self._buffers)

    def self_seconds(self, name: str) -> float:
        name_id = self._name_ids.get(name)
        if name_id is None:
            return 0.0
        return sum(b.self_s.get(name_id, 0.0) for b in self._buffers)

    def count(self, counter: str) -> float:
        return sum(b.counts.get(counter, 0.0) for b in self._buffers)

    def samples(self, name: str) -> List[float]:
        return [value for b in self._buffers for value in b.samples.get(name, ())]

    def spans(self, name: str) -> Iterator[Tuple[float, Optional[str]]]:
        """(duration, parent span name) of every span called ``name``."""
        name_id = self._name_ids.get(name)
        if name_id is None or not self.calls(name):
            return
        by_thread = {b.thread_no: b for b in self._buffers}
        for buf in self._buffers:
            for index, span_name in enumerate(buf.names):
                if span_name != name_id:
                    continue
                parent = buf.parents[index]
                parent_name = None
                if parent != NO_ID:
                    owner = by_thread[parent >> 32]
                    parent_name = self.names[owner.names[parent & 0xFFFFFFFF]]
                yield buf.ends[index] - buf.starts[index], parent_name

    def span_count(self) -> int:
        return sum(len(b.names) for b in self._buffers)

    def write(self, directory: str, stem: str) -> str:
        """Dump every span: ``<stem>.json`` describes the layout,
        ``<stem>.bin`` holds, per thread, the raw arrays in the order
        names (u16), starts (f64), ends (f64), parents (i64), query ids
        (i64).  Span ids are ``thread_no << 32 | index``, -1 for none;
        times are ``time.perf_counter`` seconds."""
        os.makedirs(directory, exist_ok=True)
        threads = []
        with open(os.path.join(directory, stem + ".bin"), "wb") as out:
            for buf in self._buffers:
                threads.append({"thread_no": buf.thread_no, "spans": len(buf.names)})
                for column in (buf.names, buf.starts, buf.ends, buf.parents, buf.query_ids):
                    column.tofile(out)
        layout = {
            "names": self.names,
            "columns": ["name:u16", "start:f64", "end:f64", "parent:i64", "query_id:i64"],
            "threads": threads,
        }
        path = os.path.join(directory, stem + ".json")
        with open(path, "w") as out:
            json.dump(layout, out)
        return path
