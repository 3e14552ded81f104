"""Per-layer tracing from outside the program, through ``sys.setprofile``.

A layer is the package directly under ``src/repro/`` that owns a code
object (``sim``, ``vessel``, ``net``, ...).  Code outside ``repro``,
including every C function, belongs to the ``stdlib`` layer; modules at
the top of the package (``repro/__init__.py``) to ``repro``.

The profile hook sees every Python function entry and every C call.  It
keeps, always:

* a call count per code object, summed into ``calls`` per layer;
* ``entries`` per layer: calls whose caller ran in another layer;
* self time per layer, charged at each layer change, so a layer's self
  time is the duration of its spans minus the time its child spans
  cover;
* the number of C calls.

Whenever control passes from one layer into another it opens a span
``(layer, start_ns, end_ns, parent)``, kept in memory (the first
``SPAN_CAP`` of them) and written out by :meth:`LayerTracer.write_spans`
when the run ends.  The hook's own cost is charged to whichever layer
is running, so traced self times overstate layers that make many small
calls; counts are exact.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Dict, List

STDLIB = "stdlib"
TOP = "repro"
#: spans kept in memory; later layer changes are only counted
SPAN_CAP = 100_000


class LayerTracer:
    """Installs a layer-attributing profile hook; see the module doc."""

    def __init__(self, repro_dir: str) -> None:
        if sys.version_info < (3, 11):
            raise RuntimeError("layer tracing needs Python 3.11+ "
                               "(code objects with co_qualname)")
        self.repro_dir = os.path.abspath(repro_dir)
        self.layers: List[str] = [STDLIB, TOP] + sorted(
            entry for entry in os.listdir(self.repro_dir)
            if os.path.isfile(os.path.join(self.repro_dir, entry,
                                           "__init__.py")))
        self._index = {name: i for i, name in enumerate(self.layers)}
        #: code object -> [layer index, calls]
        self.codes: Dict[object, List[int]] = {}
        self.entries = [0] * len(self.layers)
        self.self_ns = [0] * len(self.layers)
        self.c_calls = 0
        self.spans: List[List[int]] = []
        self.spans_dropped = 0

    def layer_of(self, filename: str) -> int:
        prefix = self.repro_dir + os.sep
        if not filename.startswith(prefix):
            return 0
        head = filename[len(prefix):].split(os.sep, 1)[0]
        return self._index.get(head, 1)

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Install the hook; every call from here on is attributed."""
        codes = self.codes
        entries = self.entries
        self_ns = self.self_ns
        spans = self.spans
        layer_of = self.layer_of
        clock = time.perf_counter_ns
        # One saved (layer, span) pair per active frame that changed
        # layer, None for a same-layer frame.  The sentinels absorb the
        # returns of frames that were already active at install time.
        stack: List = [None] * 256
        push = stack.append
        pop = stack.pop
        cur = 0
        top = -1
        room = SPAN_CAP
        last = clock()
        c_count = 0

        def hook(frame, event, arg):
            nonlocal cur, top, room, last, c_count
            if event == "call":
                code = frame.f_code
                rec = codes.get(code)
                if rec is None:
                    rec = codes[code] = [layer_of(code.co_filename), 0]
                rec[1] += 1
                layer = rec[0]
                if layer == cur:
                    push(None)
                    return
            elif event == "c_call":
                c_count += 1
                if cur == 0:
                    push(None)
                    return
                layer = 0
            else:                        # return / c_return / c_exception
                saved = pop()
                if saved is not None:
                    now = clock()
                    self_ns[cur] += now - last
                    last = now
                    if top >= 0:
                        spans[top][2] = now
                    cur, top = saved
                return
            # Control passes into another layer: open a span.
            now = clock()
            self_ns[cur] += now - last
            last = now
            entries[layer] += 1
            push((cur, top))
            if room:
                room -= 1
                spans.append([layer, now, 0, top])
                top = len(spans) - 1
            else:
                top = -1
            cur = layer

        def finish() -> None:
            nonlocal last
            now = clock()
            self_ns[cur] += now - last
            last = now
            self.c_calls = c_count
            self.spans_dropped = sum(entries) - len(spans)

        self._finish = finish
        sys.setprofile(hook)

    def stop(self) -> None:
        sys.setprofile(None)
        self._finish()

    # ------------------------------------------------------------------
    def calls(self) -> List[int]:
        """Python function entries per layer so far."""
        totals = [0] * len(self.layers)
        for layer, count in self.codes.values():
            totals[layer] += count
        return totals

    def snapshot(self) -> Dict[str, List[int]]:
        """Cumulative per-layer counters (for measuring a window)."""
        return {"calls": self.calls(), "entries": list(self.entries)}

    def code_calls(self, qualname: str, filename_suffix: str) -> int:
        """Calls of the function ``qualname`` defined in a file ending
        with ``filename_suffix`` (0 if it never ran)."""
        return sum(count for code, (_, count) in self.codes.items()
                   if code.co_qualname == qualname
                   and code.co_filename.endswith(filename_suffix))

    def write_spans(self, path: str) -> None:
        """Write the kept spans as Chrome trace_event JSON ("X" events,
        one track per layer; ``args.parent`` is the parent span's index)."""
        origin = self.spans[0][1] if self.spans else 0
        events = [{"name": "thread_name", "ph": "M", "pid": 0, "tid": i,
                   "args": {"name": name}} for i, name in
                  enumerate(self.layers)]
        for index, (layer, start, end, parent) in enumerate(self.spans):
            if end == 0:
                continue                      # still open at stop()
            events.append({"name": self.layers[layer], "ph": "X", "pid": 0,
                           "tid": layer, "ts": (start - origin) / 1000.0,
                           "dur": (end - start) / 1000.0,
                           "args": {"id": index, "parent": parent}})
        with open(path, "w") as handle:
            json.dump({"traceEvents": events,
                       "otherData": {"spans_dropped": self.spans_dropped}},
                      handle)
