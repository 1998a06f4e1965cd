"""Per-layer CPU attribution for the benchmark's traced runs.

A ``sys.setprofile`` hook opens a span whenever a Python call crosses
from one ``repro.<layer>`` package into another, and closes it when the
frame that opened it returns.  Code outside the ten measured layers
(the standard library, dataclass-generated methods) stays in the layer
of its caller; the remaining repro packages (``experiments``,
``placement``, ``shard``, ...) and the benchmark itself are one more
bucket, ``other``, so that the self times of all buckets partition the
traced section.

Every span records its layer, start, end, parent span and the id of the
kernel event it ran under: a new event id starts at each call of
``Simulator.step``, the kernel's one-event dispatch, so all spans of
one event share it.  Spans are kept in typed arrays (about 40 bytes
each, up to ``max_spans``) and written out in one file at the end;
per-layer totals are accumulated online and cover every span even when
the store is full.
"""

from __future__ import annotations

import json
import os
import sys
import time
from array import array
from typing import Dict, List, Optional

#: The measured layers: the packages of ``src/repro`` that the service
#: is built from.
LAYERS = (
    "sim",
    "net",
    "gcs",
    "server",
    "client",
    "media",
    "service",
    "telemetry",
    "faulting",
    "workloads",
)

#: Everything else: other repro packages, the benchmark, the top level.
OTHER = "other"

# Marker added to a layer index for the code object of the kernel's
# dispatch function, so the hook can start a new event id without a
# second comparison on every call.
_DISPATCH = 100


class LayerTracer:
    """Attribute a section's time to layers by their boundary crossings."""

    def __init__(self, max_spans: int = 1_000_000) -> None:
        self.names = LAYERS + (OTHER,)
        self.max_spans = max_spans
        self.calls = [0] * len(self.names)
        self.self_ns = [0] * len(self.names)
        self.spans_total = 0
        self.events = 0
        self.elapsed_ns = 0
        # The span store, one typed column per field.
        self.span_id = array("q")
        self.parent = array("q")
        self.layer = array("b")
        self.event = array("q")
        self.start_ns = array("q")
        self.end_ns = array("q")
        self._finish = None

    # ------------------------------------------------------------------
    # Code object -> layer
    # ------------------------------------------------------------------
    def _layer_of(self, filename: str) -> int:
        """Layer index for a source file, or -1 for "caller's layer"."""
        parts = filename.replace(os.sep, "/").split("/")
        try:
            at = len(parts) - 1 - parts[::-1].index("repro")
        except ValueError:
            return -1
        if at == 0 or parts[at - 1] != "src" or at + 1 >= len(parts):
            return -1
        package = parts[at + 1]
        if package in LAYERS:
            return LAYERS.index(package)
        return len(LAYERS)  # a repro module outside the ten layers

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Install the hook; the caller's code becomes the root span."""
        from repro.sim.core import Simulator

        dispatch_code = Simulator.step.__code__
        other = len(LAYERS)
        layer_cache: Dict[object, int] = {}
        layer_of = self._layer_of
        calls = self.calls
        self_ns = self.self_ns
        clock = time.perf_counter_ns
        max_spans = self.max_spans
        col_id, col_parent, col_layer = self.span_id, self.parent, self.layer
        col_event, col_start, col_end = self.event, self.start_ns, self.end_ns

        # The open-span stack as parallel lists; index -1 is the top.
        frames: List[object] = [None]
        layers: List[int] = [other]
        starts: List[int] = [clock()]
        child: List[int] = [0]
        ids: List[int] = [0]
        events: List[int] = [0]
        state = [1, 0]  # next span id, current event id
        calls[other] += 1

        def close_top(now: int) -> None:
            frames.pop()
            layer = layers.pop()
            begin = starts.pop()
            inner = child.pop()
            span = ids.pop()
            opened_in = events.pop()
            duration = now - begin
            self_ns[layer] += duration - inner
            if child:
                child[-1] += duration
            if span < max_spans:
                col_id.append(span)
                col_parent.append(ids[-1] if ids else -1)
                col_layer.append(layer)
                col_event.append(opened_in)
                col_start.append(begin)
                col_end.append(now)

        def hook(frame, event, _arg):
            if event == "call":
                code = frame.f_code
                layer = layer_cache.get(code)
                if layer is None:
                    layer = layer_of(code.co_filename)
                    if code is dispatch_code:
                        layer += _DISPATCH
                    layer_cache[code] = layer
                if layer >= _DISPATCH:
                    state[1] += 1
                    layer -= _DISPATCH
                if layer < 0 or layer == layers[-1]:
                    return
                calls[layer] += 1
                frames.append(frame)
                layers.append(layer)
                starts.append(clock())
                child.append(0)
                ids.append(state[0])
                events.append(state[1])
                state[0] += 1
            elif event == "return" and frame is frames[-1]:
                close_top(clock())

        def finish() -> None:
            now = clock()
            while frames:
                close_top(now)
            self.spans_total = state[0]
            self.events = state[1]

        self._finish = finish
        sys.setprofile(hook)

    def stop(self) -> None:
        """Remove the hook and close every span still open."""
        sys.setprofile(None)
        if self._finish is not None:
            self._finish()
            self._finish = None
        self.elapsed_ns = sum(self.self_ns)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def layer_table(self) -> Dict[str, Dict[str, float]]:
        """``{layer: {calls, self_s, self_share}}`` for every bucket."""
        total = sum(self.self_ns) or 1
        return {
            name: {
                "calls": self.calls[i],
                "self_s": self.self_ns[i] / 1e9,
                "self_share": self.self_ns[i] / total,
            }
            for i, name in enumerate(self.names)
        }

    def write_spans(self, path: str, meta: Optional[dict] = None) -> int:
        """Write the span store to ``path``; returns the bytes written.

        The file is one JSON header line (column names, types, counts)
        followed by the raw columns in header order."""
        columns = [
            ("span_id", self.span_id),
            ("parent", self.parent),
            ("layer", self.layer),
            ("event", self.event),
            ("start_ns", self.start_ns),
            ("end_ns", self.end_ns),
        ]
        header = {
            "layers": list(self.names),
            "spans_kept": len(self.span_id),
            "spans_total": self.spans_total,
            "columns": [[name, col.typecode] for name, col in columns],
            "byteorder": sys.byteorder,
        }
        if meta:
            header["meta"] = meta
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "wb") as handle:
            handle.write(json.dumps(header, sort_keys=True).encode() + b"\n")
            for _, col in columns:
                col.tofile(handle)
            return handle.tell()
