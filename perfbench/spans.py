"""Span tracing of the library's layer boundaries, installed from outside.

`Tracer.install` replaces each traced function at every module namespace
that binds it (a `from .x import y` copies the name into the caller, so the
defining module alone is not enough) and `IntersectionForm.triple` on its
class, so calls through `cube`, `square_class` and `numerical_dimension` are
seen too.  `uninstall` puts the originals back.

A span is one call: name, start, end, parent span id and the id of the
benchmark input being certified.  A generator gets one span per instance;
only its `next()` calls count as busy time, because the consumer's work
between them belongs to the consumer.  Spans stay in memory until
`write_jsonl`.
"""
from __future__ import annotations

import functools
import importlib
import json
import time

# (layer, defining module, attribute, kind); kind "gen" marks generators.
TRACED = (
    ("cli", "cli", "main", "call"),
    ("cli", "cli", "load_input", "call"),
    ("cli", "cli", "render_json", "call"),
    ("certify", "certify", "certify", "call"),
    ("certify", "certify", "replay", "call"),
    ("exactmath", "exactmath", "iter_kernel_primitives", "gen"),
    ("exactmath", "exactmath", "iter_primitive_vectors", "gen"),
    ("exactmath", "exactmath", "rational_roots", "call"),
    ("cubicfactor", "cubicfactor", "expand_cubic", "call"),
    ("cubicfactor", "cubicfactor", "factor_over_Q", "call"),
    ("quadpoints", "quadpoints", "is_isotropic", "call"),
    ("quadpoints", "quadpoints", "isotropic_vector", "call"),
    ("quadpoints", "quadpoints", "sample_points", "call"),
    ("cubicchase", "cubicchase", "chase", "call"),
    ("cubicchase", "cubicchase", "residual_on_tangent", "call"),
    ("cubicchase", "cubicchase", "ternary_singular_point", "call"),
)
LAYERS = ("cli", "certify", "nsring", "exactmath", "cubicfactor", "quadpoints", "cubicchase")
MODULES = LAYERS + ("",)  # "" is the package itself, which re-exports names


def _module(name: str):
    # `import nullcone.certify as m` would give the re-exported function.
    return importlib.import_module(f"nullcone.{name}" if name else "nullcone")


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "input_id", "busy", "count", "first")

    def __init__(self, sid, name, start, parent, input_id):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.input_id = input_id
        self.busy = 0  # ns the span's own code was running, children included
        self.count = 0  # yields for a generator; chase edges for `chase`
        self.first = None  # ns to a generator's first yield

    def as_dict(self) -> dict:
        return {s: getattr(self, s) for s in self.__slots__}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.input_id = None
        self._stack: list[Span] = []
        self._restore: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].sid if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter_ns(), parent, self.input_id)
        self.spans.append(span)
        return span

    def wrap_call(self, name: str, fn):
        stack = self._stack
        count_edges = name == "cubicchase.chase"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            stack.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                span.end = time.perf_counter_ns()
                span.busy = span.end - span.start
            if count_edges:
                span.count = len(out.edges)
            return out

        return traced

    def wrap_gen(self, name: str, fn):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            inner = fn(*args, **kwargs)
            try:
                while True:
                    stack.append(span)
                    t0 = time.perf_counter_ns()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        t1 = time.perf_counter_ns()
                        stack.pop()
                        span.busy += t1 - t0
                        span.end = t1
                    span.count += 1
                    if span.first is None:
                        span.first = span.busy
                    yield item
            finally:
                inner.close()

        return traced

    def install(self) -> None:
        modules = [_module(m) for m in MODULES]
        for layer, home, attr, kind in TRACED:
            original = getattr(_module(home), attr)
            make = self.wrap_gen if kind == "gen" else self.wrap_call
            wrapped = make(f"{layer}.{attr}", original)
            for mod in modules:
                if mod.__dict__.get(attr) is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, wrapped)
        form_cls = _module("nsring").IntersectionForm
        original = form_cls.__dict__["triple"]
        self._restore.append((form_cls, "triple", original))
        form_cls.triple = self.wrap_call("nsring.triple", original)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.as_dict(), separators=(",", ":")) + "\n")


def self_times(spans) -> list[int]:
    """Each span's busy time minus the busy time of its child spans.

    Children run strictly inside their parent's busy intervals on one
    thread, so their busy times cover disjoint parts of it."""
    out = [s.busy for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.busy
    return out
