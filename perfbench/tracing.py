"""Outside-in tracing: spans around the calls into each layer.

The program under test is not changed.  :class:`Tracer` wraps each
layer's public function and rebinds the wrapper at *every* name that
refers to the original in a loaded ``repro`` module, because several
callers bind a function at import time (``from x import f``) and would
miss a wrapper installed only in the defining module.

Spans are kept in memory and written out as JSON lines at the end.
Each thread keeps its own span stack, so a span's parent is the span
open in the same thread; an op span (opened by the benchmark around a
direct op, or around ``ModuleHost._execute`` for a service request)
gives every span beneath it the op's identifier.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path

#: layer -> (module, attribute) of the functions whose calls it times.
#: A dotted attribute names a method on a class.
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "compiler": (("repro.compiler", "compile_and_link"),
                 ("repro.compiler", "compile_to_object")),
    "linker": (("repro.runtime.linker", "dynamic_link"),),
    "link_splice": (("repro.runtime.linker", "translate_image"),),
    "verifier": (("repro.omnivm.verifier", "verify_program"),),
    "translate": (("repro.translators", "translate"),),
    "sfi_verify": (("repro.sfi.verifier", "verify_sfi"),),
    "cache.digest": (("repro.cache", "program_digest"),),
    "cache.probe": (("repro.cache", "TranslationCache.translate_once"),
                    ("repro.cache", "TranslationCache.get")),
    "memory": (("repro.omnivm.memory", "standard_module_memory"),
               ("repro.runtime.linker", "image_memory")),
    "predecode": (("repro.omnivm.threaded", "predecode_program"),
                  ("repro.targets.threaded", "predecode_native")),
    "jit": (("repro.omnivm.jit", "compile_superblock"),
            ("repro.targets.jit", "compile_native_superblock")),
    "execute": (("repro.runtime.loader", "LoadedModule.run"),
                ("repro.runtime.native_loader", "NativeModule.run")),
}

#: Modules imported before wrapping, so lazily imported callers exist
#: when the bindings are rebound.
PRELOAD = (
    "repro", "repro.compiler", "repro.cache", "repro.engine",
    "repro.service", "repro.runtime.linker", "repro.runtime.loader",
    "repro.runtime.native_loader", "repro.omnivm.verifier",
    "repro.omnivm.threaded", "repro.omnivm.jit", "repro.omnivm.memory",
    "repro.sfi.verifier", "repro.targets.threaded", "repro.targets.jit",
    "repro.translators", "repro.workloads.suite",
)

#: Side-table methods whose keys are recorded (not timed).
SIDE_TABLE = ("get_predecoded", "probe_predecoded", "put_predecoded")


class Span:
    __slots__ = ("id", "parent", "layer", "op", "thread", "start", "end",
                 "info")

    def __init__(self, sid, parent, layer, op, thread, start):
        self.id = sid
        self.parent = parent
        self.layer = layer
        self.op = op
        self.thread = thread
        self.start = start
        self.end = start
        self.info = None

    def to_dict(self) -> dict:
        return {"id": self.id, "parent": self.parent, "layer": self.layer,
                "op": self.op, "thread": self.thread,
                "start": self.start, "end": self.end, "info": self.info}


def _resolve(module_name: str, attr: str):
    owner = sys.modules[module_name]
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.side_keys: set = set()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, layer: str, op=None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = Span(next(self._ids), parent.id if parent else None, layer,
                    op if op is not None else (parent.op if parent else None),
                    threading.get_ident(), time.perf_counter())
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    @contextmanager
    def op(self, op_id):
        """One benchmark op (a root span)."""
        span = self._open("op", op_id)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, layer: str, fn, op_of=None, post=None):
        """*fn* timed as a *layer* span.  ``op_of(args)`` names the op
        the span starts (root spans); ``post(span, args, result)``
        annotates the span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(layer, op_of(args) if op_of else None)
            try:
                result = fn(*args, **kwargs)
                if post is not None:
                    post(span, args, result)
                return result
            finally:
                tracer._close(span)

        return traced

    # -- installation ---------------------------------------------------------

    def _rebind(self, original, replacement) -> int:
        """Point every module-level name bound to *original* at
        *replacement*; returns how many names were rebound."""
        count = 0
        for name, module in list(sys.modules.items()):
            if not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, original))
                    count += 1
        return count

    def install(self, extra: dict | None = None) -> dict[str, int]:
        """Wrap every layer function; *extra* maps a layer to
        ``(module, attr, op_of)`` for request-rooted spans.  Returns how
        many bindings each function was rebound at."""
        import importlib

        for name in PRELOAD:
            importlib.import_module(name)
        bound: dict[str, int] = {}
        targets = [(layer, mod, attr, None)
                   for layer, funcs in LAYERS.items() for mod, attr in funcs]
        for layer, (mod, attr, op_of) in (extra or {}).items():
            targets.append((layer, mod, attr, op_of))
        for layer, mod, attr, op_of in targets:
            owner, name = _resolve(mod, attr)
            original = getattr(owner, name)
            wrapped = self.wrap(layer, original, op_of, POSTS.get(attr))
            if isinstance(owner, type):
                setattr(owner, name, wrapped)
                self._undo.append((owner, name, original))
                bound[f"{mod}.{attr}"] = 1
            else:
                bound[f"{mod}.{attr}"] = self._rebind(original, wrapped)
        self._watch_side_table()
        return bound

    def _watch_side_table(self) -> None:
        from repro.cache import TranslationCache

        keys = self.side_keys
        for name in SIDE_TABLE:
            original = getattr(TranslationCache, name)

            def watched(cache, key, *args, _original=original):
                keys.add(key)
                return _original(cache, key, *args)

            setattr(TranslationCache, name, watched)
            self._undo.append((TranslationCache, name, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_dict()) + "\n")


def _note_hit(span: Span, _args, entry) -> None:
    span.info = int(entry is not None)


def _note_reserved(span: Span, _args, memory) -> None:
    span.info = sum(seg.size for seg in memory.segments)


def _note_instret(span: Span, args, _result) -> None:
    module = args[0]
    machine = getattr(module, "machine", None)
    if machine is not None:
        span.info = machine.instret
    else:
        span.info = module.vm.state.instret


#: attribute -> annotation of its spans' ``info``.
POSTS = {
    "TranslationCache.get": _note_hit,
    "standard_module_memory": _note_reserved,
    "image_memory": _note_reserved,
    "LoadedModule.run": _note_instret,
    "NativeModule.run": _note_instret,
}


# -- analysis -----------------------------------------------------------------


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> self seconds (duration minus direct children, which
    in one thread never overlap each other)."""
    covered: dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            covered[span.parent] = (covered.get(span.parent, 0.0)
                                    + span.end - span.start)
    return {s.id: (s.end - s.start) - covered.get(s.id, 0.0) for s in spans}


def layer_summary(spans: list[Span], since: float,
                  setup_layers=("compiler",)) -> dict[str, dict[str, float]]:
    """Per layer: call count, self milliseconds, summed info, over the
    spans started at or after *since* (the measured phase); the
    *setup_layers* are summed over the whole process."""
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for span in spans:
        if span.start < since and span.layer not in setup_layers:
            continue
        row = out.setdefault(span.layer,
                             {"calls": 0, "self_ms": 0.0, "info": 0})
        row["calls"] += 1
        row["self_ms"] += selfs[span.id] * 1000.0
        if span.info is not None:
            row["info"] += span.info
    return out


def unattributed_pct(spans: list[Span], since: float) -> float:
    """Share of the measured ops' wall time covered by no layer span."""
    selfs = self_times(spans)
    ops = [s for s in spans if s.layer == "op" and s.start >= since]
    total = sum(s.end - s.start for s in ops)
    if not total:
        return 0.0
    return 100.0 * sum(selfs[s.id] for s in ops) / total
