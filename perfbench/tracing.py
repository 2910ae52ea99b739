"""Span recorder and layer wrappers for the traced benchmark run.

The benchmark measures each layer of :mod:`repro` from the outside: in the
traced run only, :func:`install` replaces a handful of public functions and
methods of the ``src/repro`` packages with thin wrappers that record one
span per call.  A span is ``(name, start, end, span_id, parent_id,
request_id)``; spans live in memory and are written out when the run ends.
Untraced runs never call :func:`install`, so they execute the program
unmodified.

Service shard workers are forked from the traced server process, so they
inherit the wrappers.  A forked child starts with an empty span list and
writes its spans to ``<out_dir>/spans-<pid>.json`` when it exits; the
benchmark folds those files into the per-layer table with
:func:`load_spans` and :func:`layer_table`.

A span's *self time* is its duration minus the durations of its direct
children; spans of one thread nest, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import multiprocessing.util
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

#: (span name, module, attribute path) of every wrapped layer entry point.
#: ``partition.solve`` spans are renamed per resolved backend (``.python`` /
#: ``.vector``) because ``backend="auto"`` switches at the dispatch threshold.
LAYER_TARGETS = (
    ("core.lts_from_fsp", "repro.core.lts", "LTS.from_fsp"),
    ("core.saturate", "repro.core.weak", "saturate_lts"),
    ("partition.solve", "repro.partition.generalized", "solve"),
    ("equivalence.quotient", "repro.equivalence.minimize", "quotient"),
    ("equivalence.witness", "repro.equivalence.hml", "distinguishing_formula"),
    ("equivalence.failure", "repro.equivalence.failure", "failure_distinguishing_string"),
    ("automata.language_dfa", "repro.equivalence.language", "language_dfa"),
    ("engine.check", "repro.engine.engine", "Engine.check"),
    ("explore.check_implicit", "repro.explore.onthefly", "check_implicit"),
    ("explore.find_stuck", "repro.protocols.check", "find_stuck"),
    ("explore.reduce_successors", "repro.explore.reduce", "ConfluenceReducer.successors"),
    ("protocols.instantiate", "repro.protocols.model", "ProtocolSpec.instantiate"),
)

#: Modules imported before wrapping, so every ``from x import f`` copy of a
#: wrapped function already exists and is replaced too.
PRELOAD = (
    "repro",
    "repro.engine.process",
    "repro.engine.notions",
    "repro.equivalence.observational",
    "repro.equivalence.strong",
    "repro.explore",
    "repro.protocols",
    "repro.service.shards",
)


class Tracer:
    """In-memory span recorder (one per process; reset in forked children)."""

    def __init__(self, out_dir: str | Path | None = None) -> None:
        self.out_dir = Path(out_dir) if out_dir is not None else None
        self.spans: list[tuple] = []
        self.request_id: object = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._pid = os.getpid()
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)

    # -- recording ------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def enter(self) -> tuple:
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        request = self.request_id
        if request is None:
            request = f"{self._pid}-{span_id}" if parent is None else self._local.request
        if parent is None:
            self._local.request = request
        stack.append(span_id)
        return span_id, parent, request, time.perf_counter()

    def exit(self, token: tuple, name: str) -> None:
        end = time.perf_counter()
        span_id, parent, request, start = token
        self._stack().pop()
        self.spans.append((name, start, end, span_id, parent, request))

    def record(self, name: str, start: float, end: float, request: object = None) -> None:
        """Record a span measured elsewhere (e.g. a client-side round trip)."""
        self.spans.append((name, start, end, next(self._ids), None, request))

    # -- fork handling and output --------------------------------------
    def _after_fork(self) -> None:
        self.spans = []
        self.request_id = None
        self._local = threading.local()
        self._pid = os.getpid()
        if self.out_dir is not None:
            multiprocessing.util.Finalize(None, self.flush, exitpriority=100)

    def flush(self) -> Path | None:
        """Write this process's spans to ``<out_dir>/spans-<pid>.json``."""
        if self.out_dir is None:
            return None
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.spans))
        os.replace(tmp, path)
        return path


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------
def _solve_name(args, kwargs) -> str:
    from repro.partition.generalized import resolve_backend

    instance = args[0] if args else kwargs["instance"]
    backend = kwargs.get("backend", args[2] if len(args) > 2 else "python")
    return "partition.solve." + resolve_backend(backend, len(instance.elements))


_DYNAMIC_NAMES = {"partition.solve": _solve_name}


def _traced(tracer: Tracer, name: str, fn):
    namer = _DYNAMIC_NAMES.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        token = tracer.enter()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit(token, namer(args, kwargs) if namer else name)

    return traced


class Installation:
    """The patches applied by :func:`install`; :meth:`remove` undoes them."""

    def __init__(self) -> None:
        self._patches: list[tuple[object, str, object]] = []

    def patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def install(tracer: Tracer) -> Installation:
    """Wrap every layer entry point of :data:`LAYER_TARGETS` for ``tracer``."""
    for module in PRELOAD:
        importlib.import_module(module)
    installation = Installation()
    for name, module_name, path in LAYER_TARGETS:
        module = importlib.import_module(module_name)
        if "." in path:
            class_name, attr = path.split(".")
            owner = getattr(module, class_name)
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(_traced(tracer, name, original.__func__))
            else:
                wrapped = _traced(tracer, name, original)
            installation.patch(owner, attr, wrapped)
            continue
        original = getattr(module, path)
        wrapped = _traced(tracer, name, original)
        # Replace every module-level alias (``from x import f`` copies).
        for loaded_name, loaded in list(sys.modules.items()):
            if not loaded_name.startswith("repro") or loaded is None:
                continue
            for attr, value in list(vars(loaded).items()):
                if value is original:
                    installation.patch(loaded, attr, wrapped)
    return installation


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------
def load_spans(out_dir: str | Path) -> list[list[tuple]]:
    """The span lists written by every traced process under ``out_dir``."""
    groups = []
    for path in sorted(Path(out_dir).glob("spans-*.json")):
        groups.append([tuple(span) for span in json.loads(path.read_text())])
    return groups


def layer_table(span_groups, window=(float("-inf"), float("inf"))) -> dict:
    """Per span name: summed self time (s), summed duration (s) and count.

    Each group holds the spans of one process (span ids are per process;
    perf_counter is the system-wide monotonic clock, so windows compare
    across processes).  Only spans starting inside ``window`` count.
    """
    low, high = window
    table: dict[str, dict[str, float]] = defaultdict(
        lambda: {"self_s": 0.0, "total_s": 0.0, "count": 0}
    )
    for spans in span_groups:
        child_time: dict[int, float] = defaultdict(float)
        for _name, start, end, _span_id, parent, _request in spans:
            if parent is not None:
                child_time[parent] += end - start
        for name, start, end, span_id, _parent, _request in spans:
            if not low <= start < high:
                continue
            row = table[name]
            row["total_s"] += end - start
            row["self_s"] += (end - start) - child_time.get(span_id, 0.0)
            row["count"] += 1
    return dict(table)
