"""Spans recorded around calls into the library, and the arithmetic on them.

The tracer wraps module attributes of ``ising_lab`` from outside the
program: every module that looks a function up by name (including names
imported with ``from .x import y``) gets the wrapper, so calls between
modules and calls inside one module are both caught.  A span records its
name, layer, parent span, thread and start/end times; per-call counters
are added where the work happens.

Self time of a span is its duration minus the part of its interval that
its direct child spans cover (the union, so threaded children that run
side by side are counted once).
"""
from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    layer: str
    parent: int | None
    thread: int
    start: float
    end: float = 0.0


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, each clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the union of its direct children."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - union_length(children[s.id], s.start, s.end)
        for s in spans
    }


class Tracer:
    """In-memory span recorder with one span stack per thread.

    ``package`` names the modules whose attributes ``replace`` rebinds.
    """

    def __init__(self, package: str = "ising_lab"):
        self.package = package
        self.spans: list[Span] = []
        self.counters = defaultdict(float)
        self.absent: set[str] = set()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._undo = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, layer: str, parent: Span | None = None) -> Span:
        """Open a span; its parent is the thread's current span unless given."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        span = Span(
            id=next(self._ids), name=name, layer=layer,
            parent=parent.id if parent is not None else None,
            thread=threading.get_ident(), start=time.perf_counter(),
        )
        stack.append(span)
        return span

    def end(self, span: Span):
        span.end = time.perf_counter()
        self._stack().pop()
        with self._lock:
            self.spans.append(span)

    def count(self, key: str, amount: float):
        with self._lock:
            self.counters[key] += amount

    # -- installing wrappers ------------------------------------------------

    def wrap(self, module, attr: str, name: str, counter=None):
        """Wrap ``module.attr`` everywhere in the package it is looked up.

        ``counter = (key, amount)`` adds ``amount(arguments, result)`` to
        counter ``key`` after each call.  A missing attribute, or a counter
        whose arguments no longer match, is recorded in ``absent`` instead
        of raising, so metrics built on it can be reported as absent.
        """
        orig = getattr(module, attr, None)
        if orig is None:
            self.absent.add(name)
            return None
        layer = name.split(".", 1)[0]
        sig = inspect.signature(orig) if counter is not None else None

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            span = self.begin(name, layer)
            try:
                result = orig(*args, **kwargs)
            finally:
                self.end(span)
            if counter is not None:
                key, amount = counter
                try:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    self.count(key, amount(bound.arguments, result))
                except (KeyError, AttributeError, TypeError):
                    self.absent.add(key)
            return result

        self.replace(orig, wrapper)
        return orig

    def wrap_map(self, module, attr: str, name: str):
        """Wrap an order-preserving ``map(fn, items)`` that may use threads.

        Each item runs in its own ``parallel.item`` span whose parent is
        named explicitly, because worker threads start with empty stacks.
        """
        orig = getattr(module, attr, None)
        if orig is None:
            self.absent.add(name)
            return None
        layer = name.split(".", 1)[0]

        @functools.wraps(orig)
        def wrapper(fn, items):
            items = list(items)
            span = self.begin(name, layer)

            def item(x):
                inner = self.begin(f"{layer}.item", layer, parent=span)
                try:
                    return fn(x)
                finally:
                    self.end(inner)

            try:
                return orig(item, items)
            finally:
                self.end(span)
                self.count(f"{name}.items", len(items))

        self.replace(orig, wrapper)
        return orig

    def replace(self, orig, wrapper):
        """Point every attribute of the package's modules bound to orig at wrapper."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or modname.split(".", 1)[0] != self.package:
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, orig))

    def unwrap(self):
        for mod, key, orig in reversed(self._undo):
            setattr(mod, key, orig)
        self._undo.clear()
