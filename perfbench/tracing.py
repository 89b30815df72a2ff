"""Layer hooks for the traced benchmark run.

A hook replaces a public ``core_picker`` function, or every public method of
a public class, with a timing wrapper.  Hooks are found by name from outside
the package: every module namespace of the package, and every dict held in
one (such as ``cli.GENERATORS``), that refers to the original object gets the
wrapper, so calls made through ``from .games import ...`` bindings are seen
too.  A hook whose name no longer exists is reported as missing, never as a
zero.

Each wrapped call is a span.  Spans nest on one stack; a span's child time is
the part of it covered by hooked calls of other keys, so self time is total
minus child time.  A call made inside a span of the same key (a generator
calling another generator) is part of that span, not a span of its own.
Spans are aggregated per key as they end rather than kept, because a traced
run makes millions of oracle calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

PACKAGE = "core_picker"


class Stat:
    """Aggregate of the spans of one key."""

    __slots__ = ("calls", "total_ns", "child_ns")

    def __init__(self):
        self.calls = 0
        self.total_ns = 0
        self.child_ns = 0

    @property
    def self_ns(self) -> int:
        return self.total_ns - self.child_ns


class Tracer:
    """Installs hooks, aggregates their spans, and removes them again."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.missing: list[str] = []  # "module.name" of hooks not found
        self.missing_keys: set[str] = set()
        self._stack: list[list] = []  # [key, child_ns] per open span
        self._undo: list = []

    def install(self, hooks) -> None:
        """Hook each (key, module, name); names not found go to ``missing``."""
        for key, module_name, name in hooks:
            target = getattr(importlib.import_module(module_name), name, None)
            if inspect.isclass(target):
                methods = [m for m, v in vars(target).items()
                           if not m.startswith("_") and inspect.isfunction(v)]
                for method in methods:
                    self._patch_method(target, method, key)
                found = bool(methods)
            else:
                found = callable(target)
                if found:
                    self._patch_function(target, key)
            if not found:
                self.missing.append(f"{module_name}.{name}")
                self.missing_keys.add(key)

    def remove(self) -> None:
        """Restore every original binding."""
        while self._undo:
            self._undo.pop()()

    def _patch_function(self, original, key: str) -> None:
        hooked = self._wrap(key, original)
        for module_name, module in list(sys.modules.items()):
            if module_name != PACKAGE and not module_name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, hooked)
                    self._undo.append(functools.partial(setattr, module, attr, original))
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is original:
                            value[k] = hooked
                            self._undo.append(functools.partial(value.__setitem__, k, original))

    def _patch_method(self, cls, method: str, key: str) -> None:
        original = vars(cls)[method]
        setattr(cls, method, self._wrap(key, original))
        self._undo.append(functools.partial(setattr, cls, method, original))

    def _wrap(self, key: str, fn):
        stat = self.stats.setdefault(key, Stat())
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            if stack and stack[-1][0] == key:
                return fn(*args, **kwargs)
            frame = [key, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stat.calls += 1
                stat.total_ns += elapsed
                stat.child_ns += frame[1]
                if stack:
                    stack[-1][1] += elapsed

        return hooked
