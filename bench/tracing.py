"""Span tracing of a package's public functions, installed from outside it.

A Tracer replaces every public function defined in the package's modules
with a timing wrapper, at every name the function is reachable under: its
own module, every package module that imported it with ``from .x import f``
and the package namespace itself.  ``uninstall`` puts the original objects
back.  Nothing is patched until ``install`` runs, so an untraced run executes
the package exactly as shipped.

Each call records a Span (name, start, end, parent).  Times are integer
nanoseconds from ``time.perf_counter_ns``, so self times (a span's duration
minus the durations of its direct children) are exact: never negative and,
over a call tree, summing to the duration of its root.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from contextlib import contextmanager
from typing import Callable, Iterator

# Marker attribute set on every wrapper, so tests can tell wrapped names apart.
TRACED_ATTR = "__bench_traced__"

Probe = Callable[["Span", tuple, dict, object], None]


class Span:
    """One timed call.  ``parent`` indexes Tracer.spans, -1 for a root."""

    __slots__ = ("name", "start", "end", "parent", "error", "attrs")

    def __init__(self, name: str, start: int, parent: int) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.error: str | None = None
        self.attrs: dict | None = None

    @property
    def duration(self) -> int:
        return self.end - self.start


def package_modules(package: types.ModuleType) -> list[types.ModuleType]:
    """The package module and every loaded submodule of it, sorted by name."""
    prefix = package.__name__ + "."
    mods = [m for name, m in sys.modules.items() if m is not None and (name == package.__name__ or name.startswith(prefix))]
    return sorted(mods, key=lambda m: m.__name__)


def public_functions(package: types.ModuleType) -> dict[Callable, str]:
    """Map each public function defined in a package module to "module.name".

    The module part is the submodule name without the package prefix, so
    ``skewbounds.metric.gamma_matrix`` is named ``metric.gamma_matrix``.
    """
    found: dict[Callable, str] = {}
    for mod in package_modules(package):
        short = mod.__name__.rpartition(".")[2] if mod is not package else mod.__name__
        for attr, obj in vars(mod).items():
            if (
                isinstance(obj, types.FunctionType)
                and not attr.startswith("_")
                and obj.__module__ == mod.__name__
                and not getattr(obj, TRACED_ATTR, False)
            ):
                found[obj] = f"{short}.{attr}"
    return found


class Tracer:
    """Records spans for calls into a package while installed.

    probes maps a traced name to a callable run after a successful call with
    (span, args, kwargs, result); it may fill ``span.attrs``.  Probes run
    after the span's end time is taken, so keep them cheap: their cost lands
    in the parent span's self time.
    """

    def __init__(self, package: types.ModuleType, probes: dict[str, Probe] | None = None) -> None:
        self.package = package
        self.probes = dict(probes or {})
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[types.ModuleType, str, object]] = []

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        wrappers = {fn: self._wrap(name, fn) for fn, name in public_functions(self.package).items()}
        for mod in package_modules(self.package):
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def uninstall(self) -> None:
        while self._patches:
            mod, attr, original = self._patches.pop()
            setattr(mod, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def clear(self) -> None:
        if self._stack:
            raise RuntimeError("cannot clear spans while a span is open")
        self.spans = []

    def _open(self, name: str) -> Span:
        span = Span(name, time.perf_counter_ns(), self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """A span opened by the caller, such as one benchmark operation."""
        span = self._open(name)
        try:
            yield span
        except BaseException as exc:
            span.error = type(exc).__name__
            raise
        finally:
            self._close(span)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        probe = self.probes.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                self._close(span)
            if probe is not None:
                probe(span, args, kwargs, result)
            return result

        setattr(traced, TRACED_ATTR, True)
        return traced


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the time its direct children cover, in ns.

    Calls on one thread nest and do not overlap, so the children's cover is
    the sum of their durations.
    """
    child = [0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, child)]
