"""Span tracer that wraps ``spfc`` from the outside.

``Tracer.install()`` replaces every public function of the traced ``spfc``
modules, and every public method of their classes, with a timing wrapper, in
every ``spfc`` namespace that holds it, so calls made through
``from .module import name`` bindings are traced too.  ``uninstall()`` puts
the originals back.  No file under ``src/`` changes.

Each call opens a span.  When it closes, its duration goes to the per-name
aggregate and to its parent span, so a span's self time is its duration
minus the time its child spans cover.  Two events are counted at the place
they happen and summed up the stack, inclusive of children:

* ``Grid.rfft`` / ``Grid.irfft`` calls, their time, and the bytes of their
  input plus output arrays (computed from array sizes, not measured);
* ``Field`` constructions (each one scans its values for non-finite entries).

Spans are aggregated as they close instead of kept one by one, so a traced
run of 10^5 solves stays small.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import sys
from time import perf_counter

from spfc import grid, harness, model, psd, snapshots, spectral, stepper

TRACED_MODULES = (grid, spectral, model, psd, stepper, harness, snapshots)

# aggregate slots
CALLS, TOTAL, SELF, FFT_N, FFT_S, FFT_BYTES, FIELDS = range(7)
# frame slots (name lives at slot 0)
F_CHILD, F_FFT_N, F_FFT_S, F_FFT_BYTES, F_FIELDS = range(1, 6)


class Tracer:
    def __init__(self, keep_durations: tuple[str, ...] = ()):
        self.keep_durations = keep_durations
        self._patches: list[tuple[object, str, object]] = []
        self._stack: list[list] = []
        self.reset()

    # -- results ---------------------------------------------------------
    def reset(self) -> None:
        self.agg: dict[str, list] = {}
        self.pairs: dict[tuple[str, str], list] = {}
        self.durations: dict[str, list] = {name: [] for name in self.keep_durations}

    def take(self) -> dict:
        """Aggregates since the last reset; resets."""
        out = {"agg": self.agg, "pairs": self.pairs, "durations": self.durations}
        self.reset()
        return out

    # -- recording -------------------------------------------------------
    def _slot(self, name: str) -> list:
        a = self.agg.get(name)
        if a is None:
            a = self.agg[name] = [0, 0.0, 0.0, 0, 0.0, 0, 0]
        return a

    def _close(self, frame: list, dur: float) -> None:
        name = frame[0]
        a = self._slot(name)
        a[CALLS] += 1
        a[TOTAL] += dur
        a[SELF] += dur - frame[F_CHILD]
        a[FFT_N] += frame[F_FFT_N]
        a[FFT_S] += frame[F_FFT_S]
        a[FFT_BYTES] += frame[F_FFT_BYTES]
        a[FIELDS] += frame[F_FIELDS]
        if name in self.durations:
            self.durations[name].append(dur)
        if self._stack:
            parent = self._stack[-1]
            parent[F_CHILD] += dur
            parent[F_FFT_N] += frame[F_FFT_N]
            parent[F_FFT_S] += frame[F_FFT_S]
            parent[F_FFT_BYTES] += frame[F_FFT_BYTES]
            parent[F_FIELDS] += frame[F_FIELDS]
            pair = self.pairs.get((parent[0], name))
            if pair is None:
                pair = self.pairs[(parent[0], name)] = [0.0, 0]
            pair[0] += dur
            pair[1] += frame[F_FFT_N]

    def _leaf(self, name: str, dur: float, slot: int, nbytes: int = 0) -> None:
        """A counted event with no children (an FFT or a Field construction)."""
        a = self._slot(name)
        a[CALLS] += 1
        a[TOTAL] += dur
        a[SELF] += dur
        if self._stack:
            top = self._stack[-1]
            top[F_CHILD] += dur
            top[slot] += 1
            if slot == F_FFT_N:
                top[F_FFT_S] += dur
                top[F_FFT_BYTES] += nbytes

    # -- wrappers ----------------------------------------------------------
    def _span(self, name: str, fn):
        stack = self._stack
        close = self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0, 0, 0.0, 0, 0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                close(frame, dur)

        return traced

    def _fft(self, name: str, fn):
        leaf = self._leaf

        @functools.wraps(fn)
        def traced(self_grid, arr):
            t0 = perf_counter()
            out = fn(self_grid, arr)
            leaf(name, perf_counter() - t0, F_FFT_N, arr.nbytes + out.nbytes)
            return out

        return traced

    def _field(self, name: str, fn):
        leaf = self._leaf

        @functools.wraps(fn)
        def traced(self_field):
            t0 = perf_counter()
            fn(self_field)
            leaf(name, perf_counter() - t0, F_FIELDS)

        return traced

    # -- patching ----------------------------------------------------------
    def _targets(self):
        """(owner, attribute, span name, wrapper factory) for everything traced."""
        for mod in TRACED_MODULES:
            short = mod.__name__.rsplit(".", 1)[-1]
            for name, obj in vars(mod).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    yield mod, name, f"{short}.{name}", self._span
                elif inspect.isclass(obj):
                    yield from self._method_targets(obj, short)

    def _method_targets(self, cls, short: str):
        for attr, val in vars(cls).items():
            if not inspect.isfunction(val):
                continue
            name = f"{short}.{cls.__name__}.{attr}"
            if cls is grid.Grid and attr in ("rfft", "irfft"):
                yield cls, attr, name, self._fft
            elif cls is spectral.Field and attr == "__post_init__":
                yield cls, attr, "spectral.Field", self._field
            elif not attr.startswith("_") or (
                attr == "__init__" and not dataclasses.is_dataclass(cls)
            ):
                yield cls, attr, name, self._span

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        namespaces = [m for n, m in sys.modules.items() if n == "spfc" or n.startswith("spfc.")]
        for owner, attr, name, factory in list(self._targets()):
            original = vars(owner)[attr]
            wrapped = factory(name, original)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapped)
            if inspect.isclass(owner):
                continue
            # rebind copies made by ``from .module import name``
            for ns in namespaces:
                if ns is not owner and vars(ns).get(attr) is original:
                    self._patches.append((ns, attr, original))
                    setattr(ns, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def merge(parts: list[dict]) -> dict:
    """Sum the aggregates of several ``Tracer.take()`` results."""
    out = {"agg": {}, "pairs": {}, "durations": {}}
    for part in parts:
        for key in ("agg", "pairs"):
            for name, vals in part[key].items():
                acc = out[key].setdefault(name, [0] * len(vals))
                out[key][name] = [x + y for x, y in zip(acc, vals)]
        for name, durs in part["durations"].items():
            out["durations"].setdefault(name, []).extend(durs)
    return out

