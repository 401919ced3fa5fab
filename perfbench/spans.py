"""In-memory span recorder and the patching that wraps netsample's layers.

A span is one wrapped call: name, start, end and the span that was open when
it started. Spans live in flat arrays while the run goes on and are written
out once, at the end. A span's self time is its duration minus the part of
that interval its child spans cover.

Wrappers are installed at the names callers look up: every attribute of a
loaded ``netsample`` module that holds the original function, every entry of
the ``SAMPLERS`` and ``MEASURES`` registries that holds it, and class
attributes for methods. ``Patcher.restore`` puts every original back and
``Patcher.unrestored`` lists any name that does not hold it again.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

clock = time.perf_counter


class Tracer:
    """Spans plus counters recorded at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.check_failures: list[str] = []

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._intern(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(clock())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = clock()
        self._stack.pop()

    def add(self, key: str, value: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def peak(self, key: str, value: float) -> None:
        if value > self.counters.get(key, 0):
            self.counters[key] = value

    def fail(self, message: str) -> None:
        self.check_failures.append(message)

    def span(self, name: str, fn, *args, **kwargs):
        idx = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    def mark(self) -> int:
        """Position to pass to ``summary`` for the spans recorded after now."""
        return len(self.start)

    def summary(self, since: int = 0) -> dict[str, dict[str, float]]:
        """Per span name: call count, inclusive seconds and self seconds."""
        names = np.frombuffer(self.name_id, dtype=np.int32)[since:]
        parents = np.frombuffer(self.parent, dtype=np.int32)[since:] - since
        start = np.frombuffer(self.start, dtype=np.float64)[since:]
        end = np.frombuffer(self.end, dtype=np.float64)[since:]
        self_s = self_times(start, end, parents)
        out: dict[str, dict[str, float]] = {}
        dur = end - start
        for nid in np.unique(names):
            sel = names == nid
            out[self.names[nid]] = {
                "calls": int(sel.sum()),
                "s": float(dur[sel].sum()),
                "self_s": float(self_s[sel].sum()),
            }
        return out

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def self_times(start, end, parent) -> np.ndarray:
    """Duration of each span minus the union of its children's intervals.

    A parent index below 0 marks a root. Child intervals are clipped to the
    parent's interval before they are merged.
    """
    start = np.asarray(start, dtype=np.float64)
    end = np.asarray(end, dtype=np.float64)
    parent = np.asarray(parent)
    out = end - start
    children: dict[int, list[int]] = {}
    for i in np.flatnonzero(parent >= 0):
        children.setdefault(int(parent[i]), []).append(int(i))
    for p, kids in children.items():
        lo_p, hi_p = start[p], end[p]
        covered = 0.0
        run_lo = run_hi = None
        for k in sorted(kids, key=lambda k: start[k]):
            lo, hi = max(start[k], lo_p), min(end[k], hi_p)
            if hi <= lo:
                continue
            if run_hi is None or lo > run_hi:
                if run_hi is not None:
                    covered += run_hi - run_lo
                run_lo, run_hi = lo, hi
            else:
                run_hi = max(run_hi, hi)
        if run_hi is not None:
            covered += run_hi - run_lo
        out[p] -= covered
    return out


class Patcher:
    """Installs wrappers at every lookup name and puts the originals back."""

    def __init__(self, registries=()):
        self._registries = list(registries)
        self._undo: list[tuple] = []  # (container, key, original, is_dict)

    def _modules(self):
        return [
            m
            for name, m in sorted(sys.modules.items())
            if m is not None and (name == "netsample" or name.startswith("netsample."))
        ]

    def function(self, original, wrapper) -> int:
        """Replace ``original`` wherever a module or registry holds it."""
        hits = 0
        for mod in self._modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, original, False))
                    setattr(mod, key, wrapper)
                    hits += 1
        for reg in self._registries:
            for key, value in list(reg.items()):
                if value is original:
                    self._undo.append((reg, key, original, True))
                    reg[key] = wrapper
                    hits += 1
        if not hits:
            raise LookupError(f"{original!r} is not referenced by any netsample module")
        return hits

    def method(self, cls, name: str, wrapper) -> None:
        self._undo.append((cls, name, cls.__dict__[name], False))
        setattr(cls, name, wrapper)

    def restore(self) -> None:
        for container, key, original, is_dict in reversed(self._undo):
            if is_dict:
                container[key] = original
            else:
                setattr(container, key, original)

    def unrestored(self) -> list[str]:
        bad = []
        for container, key, original, is_dict in self._undo:
            current = container[key] if is_dict else vars(container)[key]
            if current is not original:
                where = "registry" if is_dict else container.__name__
                bad.append(f"{where}.{key}")
        return bad


def spanned(tracer: Tracer, name: str, fn, after=None):
    """Wrap ``fn`` in a span; ``after(result, args, kwargs)`` runs outside it."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after is not None:
            after(result, args, kwargs)
        return result

    return wrapper


def counted(tracer: Tracer, count_key: str, time_key: str, fn):
    """Count and time ``fn`` without a span, for calls made millions of times.

    The time stays inside the enclosing span's self time.
    """
    counters = tracer.counters

    @functools.wraps(fn)
    def wrapper(*args):
        t0 = clock()
        result = fn(*args)
        counters[time_key] = counters.get(time_key, 0.0) + (clock() - t0)
        counters[count_key] = counters.get(count_key, 0) + 1
        return result

    return wrapper


def selftest_self_times() -> list[str]:
    """Check ``self_times`` on hand-built nested spans; returns failures."""
    # root [0,10]: children a [1,4] (with grandchild [2,3]) and b [5,9];
    # c [8,12] overlaps b and sticks out of root, so only [9,10] is new.
    start = [0.0, 1.0, 2.0, 5.0, 8.0, 20.0]
    end = [10.0, 4.0, 3.0, 9.0, 12.0, 21.0]
    parent = [-1, 0, 1, 0, 0, -1]
    want = [10.0 - 3.0 - 4.0 - 1.0, 3.0 - 1.0, 1.0, 4.0, 4.0, 1.0]
    got = self_times(start, end, parent)
    failures = []
    for i, (g, w) in enumerate(zip(got, want)):
        if abs(g - w) > 1e-12:
            failures.append(f"self time of span {i}: {g} != {w}")
    t = Tracer()
    outer = t.open("outer")
    inner = t.open("inner")
    t.close(inner)
    t.close(outer)
    s = t.summary()
    if s["outer"]["calls"] != 1 or s["inner"]["self_s"] != s["inner"]["s"]:
        failures.append(f"tracer summary wrong: {s}")
    if abs(s["outer"]["self_s"] - (s["outer"]["s"] - s["inner"]["s"])) > 1e-12:
        failures.append(f"outer self time wrong: {s}")
    return failures
