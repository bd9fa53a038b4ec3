"""Outside-in span tracer for the ``lmss`` package.

The package's modules import each other's functions by name (``from
.stability import alpha``), so wrapping one module attribute would miss
most calls.  :func:`install` therefore replaces every binding of each
original function object in every ``lmss`` namespace, wraps the ``check``
of every ``theorems.RULES`` entry, and remembers what it replaced so that
:meth:`Installation.uninstall` can put every original back.

Spans are kept in flat arrays (name id, parent index, start, end) while the
traced pass runs and are written out only when it ends.
"""

from __future__ import annotations

import array
import dataclasses
import functools
import inspect
import json
import sys
import time
import types
from pathlib import Path

# the layers named in the benchmark's per-layer table
MODULES = (
    "corpus", "stability", "matching", "classifiers", "greedoid",
    "theorems", "report", "graphs", "cli",
)

# Per function, what to collect from each call; the number of distinct values
# collected is a count of useful outcomes, for a ratio to the calls made.
# canonical_key keys can coincide across vertex counts, so a class is (n, key).
DISTINCT = {"corpus.canonical_key": lambda args, out: (args[0].n, out)}


class Tracer:
    """Records one span per call of every wrapped function."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.distinct: dict[str, set] = {name: set() for name in DISTINCT}
        self._stack: list[int] = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        """Return a wrapper of ``fn`` that records a span named ``name``."""
        nid = self._intern(name)
        clock, stack = time.perf_counter, self._stack
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        seen = self.distinct.get(name)
        value_of = DISTINCT.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_of)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()
            if seen is not None:
                seen.add(value_of(args, out))
            return out

        return traced

    def self_times(self) -> dict[str, tuple[int, float]]:
        return self_times([self.names[i] for i in self.name_of],
                          self.parent, self.start, self.end)

    def write(self, path: Path) -> None:
        """Write a JSON header line, then the four arrays as raw bytes."""
        header = {
            "names": self.names,
            "count": len(self.name_of),
            "arrays": ["name:int32", "parent:int32", "start:float64", "end:float64"],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_of, self.parent, self.start, self.end):
                arr.tofile(fh)


def read_spans(path: Path) -> tuple[list[str], array.array, array.array, array.array]:
    """Read a file written by :meth:`Tracer.write` back as (span names,
    parents, starts, ends), one entry per span in call order."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        count = header["count"]
        arrays = []
        for code in ("i", "i", "d", "d"):
            arr = array.array(code)
            arr.fromfile(fh, count)
            arrays.append(arr)
    names = header["names"]
    return [names[i] for i in arrays[0]], arrays[1], arrays[2], arrays[3]


def self_times(names, parent, start, end) -> dict[str, tuple[int, float]]:
    """Per span name: (calls, self seconds), from one entry per span.

    A span's self time is its duration minus the part of its interval that
    its direct children cover; overlapping children count once, and a child
    reaching outside its parent counts only inside it.
    """
    count = len(names)
    covered = array.array("d", bytes(8 * count))
    cover_end = array.array("d", [float("-inf")]) * count
    order = range(count)
    if any(a > b for a, b in zip(start, start[1:])):
        order = sorted(order, key=start.__getitem__)
    for idx in order:
        p = parent[idx]
        if p < 0:
            continue
        lo = max(start[idx], start[p], cover_end[p])
        hi = min(end[idx], end[p])
        if hi > lo:
            covered[p] += hi - lo
            cover_end[p] = hi
    out: dict[str, tuple[int, float]] = {}
    for idx in range(count):
        calls, busy = out.get(names[idx], (0, 0.0))
        out[names[idx]] = (calls + 1, busy + end[idx] - start[idx] - covered[idx])
    return out


def _public_functions(module: types.ModuleType, short: str):
    for attr, obj in vars(module).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(obj) or not callable(obj):
            continue
        # A generator's span would cover only its creation, not its work.
        if inspect.isgeneratorfunction(inspect.unwrap(obj)):
            continue
        yield f"{short}.{attr}", obj


@dataclasses.dataclass
class Installation:
    """What :func:`install` replaced, so that it can be put back."""

    bindings: list[tuple[types.ModuleType, str, object]]
    rules: dict[str, object]

    def uninstall(self) -> None:
        for module, attr, original in reversed(self.bindings):
            setattr(module, attr, original)
        restore_rules(self.rules)
        self.bindings.clear()
        self.rules.clear()


def wrap_rules(make_wrapper) -> dict[str, object]:
    """Replace each ``theorems.RULES`` entry by a copy whose ``check`` is
    ``make_wrapper(name, check)``; return the entries replaced."""
    rules = sys.modules["lmss.theorems"].RULES
    saved = dict(rules)
    for name, rule in saved.items():
        rules[name] = dataclasses.replace(rule, check=make_wrapper(name, rule.check))
    return saved


def restore_rules(saved: dict[str, object]) -> None:
    sys.modules["lmss.theorems"].RULES.update(saved)


def _lmss_namespaces() -> list[types.ModuleType]:
    return [
        mod for name, mod in sorted(sys.modules.items())
        if (name == "lmss" or name.startswith("lmss.")) and mod is not None
    ]


def install(tracer: Tracer) -> Installation:
    """Wrap the public functions of every traced module, everywhere they are bound."""
    import lmss.cli  # noqa: F401  (loads every traced module)

    wrappers: dict[int, object] = {}
    for short in MODULES:
        module = sys.modules[f"lmss.{short}"]
        for name, fn in _public_functions(module, short):
            wrappers[id(fn)] = tracer.wrap(name, fn)
    bindings = []
    for module in _lmss_namespaces():
        for attr, obj in list(vars(module).items()):
            wrapper = wrappers.get(id(obj))
            if wrapper is not None:
                bindings.append((module, attr, obj))
                setattr(module, attr, wrapper)
    saved = wrap_rules(lambda name, check: tracer.wrap(f"theorems.rule.{name}", check))
    return Installation(bindings, saved)
