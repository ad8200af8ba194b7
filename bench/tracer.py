"""Span tracer that instruments sftlab from the outside.

:func:`install` wraps every public module-level function of every loaded
``sftlab`` module, plus ``EdgeShift.ensure_budget``, and rebinds each wrapped
function everywhere the package holds a reference to it.  The modules import
each other's functions by name (``from .codes import compose``), so patching
only the defining module would miss most calls.  ``EdgeShift.words`` is a
generator and is left alone: a span around it would close before the words
are produced.

Each call records a span ``(name, start, end, parent)``; spans stay in
memory and are written out once, by :meth:`Tracer.dump`.  Counters come from
return values only.  :func:`summarize` turns spans into per-function and
per-layer self and total times; a span's self time is its duration minus the
part of it covered by its children.
"""

import functools
import inspect
import json
import sys
import time
import weakref

PACKAGE = "sftlab"


class Tracer:
    """Spans and counters of one traced process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = {}
        self._hooks = {
            "codes.compose": self._on_compose,
            "shifts.ensure_budget": self._on_ensure_budget,
        }
        # composed-code bookkeeping for codes.compose.redundant_windows;
        # serial numbers are never reused, unlike id()
        self._serial = weakref.WeakKeyDictionary()
        self._next_serial = 0
        self._lineage = weakref.WeakKeyDictionary()
        self._built = set()

    def wrap(self, fn, name):
        spans, stack, clock = self.spans, self.stack, self.clock
        hook = self._hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span = spans[index]
                span[1] = start
                span[2] = end
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    def add(self, key, n):
        self.counts[key] = self.counts.get(key, 0) + n

    def _code_serial(self, code):
        serial = self._serial.get(code)
        if serial is None:
            self._next_serial += 1
            serial = self._serial[code] = self._next_serial
        return serial

    def _on_compose(self, args, kwargs, result):
        outer = args[0] if args else kwargs["outer"]
        inner = args[1] if len(args) > 1 else kwargs["inner"]
        windows = len(result.rule)
        self.add("codes.compose.windows", windows)
        # outer o inner is base^(e+1) when one side is base and the other
        # base^e (power() composes result o code); anything else is keyed by
        # the pair of inputs
        s_outer, s_inner = self._code_serial(outer), self._code_serial(inner)
        lin_outer = self._lineage.get(outer, (None, 0))
        lin_inner = self._lineage.get(inner, (None, 0))
        if outer is inner:
            power = (s_inner, 2)
        elif lin_outer[0] == s_inner:
            power = (s_inner, lin_outer[1] + 1)
        elif lin_inner[0] == s_outer:
            power = (s_outer, lin_inner[1] + 1)
        else:
            power = None
        if power is not None:
            self._lineage[result] = power
        key = power or ("pair", s_outer, s_inner)
        if key in self._built:
            self.add("codes.compose.redundant_windows", windows)
        else:
            self._built.add(key)

    def _on_ensure_budget(self, args, kwargs, result):
        self.add("shifts.windows_budgeted", int(result))

    def dump(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {
            "names": names,
            "spans": [[index[n], a, b, p] for n, a, b, p in self.spans],
            "counts": self.counts,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, separators=(",", ":"))


def install(tracer):
    """Wrap sftlab's public functions in every loaded sftlab module and
    rebind every reference the package holds."""
    modules = [
        m for name, m in sorted(sys.modules.items())
        if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]
    wrappers = {}
    for module in modules:
        layer = module.__name__.rpartition(".")[2]
        for name, obj in vars(module).items():
            if (
                inspect.isfunction(obj)
                and obj.__module__ == module.__name__
                and not name.startswith("_")
                and not inspect.isgeneratorfunction(obj)
            ):
                wrappers[obj] = tracer.wrap(obj, f"{layer}.{name}")
    for module in modules:
        for name, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                setattr(module, name, wrappers[obj])
    shifts = sys.modules[PACKAGE + ".shifts"]
    shifts.EdgeShift.ensure_budget = tracer.wrap(
        shifts.EdgeShift.ensure_budget, "shifts.ensure_budget"
    )


def load(path):
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    names = doc["names"]
    spans = [(names[n], a, b, p) for n, a, b, p in doc["spans"]]
    return spans, doc["counts"]


def _covered(intervals, lo, hi):
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(spans):
    """Per-function and per-layer times from ``(name, start, end, parent)``
    spans, parents listed before their children.

    Returns ``{"functions": {name: {calls, self_s, total_s}}, "layers":
    {layer: {calls, self_s}}, "self_s": total self time}``.  ``total_s``
    counts only the outermost span of a recursion, so it never exceeds the
    wall time the function was active.
    """
    children = {}
    for _, a, b, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((a, b))
    functions = {}
    for i, (name, a, b, parent) in enumerate(spans):
        stats = functions.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        stats["calls"] += 1
        stats["self_s"] += (b - a) - _covered(children.get(i, ()), a, b)
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            stats["total_s"] += b - a
    layers = {}
    for name, stats in functions.items():
        layer = layers.setdefault(name.partition(".")[0], {"calls": 0, "self_s": 0.0})
        layer["calls"] += stats["calls"]
        layer["self_s"] += stats["self_s"]
    return {
        "functions": functions,
        "layers": layers,
        "self_s": sum(layer["self_s"] for layer in layers.values()),
    }
