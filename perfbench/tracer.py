"""Span tracer that wraps the public functions of the `epu` modules.

Each public function is replaced by a wrapper at every place it is bound:
the module that defines it and every module that imported it by name.
Public methods are wrapped on their class. A span holds its name, start,
end, parent span and request id; spans stay in memory until `write`.
Wrappers are in place only between `install` and `uninstall`.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import Counter

LAYERS = ("cli", "data", "pfm", "model", "tensor", "train", "interpret", "metrics")


def _public(namespace):
    return [(attr, obj) for attr, obj in vars(namespace).items() if not attr.startswith("_")]


def _targets(modules):
    """Yield (span name, owner, attribute, function) for every function to wrap.

    A method is named `<module>.<method>` unless the name is also used by a
    function or another method of that module; then the class is included.
    """
    for short, mod in modules.items():
        functions = {
            attr: obj
            for attr, obj in _public(mod)
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__
        }
        methods = [
            (cls, attr, obj)
            for _, cls in _public(mod)
            if inspect.isclass(cls) and cls.__module__ == mod.__name__
            for attr, obj in _public(cls)
            if inspect.isfunction(obj)
        ]
        uses = Counter(list(functions) + [attr for _, attr, _ in methods])
        for attr, fn in functions.items():
            yield f"{short}.{attr}", mod, attr, fn
        for cls, attr, fn in methods:
            name = f"{short}.{attr}" if uses[attr] == 1 else f"{short}.{cls.__name__}.{attr}"
            yield name, cls, attr, fn


class Tracer:
    """Wraps every target once; `install` and `uninstall` swap the wrappers in and out."""

    def __init__(self, modules, batch_sizes=None, on_exit=None):
        self.batch_sizes = batch_sizes or {}
        self.on_exit = on_exit or {}
        self.names: list[str] = []
        self.spans: list = []
        self.samples: Counter = Counter()
        self.request = ""
        self._stack: list[int] = []
        self._patches = []
        wrappers = {}
        for name, owner, attr, fn in _targets(modules):
            wrapper = self._wrap(name, fn)
            if inspect.isclass(owner):
                self._patches.append((owner, attr, fn, wrapper))
            else:
                wrappers[id(fn)] = (fn, wrapper)
        for mod in modules.values():
            for attr, obj in vars(mod).items():
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patches.append((mod, attr, obj, hit[1]))

    def _wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        size_of = self.batch_sizes.get(name)
        after = self.on_exit.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if size_of is not None:
                self.samples[name] += size_of(args, kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, start, end, parent, self.request)
                if after is not None:
                    after()

        return traced

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def totals(self):
        """Per span name: (calls, self seconds); plus the summed root duration."""
        child = [0.0] * len(self.spans)
        for nid, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, self_s = Counter(), Counter()
        root_s = 0.0
        for i, (nid, start, end, parent, _) in enumerate(self.spans):
            name = self.names[nid]
            calls[name] += 1
            self_s[name] += end - start - child[i]
            if parent < 0:
                root_s += end - start
        return calls, self_s, root_s

    def roots(self):
        return {self.names[s[0]] for s in self.spans if s[3] < 0}

    def write(self, path):
        """One JSON header line with the span names, then one line per span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names, "fields": ["name", "start_s", "end_s", "parent", "request"]}) + "\n")
            for nid, start, end, parent, request in self.spans:
                fh.write(f"{nid} {start - origin:.9f} {end - origin:.9f} {parent} {request}\n")
