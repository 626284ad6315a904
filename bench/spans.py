"""In-memory spans around the calls one emptytet module makes into another.

The tracer replaces a function at every name through which the package
reaches it (module globals, the package's re-exports, class attributes),
so calls between modules pass through a wrapper that records a span:
name, start, end and the enclosing span.  Spans live in flat arrays and
are turned into per-name calls, inclusive time and self time (a span's
duration minus its direct children's) when a traced pass ends.  Nothing
under src/ is edited; uninstall() puts every original object back.
"""

import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager


def _package_namespaces(package):
    return [
        module
        for name, module in sorted(sys.modules.items())
        if name == package or name.startswith(package + ".")
    ]


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        # (span name, counter) -> total, for counters taken from arguments,
        # results and raised exception types at the span boundary.
        self.counts = defaultdict(int)
        self._patched = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id):
        index = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def _close(self, index):
        self.end[index] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        index = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, name, fn, counter=None):
        """fn with a span per call; counter = (key, amount(args, result))."""
        name_id = self._id(name)
        counts = self.counts

        def traced(*args, **kwargs):
            index = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                counts[name, type(exc).__name__] += 1
                raise
            finally:
                self._close(index)
            if counter is not None:
                counts[name, counter[0]] += counter[1](args, result)
            return result

        return traced

    def install(self, package, functions, methods):
        """Wrap functions = [(module, attr, span, counter)] at every name
        in the package bound to them, and methods = [(module, class, attr,
        span)] on their class (aliases such as __call__ = apply included)."""
        namespaces = _package_namespaces(package)
        for module, attr, name, counter in functions:
            original = getattr(sys.modules[f"{package}.{module}"], attr)
            self._replace(namespaces, original, self.wrap(name, original, counter))
        for module, cls, attr, name in methods:
            owner = getattr(sys.modules[f"{package}.{module}"], cls)
            original = vars(owner)[attr]
            self._replace([owner], original, self.wrap(name, original))

    def _replace(self, namespaces, original, wrapped):
        for namespace in namespaces:
            for key, value in list(vars(namespace).items()):
                if value is original:
                    setattr(namespace, key, wrapped)
                    self._patched.append((namespace, key, original))

    def uninstall(self):
        while self._patched:
            namespace, key, original = self._patched.pop()
            setattr(namespace, key, original)

    def collect(self):
        """Per span name: [calls, inclusive seconds, self seconds]; then
        clear the recorded spans (counters are kept)."""
        n = len(self.start)
        children = array("d", bytes(8 * n))
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            if parent[i] >= 0:
                children[parent[i]] += end[i] - start[i]
        table = defaultdict(lambda: [0, 0.0, 0.0])
        for i in range(n):
            row = table[self.names[self.name_id[i]]]
            duration = end[i] - start[i]
            row[0] += 1
            row[1] += duration
            row[2] += duration - children[i]
        for column in (self.name_id, self.parent, self.start, self.end):
            del column[:]
        return table

    def dump(self, path):
        """Write the recorded spans as TSV: index, parent, name, start, end."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("index\tparent\tname\tstart_s\tend_s\n")
            origin = self.start[0] if self.start else 0.0
            for i in range(len(self.start)):
                out.write(
                    f"{i}\t{self.parent[i]}\t{self.names[self.name_id[i]]}\t"
                    f"{self.start[i] - origin:.9f}\t{self.end[i] - origin:.9f}\n"
                )
