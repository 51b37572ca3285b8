"""In-memory span tracer for the so3sym package, installed from outside.

`Tracer.install()` wraps every public function defined in an so3sym
module and rebinds the wrapper in every so3sym module namespace that
holds the original (``nn`` binds ``symeig4``, ``wahba`` binds
``exp_map``, ...), so calls are caught whichever module makes them.
Each call records a span ``(name, start_ns, end_ns, parent_index)`` in a
list; a layer's self time is its span minus its direct children. A few
layers also count the work they were handed (matrices, rows, pairs).
The package itself is never edited; `uninstall()` restores every binding.
"""

import functools
import importlib
import inspect
import json
import pkgutil
import time
from collections import defaultdict

import numpy as np


def _leading(x, trailing):
    shape = np.shape(x)
    return int(np.prod(shape[:len(shape) - trailing])) if len(shape) > trailing else 1


def _train_single_counts(args, kwargs, result):
    cfg = args[0]
    head = args[1] if len(args) > 1 else kwargs["head"]
    if head != "A":
        return {}
    return {"a_head_samples": cfg.epochs * cfg.batches_per_epoch * cfg.batch_rotations,
            "a_head_degenerate": result.degenerate_count}


def _symeig4_counts(args, kwargs, result):
    n = _leading(args[0], 2)
    bucket = "calls_b1" if n == 1 else "calls_b2_999" if n < 1000 else "calls_b1000_up"
    return {"matrices": n, bucket: 1}


# Work handed to a layer per call, read from its arguments or result.
COUNTERS = {
    "symrep.symeig4": _symeig4_counts,
    "nn.forward": lambda a, k, r: {"rows": _leading(a[1], 1)},
    "wahba.build_data_matrix": lambda a, k, r: {"pairs": len(a[0])},
    "averaging.inertia_matrix": lambda a, k, r: {"quats": len(a[0])},
    "wahba.read_correspondences_csv": lambda a, k, r: {"rows": len(r)},
    "nn.train_single": _train_single_counts,
}


def package_modules(package):
    mods = [package]
    for info in pkgutil.iter_modules(package.__path__):
        mods.append(importlib.import_module(f"{package.__name__}.{info.name}"))
    return mods


class Tracer:
    """Records spans and counts for every public function of a package."""

    def __init__(self, package):
        self.package = package
        self.spans = []
        self.counts = defaultdict(lambda: defaultdict(int))
        self.layers = set()
        self._stack = []
        self._patched = []

    def _wrap(self, fn, name):
        spans, stack, counter = self.spans, self._stack, COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    self.counts[name][key] += value
            return result

        return traced

    def install(self):
        mods = package_modules(self.package)
        prefix = self.package.__name__ + "."
        wrappers = {}
        for mod in mods:
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    name = f"{mod.__name__.removeprefix(prefix)}.{obj.__name__}"
                    wrappers[id(obj)] = self._wrap(obj, name)
                    self.layers.add(name)
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, obj))

    def uninstall(self):
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def summary(self):
        """{layer: {"calls", "self_ns", <counts>}} over every finished span."""
        return summarize(self.spans, self.counts)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"layers": sorted(self.layers), "spans": self.spans,
                       "counts": self.counts}, fh)


def summarize(spans, counts):
    stats = defaultdict(lambda: defaultdict(int))
    for name, start, end, parent in spans:
        stats[name]["calls"] += 1
        stats[name]["self_ns"] += end - start
        if parent >= 0:
            stats[spans[parent][0]]["self_ns"] -= end - start
    for name, extra in counts.items():
        for key, value in extra.items():
            stats[name][key] += value
    return stats


def load_summary(path):
    """Summary and layer names of a trace written by `Tracer.dump`."""
    with open(path) as fh:
        data = json.load(fh)
    return summarize(data["spans"], data["counts"]), set(data["layers"])


def merge(into, other):
    for name, stat in other.items():
        for key, value in stat.items():
            into[name][key] += value
