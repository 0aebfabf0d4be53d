"""In-memory span tracer for the traced benchmark run.

Every public function of every qtoric module is wrapped at each name it is
bound to (``qtoric.charsearch.det_int`` and ``qtoric.fanchk.det_int`` are
two binding sites of ``exactnum.det_int``), so a call is seen whichever
module makes it.  A span records its binding site, start, end and the span
that was open when it began.  Spans are aggregated by the defining function,
which names the layer metric: ``<module>.<function>.<stat>``.  Arithmetic on
``Sqrt2Number`` and the per-element ``coerce_sqrt2`` are too fine-grained
for spans (millions per second of LP work) and are only counted.
"""

from __future__ import annotations

import json
import os
import sys
from array import array
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Tuple

SQRT2_OPS = (
    "__add__", "__radd__", "__neg__", "__sub__", "__rsub__", "__mul__",
    "__rmul__", "inverse", "__truediv__", "__rtruediv__", "sign",
)


def _search_counts(counters, args, result):
    counters["charsearch.search.nodes"] += result.nodes
    counters["charsearch.search.solutions"] += len(result.solutions)


def _overlap_counts(counters, args, result):
    counters["fanchk.cones_overlap_interior.overlaps"] += bool(result[0])


def _parse_counts(counters, args, result):
    counters["documents.parse_document.bytes"] += len(args[0].encode("utf-8"))


def _json_counts(counters, args, result):
    counters["documents.canonical_json.bytes"] += len(result.encode("utf-8"))


# Functions that are counted at every binding site but get no span.
COUNT_ONLY = ("exactnum.coerce_sqrt2",)

# Work counts taken from arguments or results at the layer boundary.
COUNT_HOOKS: Dict[str, Callable] = {
    "charsearch.search": _search_counts,
    "fanchk.cones_overlap_interior": _overlap_counts,
    "documents.parse_document": _parse_counts,
    "documents.canonical_json": _json_counts,
}


def _layer_of(obj) -> str:
    return f"{obj.__module__.split('.')[-1]}.{obj.__name__}"


class Tracer:
    """Wraps the package's functions, keeps spans in typed arrays."""

    def __init__(self) -> None:
        self.sites: List[str] = []
        self.site_layer: List[str] = []
        self.start = array("d")
        self.end = array("d")
        self.site = array("H")
        self.parent = array("l")
        self.counters: Dict[str, int] = defaultdict(int)
        self._stack = [-1]
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- installation --------------------------------------------------------

    def _wrap(self, site: str, layer: str, fn):
        sid = len(self.sites)
        self.sites.append(site)
        self.site_layer.append(layer)
        start, end, sites, parent = self.start, self.end, self.site, self.parent
        stack, counters = self._stack, self.counters
        hook = COUNT_HOOKS.get(layer)
        calls_key = layer + ".calls"

        def traced(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1])
            sites.append(sid)
            end.append(0.0)
            stack.append(idx)
            counters[calls_key] += 1
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(counters, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every public qtoric function at every module binding it."""
        modules = sorted(
            (name, mod) for name, mod in sys.modules.items()
            if (name == "qtoric" or name.startswith("qtoric.")) and mod is not None
        )
        for modname, mod in modules:
            for attr, obj in sorted(vars(mod).items()):
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if not getattr(obj, "__module__", "").startswith("qtoric"):
                    continue
                layer = _layer_of(obj)
                if layer in COUNT_ONLY:
                    wrapper = self._count(layer + ".calls", obj)
                else:
                    wrapper = self._wrap(f"{modname}.{attr}", layer, obj)
                self._patches.append((mod, attr, obj))
                setattr(mod, attr, wrapper)
        cls = sys.modules["qtoric.exactnum"].Sqrt2Number
        for meth in SQRT2_OPS:
            orig = cls.__dict__[meth]
            self._patches.append((cls, meth, orig))
            setattr(cls, meth, self._count("exactnum.sqrt2.ops", orig))

    def _count(self, key: str, orig):
        counters = self.counters

        def counted(*args):
            counters[key] += 1
            return orig(*args)

        return counted

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def layer_times(self) -> Dict[str, Dict[str, float]]:
        """calls, busy_s (inclusive) and self_s (minus child spans) per layer."""
        n = len(self.start)
        start, end, parent, site = self.start, self.end, self.parent, self.site
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
        )
        layer_of = self.site_layer
        for i in range(n):
            d = end[i] - start[i]
            row = out[layer_of[site[i]]]
            row["calls"] += 1
            row["busy_s"] += d
            row["self_s"] += d - child[i]
        return out

    def write(self, path_prefix: str) -> None:
        """Write the spans: a JSON header and the four arrays in binary."""
        os.makedirs(os.path.dirname(path_prefix), exist_ok=True)
        with open(path_prefix + ".bin", "wb") as fh:
            for arr in (self.start, self.end, self.site, self.parent):
                arr.tofile(fh)
        header = {
            "spans": len(self.start),
            "arrays": [["start", "d"], ["end", "d"], ["site", "H"], ["parent", "l"]],
            "byteorder": sys.byteorder,
            "sites": self.sites,
            "site_layer": self.site_layer,
            "counters": dict(self.counters),
        }
        with open(path_prefix + ".json", "w", encoding="utf-8") as fh:
            json.dump(header, fh, indent=1, sort_keys=True)
