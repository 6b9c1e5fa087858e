"""Spans around zetaforge's public functions, recorded from outside.

``Tracer.install`` wraps every function named in a module's ``__all__``
(plus ``_mc.mc_mean``/``_mc.tensor_gauss`` and ``cli.run``/``cli.emit``,
which those modules do not export) and rebinds every zetaforge module
attribute that refers to the original, so calls between modules through
``from .x import f`` are traced too.  Spans (name, start, end, parent) are
kept in memory; ``layer_metrics`` folds them into per-layer self times and
counts, and ``dump`` writes them out as JSON lines.
"""

from __future__ import annotations

import functools
import inspect
import json
import time

_EXTRA = {"_mc": ("mc_mean", "tensor_gauss"), "cli": ("run", "emit")}
_SOLVERS = ("ncho_eigs", "qrm_eigs")


def metric_prefix(layer: str) -> str:
    return layer.lstrip("_")


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []  # [name, layer, start, end, parent]
        self.counts: dict = {}
        self.layers: tuple = ()
        self._stack: list = []

    def _count(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, layer: str, name: str, fn):
        sig = inspect.signature(fn) if name in _SOLVERS else None
        prefix = metric_prefix(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [f"{layer}.{name}", layer, time.perf_counter(), None, parent]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                self._count(f"{prefix}.dense_bytes", (2 * bound.arguments["N"]) ** 2 * 8)
            elif name == "mc_mean":
                self._count(f"{prefix}.samples", result[2])
            elif name == "tensor_gauss":
                self._count(f"{prefix}.samples", result[1])
            return result

        return traced

    def install(self, modules: dict) -> None:
        """Wrap the public functions of ``modules`` (layer name -> module)."""
        self.layers = tuple(modules)
        originals = {}
        for layer, mod in modules.items():
            names = tuple(getattr(mod, "__all__", ())) + _EXTRA.get(layer, ())
            for name in names:
                fn = getattr(mod, name)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    originals[id(fn)] = self.wrap(layer, name, fn)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                wrapped = originals.get(id(value))
                if wrapped is not None:
                    setattr(mod, attr, wrapped)

    def layer_metrics(self) -> dict:
        """Self time (span minus its child spans) and call count per layer."""
        child_time = [0.0] * len(self.spans)
        for name, layer, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for layer in self.layers:
            p = metric_prefix(layer)
            out[f"{p}.self_s"] = 0.0
            out[f"{p}.calls"] = 0
        for i, (name, layer, start, end, parent) in enumerate(self.spans):
            p = metric_prefix(layer)
            out[f"{p}.self_s"] += end - start - child_time[i]
            out[f"{p}.calls"] += 1
        out.update(self.counts)
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for name, layer, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}))
                fh.write("\n")
