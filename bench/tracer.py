"""Outside-in tracing for the traced run.

The tracer wraps the public functions each superqsym module defines, and the
arithmetic methods of Expr and TensorExpr, and rebinds every name in the
package that points at them.  Each call records one span: name, start, end,
parent span and the operation it belongs to.  Spans stay in memory in flat
arrays and are written out when the pass ends.  Untraced passes use only the
cache discovery below; they wrap nothing.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from array import array
from pathlib import Path

LAYERS = ("composition", "algebra", "shuffles", "hopf", "superschur", "realize", "cli")
EXPR_METHODS = ("__add__", "__sub__", "__neg__", "__mul__", "__eq__", "scale")
STRIPS = ("superschur.bosonic_strips", "superschur.fermionic_strips")
RENDERS = ("algebra.render_expr", "algebra.render_tensor")


def _size(result) -> int:
    """Work a call produced: items of a sequence, terms of an expansion or
    polynomial, else one object."""
    if isinstance(result, (list, tuple)):
        return len(result)
    terms = getattr(result, "terms", None)
    if isinstance(terms, dict):
        return len(terms)
    return 0 if result is None or isinstance(result, bool) else 1


def package_modules(package: str = "superqsym") -> dict[str, object]:
    return {layer: sys.modules[f"{package}.{layer}"] for layer in LAYERS}


def cached_functions(modules: dict[str, object]) -> dict[str, list]:
    """Every lru_cache a layer defines, found before any wrapping."""
    out: dict[str, list] = {}
    for layer, mod in modules.items():
        out[layer] = [
            obj
            for obj in vars(mod).values()
            if hasattr(obj, "cache_info") and getattr(obj, "__module__", None) == mod.__name__
        ]
    return out


class Tracer:
    """Records spans timed by ``clock``, a function that reads seconds."""

    def __init__(self, clock):
        self.clock = clock
        self.names: list[str] = []
        self.name_ix = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.size = array("l")
        self.current_op = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        ix = len(self.names)
        self.names.append(name)
        stack = self._stack
        name_ix, start, end, parent, op, size = (
            self.name_ix, self.start, self.end, self.parent, self.op, self.size,
        )
        clock = self.clock
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start)
            name_ix.append(ix)
            parent.append(stack[-1] if stack else -1)
            op.append(tracer.current_op)
            start.append(0.0)
            end.append(0.0)
            size.append(0)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[sid] = t0
                end[sid] = t1
            size[sid] = _size(result)
            return result

        return traced

    def _rebind(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, modules: dict[str, object], package) -> None:
        """Wrap every public function each layer defines and rebind it in
        every layer module and the package namespace that binds it."""
        namespaces = [package, *modules.values()]
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if not (inspect.isfunction(obj) or hasattr(obj, "cache_info")):
                    continue
                traced = self._wrap(f"{layer}.{attr}", obj)
                for ns in namespaces:
                    for name, value in list(vars(ns).items()):
                        if value is obj:
                            self._rebind(ns, name, traced)
        algebra = modules["algebra"]
        for cls in (algebra.Expr, algebra.TensorExpr):
            for meth in EXPR_METHODS:
                fn = vars(cls).get(meth)
                if inspect.isfunction(fn):
                    self._rebind(cls, meth, self._wrap(f"algebra.{cls.__name__}.{meth}", fn))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- analysis ------------------------------------------------------------

    def layer_of(self, span: int) -> str:
        return self.names[self.name_ix[span]].split(".", 1)[0]

    def self_times(self) -> tuple[list[float], float]:
        """Per span self time (duration minus its children's durations) and
        the total duration of the top-level spans."""
        n = len(self.start)
        covered = [0.0] * n
        total = 0.0
        for sid in range(n):
            dur = self.end[sid] - self.start[sid]
            p = self.parent[sid]
            if p < 0:
                total += dur
            else:
                covered[p] += dur
        return [self.end[s] - self.start[s] - covered[s] for s in range(n)], total

    def layer_metrics(self, caches: dict[str, list]) -> dict[str, float]:
        """Per-layer self time, calls and work counts, and cache ratios read
        from cache_info() at the end of the pass."""
        selfs, total = self.self_times()
        names = self.names
        m: dict[str, float] = {}
        for layer in LAYERS:
            m[f"{layer}.self_s"] = 0.0
            m[f"{layer}.calls"] = 0
        op_total: dict[int, float] = {}
        op_shuffles: dict[int, float] = {}
        sizes = {k: 0 for k in (
            "hopf.terms", "composition.items", "shuffles.paths", "realize.monomials",
            "superschur.tableaux", "superschur.strip_calls",
        )}
        product_terms = product_paths = 0
        strip_scanned = strip_kept = 0
        render_s = 0.0
        strip_with_scan: set[int] = set()
        for sid, s in enumerate(selfs):
            name = names[self.name_ix[sid]]
            layer = name.split(".", 1)[0]
            m[f"{layer}.self_s"] += s
            m[f"{layer}.calls"] += 1
            op = self.op[sid]
            p = self.parent[sid]
            size = self.size[sid]
            if p < 0:
                op_total[op] = op_total.get(op, 0.0) + self.end[sid] - self.start[sid]
            if layer == "shuffles":
                op_shuffles[op] = op_shuffles.get(op, 0.0) + s
            pname = names[self.name_ix[p]] if p >= 0 else ""
            if layer == "hopf":
                sizes["hopf.terms"] += size
            elif layer == "composition":
                sizes["composition.items"] += size
            elif layer == "realize":
                sizes["realize.monomials"] += size
            if name in ("shuffles.fundamental_paths", "shuffles.overlapping_shuffles"):
                sizes["shuffles.paths"] += size
            if name == "hopf.product_L":
                product_terms += size
            if name == "shuffles.fundamental_paths" and pname == "hopf.product_L":
                product_paths += size
            if name in ("superschur.dot_standard_tableaux", "superschur.enumerate_s_tableaux"):
                sizes["superschur.tableaux"] += size
            if name in STRIPS:
                sizes["superschur.strip_calls"] += 1
            if name == "superschur.superpartitions" and pname in STRIPS:
                strip_scanned += size
                strip_with_scan.add(p)
            if name in RENDERS and pname not in RENDERS:
                render_s += self.end[sid] - self.start[sid]
        for sid in strip_with_scan:
            strip_kept += self.size[sid]
        m.update(sizes)
        m["algebra.render_s"] = render_s
        m["hopf.terms_per_path"] = product_terms / product_paths if product_paths else 0.0
        m["superschur.strip_accept_ratio"] = strip_kept / strip_scanned if strip_scanned else 0.0
        m["shuffles.share"] = m["shuffles.self_s"] / total if total else 0.0
        m["shuffles.tail_share"] = _tail_share(op_total, op_shuffles)
        for layer in ("composition", "shuffles", "superschur"):
            hits = sum(f.cache_info().hits for f in caches[layer])
            misses = sum(f.cache_info().misses for f in caches[layer])
            m[f"{layer}.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
        for layer in ("shuffles", "realize"):
            m[f"{layer}.cache_entries"] = sum(f.cache_info().currsize for f in caches[layer])
        m["self_sum_error_s"] = abs(sum(m[f"{layer}.self_s"] for layer in LAYERS) - total)
        m["traced_total_s"] = total
        return m

    def write(self, path: Path) -> None:
        """Write the spans as one JSON document of parallel arrays."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(
                {
                    "names": self.names,
                    "name": self.name_ix.tolist(),
                    "start": self.start.tolist(),
                    "end": self.end.tolist(),
                    "parent": self.parent.tolist(),
                    "op": self.op.tolist(),
                    "size": self.size.tolist(),
                },
                fh,
            )


def _tail_share(op_total: dict[int, float], op_shuffles: dict[int, float]) -> float:
    """Share of shuffles self time in the operations at or above the 90th
    percentile of traced operation time."""
    if not op_total:
        return 0.0
    times = sorted(op_total.values())
    cut = times[int(0.9 * (len(times) - 1))]
    tail = [op for op, t in op_total.items() if t >= cut]
    spent = sum(op_total[op] for op in tail)
    return sum(op_shuffles.get(op, 0.0) for op in tail) / spent if spent else 0.0
