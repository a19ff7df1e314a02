"""Roll a cProfile run up into the simulator's layers.

A layer is a top-level package of ``repro`` (``repro.sim``, ``repro.cpu``,
...).  Each Python function's self time goes to the layer its source file
lives in.  Code outside ``repro`` — builtins, the standard library, numpy
— has no layer of its own: its self time follows the pstats caller edges
up to the nearest ``repro`` callers, split in proportion to the time
each edge accounts for.  Foreign code that recurses (json encoding,
imports) is first collapsed into its strongly connected components, so
the walk up always ends.  Time that reaches no layer (the profiled
region's top frame, or a ``repro`` package these workloads are not meant
to exercise) goes to ``ext``.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: the named layers, in report order; ``ext`` collects the rest
LAYERS = (
    "sim", "cpu", "netstack", "overlay", "core", "steering", "obs",
    "metrics", "workloads", "runner", "resilience", "experiments", "ext",
)

Func = Tuple[str, int, str]


def layer_of(filename: str, repro_root: str) -> Optional[str]:
    """The layer of a function defined in ``filename``; None outside repro."""
    prefix = repro_root.rstrip(os.sep) + os.sep
    if not filename.startswith(prefix):
        return None
    package = filename[len(prefix):].split(os.sep, 1)[0]
    return package if package in LAYERS[:-1] else "ext"


def components(nodes: Iterable[Func], succ: Callable[[Func], Iterable[Func]]) -> Dict[Func, Func]:
    """Strongly connected components (iterative Tarjan): node -> component root."""
    index: Dict[Func, int] = {}
    low: Dict[Func, int] = {}
    comp: Dict[Func, Func] = {}
    stack: List[Func] = []
    on_stack = set()
    for root in nodes:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(succ(root)))]
        while work:
            node, edges = work[-1]
            for nxt in edges:
                if nxt not in index:
                    index[nxt] = low[nxt] = len(index)
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(succ(nxt))))
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        comp[member] = node
                        if member == node:
                            break
    return comp


def rollup(stats: Dict[Func, tuple], repro_root: str) -> Dict[str, Dict[str, float]]:
    """``{layer: {"self_s", "calls"}}`` from a ``pstats.Stats(...).stats`` table.

    ``calls`` counts calls of the layer's own functions; ``ext.calls``
    counts every call into code outside the named layers.
    """
    own = {func: layer_of(func[0], repro_root) for func in stats}
    foreign = [func for func, layer in own.items() if layer is None]
    comp = components(foreign, lambda f: [c for c in stats[f][4] if own[c] is None])
    members: Dict[Func, List[Func]] = {}
    for func, root in comp.items():
        members.setdefault(root, []).append(func)
    memo: Dict[Func, Dict[str, float]] = {}

    def upward(func: Func) -> Dict[str, float]:
        """How the time spent under ``func`` divides between layers."""
        if own[func] is not None:
            return {own[func]: 1.0}
        root = comp[func]
        if root not in memo:
            weights: Dict[str, float] = {}
            for member in members[root]:
                for caller, edge in stats[member][4].items():
                    if comp.get(caller) == root:
                        continue
                    for layer, frac in upward(caller).items():
                        weights[layer] = weights.get(layer, 0.0) + frac * edge[3]
            total = sum(weights.values())
            memo[root] = ({k: v / total for k, v in weights.items()}
                          if total > 0.0 else {"ext": 1.0})
        return memo[root]

    out = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    for func, (_cc, nc, tt, _ct, callers) in stats.items():
        layer = own[func]
        if layer is not None:
            out[layer]["self_s"] += tt
            out[layer]["calls"] += nc
            continue
        out["ext"]["calls"] += nc
        attributed = 0.0
        for caller, edge in callers.items():
            for up, frac in upward(caller).items():
                out[up]["self_s"] += edge[2] * frac
            attributed += edge[2]
        out["ext"]["self_s"] += max(0.0, tt - attributed)
    return out
