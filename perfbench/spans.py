"""Span trees, self time and the percentile rule.

The traced run mixes two sources of spans in one tracer: the program's
own stage spans and the benchmark's shim spans.  The program attaches
per-shard spans *after* the shard ran, as siblings of the shim spans
recorded inside it, so the raw tree does not nest by time.  ``nest``
rebuilds the forest purely from interval containment; self time is then
a span's duration minus the union of its children's intervals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Set


@dataclass
class Node:
    """One span: name, start, end (seconds), attributes and children."""

    name: str
    start: float
    end: float
    attrs: Dict[str, Any] = field(default_factory=dict)
    children: List["Node"] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start


def from_span(span: Any) -> Node:
    """Copy a ``repro.observability`` span tree (object or dict form)."""
    doc = span if isinstance(span, dict) else span.to_dict()
    return Node(
        name=doc["name"],
        start=float(doc["start"]),
        end=float(doc["end"]),
        attrs=dict(doc.get("attrs", {})),
        children=[from_span(child) for child in doc.get("children", [])],
    )


def walk(nodes: Iterable[Node]) -> Iterator[Node]:
    """Every node of a forest, parents before children."""
    for node in nodes:
        yield node
        yield from walk(node.children)


def nest(nodes: Sequence[Node]) -> List[Node]:
    """Rebuild a forest so that every span's parent is the innermost span
    whose interval contains it.

    Ties (identical intervals) keep their original depth order, so a span
    never ends up below its own former child.  Input nodes are reused.
    """
    flat = []

    def collect(children: Sequence[Node], depth: int) -> None:
        for child in children:
            flat.append((child, depth, len(flat)))
            collect(child.children, depth + 1)

    collect(nodes, 0)
    flat.sort(key=lambda item: (item[0].start, -item[0].end, item[1], item[2]))
    roots: List[Node] = []
    stack: List[Node] = []
    for node, _, _ in flat:
        node.children = []
        while stack and not (
            stack[-1].start <= node.start and node.end <= stack[-1].end
        ):
            stack.pop()
        (stack[-1].children if stack else roots).append(node)
        stack.append(node)
    return roots


def covered(intervals: Iterable[Node]) -> float:
    """Length of the union of the nodes' intervals."""
    total = 0.0
    cur_start: Optional[float] = None
    cur_end = 0.0
    for node in sorted(intervals, key=lambda n: n.start):
        if cur_start is None or node.start > cur_end:
            if cur_start is not None:
                total += cur_end - cur_start
            cur_start, cur_end = node.start, node.end
        else:
            cur_end = max(cur_end, node.end)
    if cur_start is not None:
        total += cur_end - cur_start
    return total


def self_time(node: Node) -> float:
    """Duration minus the time its children cover."""
    return node.duration - covered(node.children)


def total(nodes: Iterable[Node], name: str) -> float:
    """Summed duration of spans called ``name``, outermost ones only."""
    acc = 0.0
    for node in nodes:
        if node.name == name:
            acc += node.duration
        else:
            acc += total(node.children, name)
    return acc


def self_total(nodes: Iterable[Node], names: Set[str]) -> float:
    """Summed self time of every span whose name is in ``names``."""
    return sum(self_time(n) for n in walk(nodes) if n.name in names)


def count(nodes: Iterable[Node], name: str) -> int:
    return sum(1 for n in walk(nodes) if n.name == name)


def attr_sum(nodes: Iterable[Node], name: str, key: str) -> float:
    """Sum of attribute ``key`` over spans called ``name``."""
    return sum(float(n.attrs.get(key, 0)) for n in walk(nodes) if n.name == name)


def coverage_pct(node: Node) -> float:
    """Share of a span's duration covered by its children's self times."""
    if node.duration <= 0:
        return 100.0
    return 100.0 * (1.0 - self_time(node) / node.duration)


#: A percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile; raises unless ``MIN_BEYOND`` samples lie
    above it, so a tail figure never rests on a handful of samples."""
    n = len(samples)
    # Rounded first: 0.9 * 120 is 108, not 108.00000000000001.
    rank = max(1, math.ceil(round(pct * n / 100.0, 9)))
    if n - rank < MIN_BEYOND:
        raise ValueError(
            f"p{pct:g} of {n} samples leaves {n - rank} beyond it; "
            f"{MIN_BEYOND} are needed"
        )
    return sorted(samples)[rank - 1]
