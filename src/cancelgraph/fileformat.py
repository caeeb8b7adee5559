"""Plain-text graph files and permutation strings.

Graph format, one directive per line:

    # comment (also allowed after a directive)
    p graph <n>
    e <u> <v>

Vertices are 0-based. A loop is ``e v v``. Repeating an edge, in either
orientation, is harmless. The serializer writes edges sorted by (min, max).
"""
from __future__ import annotations

import re

from .errors import ParseError, UsageError
from .graphs import MAX_N, Graph, Permutation


def parse_graph(text: str) -> Graph:
    n: int | None = None
    rows: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] == "p":
            if n is not None:
                raise ParseError("duplicate 'p graph' header", lineno)
            if len(fields) != 3 or fields[1] != "graph":
                raise ParseError("header must be 'p graph <n>'", lineno)
            try:
                n = int(fields[2])
            except ValueError:
                raise ParseError(f"vertex count {fields[2]!r} is not an integer", lineno)
            if n < 0:
                raise ParseError(f"vertex count {n} is negative", lineno)
            if n > MAX_N:
                raise ParseError(f"vertex count {n} exceeds the limit of {MAX_N}", lineno)
            rows = [0] * n
        elif fields[0] == "e":
            if n is None:
                raise ParseError("edge before 'p graph' header", lineno)
            if len(fields) != 3:
                raise ParseError("edge must be 'e <u> <v>'", lineno)
            try:
                u, v = int(fields[1]), int(fields[2])
            except ValueError:
                raise ParseError(f"edge endpoints {fields[1]!r} {fields[2]!r} must be integers", lineno)
            if not (0 <= u < n and 0 <= v < n):
                raise ParseError(f"edge ({u},{v}) out of range for n={n}", lineno)
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        else:
            raise ParseError(f"unknown directive {fields[0]!r}", lineno)
    if n is None:
        raise ParseError("missing 'p graph <n>' header", None)
    return Graph(n, tuple(rows))


def parse_graph_file(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


def serialize_graph(g: Graph, comment: str | None = None) -> str:
    lines = []
    if comment:
        lines.extend(f"# {c}" for c in comment.splitlines())
    lines.append(f"p graph {g.n}")
    lines.extend(f"e {u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def parse_permutation(text: str, n: int | None = None) -> Permutation:
    """Image list like "3 0 1 2" (commas tolerated); optionally checked against n."""
    fields = re.split(r"[,\s]+", text.strip())
    fields = [f for f in fields if f]
    if not fields:
        raise ParseError("empty permutation", None)
    try:
        image = tuple(int(f) for f in fields)
    except ValueError:
        raise ParseError(f"permutation entries must be integers: {text!r}", None)
    if sorted(image) != list(range(len(image))):
        raise UsageError(f"not a permutation of 0..{len(image) - 1}: {image}")
    p = Permutation(image)
    if n is not None and len(p) != n:
        raise UsageError(f"permutation has length {len(p)}, expected {n}")
    return p


def format_permutation(p: Permutation) -> str:
    return " ".join(str(v) for v in p.image)
