"""Core types: graphs with loops, permutations, neighborhood multisets.

Adjacency is stored as one int bitmask per vertex (bit y of adj[x] set iff
xy is an edge). A loop at x sets bit x of adj[x], so x is in its own open
neighborhood exactly when it carries a loop. Everything is immutable.

A graph is encoded by the upper-triangle cells of its adjacency matrix,
diagonal included, in row-major order with 0 < 1 (adjacency_index). The
enumeration order, the certificates and the counterexample order all use
this encoding, so certificates are comparable across the whole package.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import lcm
from typing import Iterable, Iterator

from .errors import CapacityError, UsageError

MAX_N = 64

# budget guards for exhaustive enumeration (overridable with force=True)
ENUM_MAX_LOOPS = 6
ENUM_MAX_SIMPLE = 7


def bits_of(mask: int) -> Iterator[int]:
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def permute_mask(mask: int, image: tuple[int, ...]) -> int:
    """Relocate bit v to bit image[v] for every set bit."""
    out = 0
    # inline bit loop, not bits_of: a generator's setup dominates this hottest loop
    while mask:
        b = mask & -mask
        out |= 1 << image[b.bit_length() - 1]
        mask ^= b
    return out


def relabel_rows(rows: tuple[int, ...], image) -> tuple[int, ...]:
    """Rows of the same graph with each vertex v renamed image[v]."""
    out = [0] * len(rows)
    for v, row in enumerate(rows):
        out[image[v]] = permute_mask(row, image)
    return tuple(out)


def maps_neighborhoods(src, dst, lam: tuple[int, ...], mu: tuple[int, ...]) -> bool:
    """xy in E(src) iff lam(x)mu(y) in E(dst), tested as lam(N(x)) = N(mu(x)).

    (lam, mu) on one graph is a two-fold automorphism; (a^-1, a) is the
    anti-automorphism a, and (s, s) an automorphism or an isomorphism.
    """
    return all(permute_mask(src[x], lam) == dst[mu[x]] for x in range(len(src)))


def invert(image: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(image)
    for v, w in enumerate(image):
        inv[w] = v
    return tuple(inv)


def perm_order(image: tuple[int, ...]) -> int:
    """The lcm of the cycle lengths."""
    order = 1
    seen = 0
    for v in range(len(image)):
        if seen >> v & 1:
            continue
        length = 0
        w = v
        while not seen >> w & 1:
            seen |= 1 << w
            w = image[w]
            length += 1
        order = lcm(order, length)
    return order


def is_involution(image: tuple[int, ...]) -> bool:
    """Order exactly 2."""
    n = len(image)
    return any(image[v] != v for v in range(n)) and all(image[image[v]] == v for v in range(n))


@dataclass(frozen=True, slots=True)
class Permutation:
    image: tuple[int, ...]

    def __post_init__(self):
        img = tuple(self.image)
        object.__setattr__(self, "image", img)
        n = len(img)
        if sorted(img) != list(range(n)):
            raise UsageError(f"not a bijection on 0..{n - 1}: {img}")

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(tuple(range(n)))

    def __len__(self) -> int:
        return len(self.image)

    def __call__(self, v: int) -> int:
        return self.image[v]

    def inverse(self) -> "Permutation":
        return Permutation(invert(self.image))

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self.compose(other))(v) = self(other(v))."""
        if len(other.image) != len(self.image):
            raise UsageError("composing permutations of different lengths")
        return Permutation(tuple(self.image[w] for w in other.image))

    def power(self, k: int) -> "Permutation":
        n = len(self.image)
        if k < 0:
            return self.inverse().power(-k)
        out = tuple(range(n))
        step = self.image
        while k:
            if k & 1:
                out = tuple(step[v] for v in out)
            step = tuple(step[v] for v in step)
            k >>= 1
        return Permutation(out)

    def order(self) -> int:
        return perm_order(self.image)

    def is_involution(self) -> bool:
        return is_involution(self.image)

    def is_identity(self) -> bool:
        return all(w == v for v, w in enumerate(self.image))


def _check_shape(n: int, rows: tuple[int, ...]) -> None:
    """n in 0..MAX_N, n rows, every row inside 0..n-1."""
    if not 0 <= n <= MAX_N:
        raise CapacityError(f"vertex count {n} outside 0..{MAX_N}")
    if len(rows) != n:
        raise UsageError(f"expected {n} adjacency rows, got {len(rows)}")
    full = (1 << n) - 1
    for x, row in enumerate(rows):
        if row & ~full:
            raise UsageError(f"row {x} references vertices outside 0..{n - 1}")


def _check_rows(n: int, adj: tuple[int, ...]) -> None:
    _check_shape(n, adj)
    # bits below the diagonal less bits above it
    excess = 0
    for x in range(n):
        row = adj[x]
        above = row >> x + 1 << x + 1
        excess += (row & (1 << x) - 1).bit_count() - above.bit_count()
        # inline bit loop, not bits_of: runs for every Graph built
        while above:
            b = above & -above
            y = b.bit_length() - 1
            if not adj[y] >> x & 1:
                raise UsageError(f"asymmetric adjacency between {x} and {y}")
            above ^= b
    # each bit above the diagonal has its mirror below it, so no excess
    # leaves none below without its mirror above
    if excess:
        x, y = min((y, x) for x in range(n) for y in bits_of(adj[x] & (1 << x) - 1)
                   if not adj[y] >> x & 1)
        raise UsageError(f"asymmetric adjacency between {x} and {y}")


@dataclass(frozen=True)
class Graph:
    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        rows = tuple(self.adj)
        object.__setattr__(self, "adj", rows)
        _check_rows(self.n, rows)

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise UsageError(f"edge ({u},{v}) out of range for n={n}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return Graph(n, tuple(rows))

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(self.adj[u] >> v & 1)

    def has_loop(self, v: int) -> bool:
        self._check_vertex(v)
        return bool(self.adj[v] >> v & 1)

    def degree(self, v: int) -> int:
        """Size of the open neighborhood; a loop contributes 1."""
        self._check_vertex(v)
        return self.adj[v].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        """Undirected edges as (min,max) pairs, sorted; loops as (v,v)."""
        out = []
        for x in range(self.n):
            row = self.adj[x] >> x
            for y in bits_of(row):
                out.append((x, x + y))
        out.sort()
        return out

    def edge_count(self) -> int:
        return sum((self.adj[x] >> x).bit_count() for x in range(self.n))

    def relabel(self, p: Permutation) -> "Graph":
        if len(p) != self.n:
            raise UsageError("permutation length does not match vertex count")
        return Graph(self.n, relabel_rows(self.adj, p.image))

    def _kept(self, name: str, compute):
        """compute(), run once per Graph object and kept in its __dict__,
        which ==, hash, repr and asdict (the fields only) do not read."""
        kept = self.__dict__
        return kept[name] if name in kept else kept.setdefault(name, compute())

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise UsageError(f"vertex {v} out of range for n={self.n}")


@dataclass(frozen=True)
class Digraph:
    n: int
    arcs: tuple[int, ...]

    def __post_init__(self):
        rows = tuple(self.arcs)
        object.__setattr__(self, "arcs", rows)
        _check_shape(self.n, rows)

    def is_symmetric(self) -> bool:
        for x in range(self.n):
            for y in bits_of(self.arcs[x]):
                if not self.arcs[y] >> x & 1:
                    return False
        return True

    def to_graph(self) -> Graph:
        if not self.is_symmetric():
            raise UsageError("arc set is not symmetric; not a graph")
        return Graph(self.n, self.arcs)


@dataclass(frozen=True)
class NeighborhoodMultiset:
    """Canonical form: each entry sorted ascending, entries sorted lexicographically."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        canon = tuple(sorted(tuple(sorted(e)) for e in self.entries))
        object.__setattr__(self, "entries", canon)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


@dataclass(frozen=True)
class RPartition:
    """Vertices grouped by equal open neighborhood; blocks keyed by least member."""

    classes: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        canon = tuple(sorted(tuple(sorted(b)) for b in self.classes))
        object.__setattr__(self, "classes", canon)

    def same_block(self, x: int, y: int) -> bool:
        return self.block_of(x) is self.block_of(y)

    def block_of(self, x: int) -> tuple[int, ...]:
        for block in self.classes:
            if x in block:
                return block
        raise UsageError(f"vertex {x} not covered by partition")


def component_masks(n: int, rows) -> list[int]:
    """Vertex masks of connected components, ordered by least vertex.

    Loops never join anything: a looped isolated vertex is its own component.
    """
    seen = 0
    comps = []
    for v in range(n):
        if seen >> v & 1:
            continue
        frontier = 1 << v
        comp = 0
        while frontier:
            comp |= frontier
            nxt = 0
            m = frontier
            # inline bit loop, not bits_of: runs for every graph of the sweeps
            while m:
                b = m & -m
                nxt |= rows[b.bit_length() - 1]
                m ^= b
            frontier = nxt & ~comp
        comps.append(comp)
        seen |= comp
    return comps


def neighborhood(g: Graph, x: int) -> frozenset[int]:
    """Open neighborhood N(x); contains x iff x has a loop."""
    g._check_vertex(x)
    return frozenset(bits_of(g.adj[x]))


def neighborhood_multiset(g: Graph) -> NeighborhoodMultiset:
    return NeighborhoodMultiset(tuple(tuple(bits_of(row)) for row in g.adj))


def multiset_key(rows: tuple[int, ...]) -> tuple[int, ...]:
    """Order-free fingerprint of {N(x)}; equal keys iff equal multisets."""
    return tuple(sorted(rows))


def twin_classes(rows) -> tuple[list[list[int]], list[int]]:
    """The equal-row (equal open neighborhood) classes, each ascending and
    numbered in order of its least vertex, and each vertex's class number."""
    number: dict[int, int] = {}
    home = [number.setdefault(row, len(number)) for row in rows]
    classes: list[list[int]] = [[] for _ in number]
    for v, c in enumerate(home):
        classes[c].append(v)
    return classes, home


def twin_quotient(rows, classes: list[list[int]]) -> tuple[int, ...]:
    """Rows of the graph Q of the equal-row classes of rows (twin_classes),
    class d numbered by its place in classes: C is adjacent to D (to itself
    when looped) when G's vertices of C are adjacent to those of D."""
    return tuple(sum(1 << d for d, vs in enumerate(classes) if rows[c[0]] >> vs[0] & 1)
                 for c in classes)


def r_partition(g: Graph) -> RPartition:
    return RPartition(tuple(map(tuple, twin_classes(g.adj)[0])))


def disjoint_union(g: Graph, h: Graph) -> Graph:
    n = g.n + h.n
    if n > MAX_N:
        raise CapacityError(f"disjoint union has {n} > {MAX_N} vertices")
    rows = list(g.adj) + [row << g.n for row in h.adj]
    return Graph(n, tuple(rows))


def upper_cells(n: int, loops_allowed: bool) -> list[tuple[int, int]]:
    """Row-major upper-triangle cells; diagonal included when loops are allowed."""
    lo = 0 if loops_allowed else 1
    return [(i, j) for i in range(n) for j in range(i + lo, n)]


# each byte with its bit order reversed
_REVERSED_BYTES = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def adjacency_index(n: int, rows, loops_allowed: bool = True) -> int:
    """Position of rows in iter_adj_rows(n, loops_allowed): the upper-triangle
    bit vector, cell (0,0) (loopless: (0,1)) most significant. Only cells on
    or above the diagonal (loopless: above it) are read, so on symmetric rows
    the index orders graphs like row-major comparison of their adjacency
    matrices. Up to 8 vertices each row is reversed by a table lookup."""
    lo = 0 if loops_allowed else 1
    k = 0
    if n <= 8:
        shift = 8 - n
        for i, row in enumerate(rows):
            width = n - i - lo
            k = k << width | _REVERSED_BYTES[row] >> shift & (1 << width) - 1
        return k
    for i, row in enumerate(rows):
        width = n - i - lo  # cells (i, i + lo) .. (i, n-1), most significant first
        k <<= width
        m = row >> i + lo
        # inline bit loop, not bits_of: one call per certificate and per G^a lookup
        while m:
            b = m & -m
            k |= 1 << (width - b.bit_length())
            m ^= b
    return k


def iter_adj_rows(
    n: int, loops_allowed: bool, *, start: int = 0, stop: int | None = None
) -> Iterator[tuple[int, ...]]:
    """Every labeled graph on n vertices, in lexicographic order over the
    upper-triangle bit vector (cell (0,0) or (0,1) is the most significant bit).

    start/stop select a slice of enumeration indices, such as the one graph
    at a given index.
    """
    cells = upper_cells(n, loops_allowed)
    m = len(cells)
    if stop is None:
        stop = 1 << m
    if not 0 <= start <= stop <= 1 << m:
        raise UsageError(f"bad enumeration slice [{start}, {stop}) for m={m}")
    if start == stop:
        return
    # bit b of the counter corresponds to cell m-1-b
    cell_i = [0] * m
    cell_j = [0] * m
    for b in range(m):
        i, j = cells[m - 1 - b]
        cell_i[b] = i
        cell_j[b] = j
    rows = [0] * n
    for bpos in range(m):
        if start >> bpos & 1:
            i = cell_i[bpos]
            j = cell_j[bpos]
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    yield tuple(rows)
    for k in range(start + 1, stop):
        changed = k ^ (k - 1)
        # inline bit loop, not bits_of: runs once per enumerated graph
        while changed:
            b = changed & -changed
            bpos = b.bit_length() - 1
            i = cell_i[bpos]
            j = cell_j[bpos]
            rows[i] ^= 1 << j
            if i != j:
                rows[j] ^= 1 << i
            changed ^= b
        yield tuple(rows)


def enumerate_count(n: int, loops_allowed: bool) -> int:
    return 1 << len(upper_cells(n, loops_allowed))


def enumerate_labeled_graphs(
    n: int, loops_allowed: bool, *, force: bool = False
) -> Iterator[Graph]:
    """Stream of all labeled graphs on 0..n-1, lexicographic (see iter_adj_rows)."""
    limit = ENUM_MAX_LOOPS if loops_allowed else ENUM_MAX_SIMPLE
    mode = "loops" if loops_allowed else "loopless"
    CapacityError.check(n, limit, force, f"enumeration of n={n} ({mode})")
    for rows in iter_adj_rows(n, loops_allowed):
        yield Graph(n, rows)


def all_permutations(n: int) -> Iterator[tuple[int, ...]]:
    return itertools.permutations(range(n))
