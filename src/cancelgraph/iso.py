"""Canonical forms, isomorphism, automorphisms.

The canonical form is computed per connected component by color refinement
plus individualization: starting colors are (loop flag, neighborhood size),
refinement re-colors by sorted neighbor colors until stable, and when classes
remain ambiguous the search individualizes each vertex of the smallest class
in turn, keeping the relabeling whose adjacency encoding (see graphs) is
least. The certificate is that encoding of the canonical rows. A discrete
coloring is final, so it is renumbered without a refinement round.

Automorphisms discovered at equal-encoding leaves prune sibling branches: a
cell vertex is skipped when it lies in the orbit of a tried vertex under the
group the found automorphisms that fix the prefix generate.

stamp_orbit enumerates an isomorphism class the other way round: it walks
all n! relabelings of one labeled graph, acting on enumeration indices, so
that an exhaustive scan can visit each class once instead of each graph.
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import lru_cache
from math import factorial
from typing import Iterator

from .errors import CapacityError, InvariantViolationError
from .graphs import (
    Graph,
    Permutation,
    adjacency_index,
    bits_of,
    component_masks,
    invert,
    is_involution,
    maps_neighborhoods,
    permute_mask,
    upper_cells,
)

AUT_MAX = 8

# stamp_orbit reads an enumeration index in three chunks through 32-bit
# tables, so it covers universes of at most 32 cells (n <= 7 with loops,
# n <= 8 loopless)
ORBIT_MAX_CELLS = 32


def initial_colors(n: int, rows: tuple[int, ...]) -> list[int]:
    pairs = [(rows[v] >> v & 1, rows[v].bit_count()) for v in range(n)]
    rank = {p: i for i, p in enumerate(sorted(set(pairs)))}
    return [rank[p] for p in pairs]


def refine(n: int, rows: tuple[int, ...], colors: list[int]) -> list[int]:
    """Stable re-coloring: color plus sorted multiset of neighbor colors."""
    return _refine(n, _neighbour_lists(rows), colors)


def _neighbour_lists(rows: tuple[int, ...]) -> list[list[int]]:
    out = []
    for m in rows:
        nb = []
        # inline bit loop, not bits_of: once per refine call and per canonical-form search
        while m:
            b = m & -m
            nb.append(b.bit_length() - 1)
            m ^= b
        out.append(nb)
    return out


def _refine(n: int, nbrs: list[list[int]], colors: list[int]) -> list[int]:
    """refine over neighbour lists; a discrete coloring is stable, so it is
    renumbered without a round, and a round that makes one is the last."""
    ncolors = len(set(colors))
    if ncolors == n:
        rank = {c: i for i, c in enumerate(sorted(colors))}
        return [rank[c] for c in colors]
    while True:
        get = colors.__getitem__
        sigs = [(colors[v], tuple(sorted(map(get, nbrs[v])))) for v in range(n)]
        rank = {s: i for i, s in enumerate(sorted(set(sigs)))}
        colors = [rank[s] for s in sigs]
        if len(rank) == ncolors or len(rank) == n:
            return colors
        ncolors = len(rank)


def _leaf_key(n: int, rows: tuple[int, ...], perm: list[int]) -> tuple[int, ...]:
    """Relabeled rows with reversed bit order, so tuple comparison matches
    row-major lexicographic comparison of the adjacency encoding."""
    # one pass, not permute_mask then adjacency_index: 1.7x faster at n=5, 2.1x at n=8 (timeit)
    out = [0] * n
    top = n - 1
    for v in range(n):
        m = rows[v]
        acc = 0
        # inline bit loop, not bits_of: one call per search leaf
        while m:
            b = m & -m
            acc |= 1 << (top - perm[b.bit_length() - 1])
            m ^= b
        out[perm[v]] = acc
    return tuple(out)


def _orbit_mask(mask: int, gens: list[tuple[int, ...]]) -> int:
    """mask closed under the permutations gens, as a vertex bitmask."""
    frontier = mask
    while frontier:
        images = 0
        for s in gens:
            images |= permute_mask(frontier, s)
        frontier = images & ~mask
        mask |= frontier
    return mask


def canon_connected(n: int, rows: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Canonical rows and the old->new relabeling, for a connected graph."""
    if n <= 1:
        return tuple(rows), tuple(range(n))
    nbrs = _neighbour_lists(rows)
    best_key: list = [None]
    best_perm: list = [None]
    best_inv: list = [None]
    autos: list[tuple[int, ...]] = []

    def descend(colors: list[int], prefix: list[int]) -> None:
        counts: dict[int, int] = {}
        for c in colors:
            counts[c] = counts.get(c, 0) + 1
        target = -1
        tcount = n + 1
        for c, cnt in counts.items():
            if cnt > 1 and (cnt < tcount or (cnt == tcount and c < target)):
                target = c
                tcount = cnt
        if target < 0:
            # a discrete coloring from _refine is already 0..n-1
            key = _leaf_key(n, rows, colors)
            if best_key[0] is None or key < best_key[0]:
                best_key[0] = key
                best_perm[0] = colors
                best_inv[0] = invert(colors)
            elif key == best_key[0]:
                inv = best_inv[0]
                autos.append(tuple(inv[colors[v]] for v in range(n)))
            return
        # orbit: the tried vertices' orbits under the found automorphisms that
        # fix the prefix; a vertex in it roots the image of a searched subtree.
        # The group, not single images: 9% fewer search nodes on analyze-mix
        orbit = known = 0
        gens: list[tuple[int, ...]] = []
        for v in [v for v in range(n) if colors[v] == target]:
            if orbit and not orbit >> v & 1 and known < len(autos):
                gens.extend(s for s in autos[known:] if all(s[p] == p for p in prefix))
                known = len(autos)
                orbit = _orbit_mask(orbit, gens)
            if orbit >> v & 1:
                continue
            child = list(colors)
            child[v] = n + len(prefix)
            descend(_refine(n, nbrs, child), prefix + [v])
            orbit = _orbit_mask(orbit | 1 << v, gens)

    descend(_refine(n, nbrs, initial_colors(n, rows)), [])
    perm = best_perm[0]
    canon = [0] * n
    for v in range(n):
        canon[perm[v]] = permute_mask(rows[v], perm)  # type: ignore[arg-type]
    return tuple(canon), tuple(perm)


def compact_rows(rows, mask: int) -> tuple[int, ...]:
    """Rows of the induced subgraph on the set bits of mask, renumbered 0.."""
    verts = list(bits_of(mask))
    pos = {v: i for i, v in enumerate(verts)}
    out = []
    for v in verts:
        acc = 0
        m = rows[v] & mask
        # inline bit loop, not bits_of: one pass per row of every component
        while m:
            b = m & -m
            acc |= 1 << pos[b.bit_length() - 1]
            m ^= b
        out.append(acc)
    return tuple(out)


def canon_rows(n: int, rows: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Component-aware canonical rows plus the full old->new relabeling."""
    comps = component_masks(n, rows)
    if len(comps) <= 1:
        return canon_connected(n, tuple(rows))
    pieces = []
    for mask in comps:
        verts = list(bits_of(mask))
        local = compact_rows(rows, mask)
        crows, cperm = canon_connected(len(verts), local)
        pieces.append((len(verts), crows, verts, cperm))
    pieces.sort(key=lambda p: (p[0], p[1]))
    perm = [0] * n
    final: list[int] = []
    offset = 0
    for cn, crows, verts, cperm in pieces:
        for i, v in enumerate(verts):
            perm[v] = offset + cperm[i]
        final.extend(row << offset for row in crows)
        offset += cn
    return tuple(final), tuple(perm)


def cert_bytes(n: int, canon: tuple[int, ...]) -> bytes:
    """Certificate payload: version, order, then the adjacency index of the
    canonical rows, left-aligned in whole bytes."""
    cells = n * (n + 1) // 2
    size = (cells + 7) // 8
    return bytes((1, n)) + (adjacency_index(n, canon) << (8 * size - cells)).to_bytes(size, "big")


@dataclass(frozen=True, eq=False)
class Certificate:
    """Opaque isomorphism certificate; equal data iff isomorphic graphs."""

    data: bytes
    relabeling: Permutation

    def __eq__(self, other) -> bool:
        return isinstance(other, Certificate) and self.data == other.data

    def __hash__(self) -> int:
        return hash(self.data)

    def hex(self) -> str:
        return self.data.hex()


@lru_cache(maxsize=1 << 14)
def _canonical(n: int, rows: tuple[int, ...]) -> tuple[bytes, tuple[int, ...]]:
    canon, perm = canon_rows(n, rows)
    return cert_bytes(n, canon), perm


def canonical_form(g: Graph) -> Certificate:
    data, perm = _canonical(g.n, g.adj)
    return Certificate(data, Permutation(perm))


def canonical_graph(g: Graph) -> Graph:
    canon, _ = canon_rows(g.n, g.adj)
    return Graph(g.n, canon)


def is_isomorphic(g: Graph, h: Graph) -> bool:
    return g.n == h.n and canonical_form(g) == canonical_form(h)


def find_isomorphism(g: Graph, h: Graph) -> Permutation | None:
    """A vertex bijection carrying g onto h, or None."""
    if g.n != h.n:
        return None
    cg = canonical_form(g)
    ch = canonical_form(h)
    if cg.data != ch.data:
        return None
    phi = ch.relabeling.inverse().compose(cg.relabeling)
    if not maps_neighborhoods(g.adj, h.adj, phi.image, phi.image):
        raise InvariantViolationError("certificate-equal graphs failed edge check")
    return phi


def iter_automorphism_images(n: int, rows: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """All automorphism image vectors of symmetric rows, lexicographically
    ascending: img[v] ranges over one mask, the unused vertices of v's colour
    cell (which fixes the loop bit), ANDed with rows[img[u]] or its
    complement for each u < v as bit u of rows[v] is set or not."""
    if n == 0:
        yield ()
        return
    colors = refine(n, rows, initial_colors(n, rows))
    cells: dict[int, int] = {}
    for v in range(n):
        cells[colors[v]] = cells.get(colors[v], 0) | 1 << v
    img = [-1] * n

    # a mask per level, not a bit test per candidate: 1.1-1.6x faster on class
    # representatives and symmetric graphs, level on random n=8 graphs (timeit)
    def extend(v: int, used: int) -> Iterator[tuple[int, ...]]:
        if v == n:
            yield tuple(img)
            return
        rv = rows[v]
        cand = cells[colors[v]] & ~used
        for u in range(v):
            cand &= rows[img[u]] if rv >> u & 1 else ~rows[img[u]]
        while cand:
            b = cand & -cand
            cand ^= b
            img[v] = b.bit_length() - 1
            yield from extend(v + 1, used | b)
        img[v] = -1

    yield from extend(0, 0)


def automorphisms(g: Graph, *, force: bool = False) -> list[Permutation]:
    if g.n > AUT_MAX and not force:
        raise CapacityError(
            f"automorphism listing guarded at n<={AUT_MAX}; pass force=True to override"
        )
    return [Permutation(img) for img in iter_automorphism_images(g.n, g.adj)]


def involution_witness(g: Graph) -> Permutation | None:
    """Lexicographically least order-2 automorphism, or None."""
    for img in iter_automorphism_images(g.n, g.adj):
        if is_involution(img):
            return Permutation(img)
    return None


def has_involution(g: Graph) -> bool:
    return involution_witness(g) is not None


def _heap_swaps(n: int) -> Iterator[tuple[int, int]]:
    """The n! - 1 transpositions of Heap's algorithm: applied in turn, they
    run a relabeling through every permutation of 0..n-1 once."""
    count = [0] * n
    i = 1
    while i < n:
        if count[i] < i:
            yield (0 if i % 2 == 0 else count[i]), i
            count[i] += 1
            i = 1
        else:
            count[i] = 0
            i += 1


def _swap_tables(n: int, loops_allowed: bool, a: int, b: int) -> tuple[array, ...]:
    """Per chunk of an enumeration index, the bits its cells occupy once
    vertices a and b swap labels. The m cells split into three chunks of
    ceil(m/3) bits, the last one shorter; an empty chunk gets a one-entry
    zero table."""
    cells = upper_cells(n, loops_allowed)
    m = len(cells)
    bit_of = {cell: m - 1 - p for p, cell in enumerate(cells)}
    label = list(range(n))
    label[a], label[b] = b, a
    moved = []
    for bit in range(m):
        i, j = cells[m - 1 - bit]
        x, y = label[i], label[j]
        moved.append(bit_of[(min(x, y), max(x, y))])
    width = -(-m // 3)
    tables = []
    for lo in (0, width, 2 * width):
        span = max(0, min(width, m - lo))
        tables.append(array("I", [
            sum(1 << moved[lo + t] for t in range(span) if chunk >> t & 1)
            for chunk in range(1 << span)
        ]))
    return tuple(tables)


@lru_cache(maxsize=2)
def _orbit_steps(n: int, loops_allowed: bool) -> tuple[tuple[array, ...], ...]:
    """The tables of each Heap swap, in order. There are at most n(n-1)/2
    distinct swaps, so at most 28 x 3 x 4 KiB of tables at 28 cells (n=7
    with loops, n=8 loopless); the step tuple shares them."""
    m = len(upper_cells(n, loops_allowed))
    if m > ORBIT_MAX_CELLS:
        raise CapacityError(
            f"orbit stamping covers at most {ORBIT_MAX_CELLS} cells, not {m}"
        )
    tables: dict[tuple[int, int], tuple[array, ...]] = {}
    steps = []
    for pair in _heap_swaps(n):
        if pair not in tables:
            tables[pair] = _swap_tables(n, loops_allowed, *pair)
        steps.append(tables[pair])
    return tuple(steps)


def stamp_orbit(n: int, rows, loops_allowed: bool, seen: bytearray) -> list[int]:
    """Set in the bitset seen (bit k is byte k >> 3, bit k & 7) the
    enumeration index in iter_adj_rows(n, loops_allowed) of every relabeling
    of rows, and return the indices newly set, rows' own first; none when
    rows' own bit was already set.

    The relabelings are walked in Heap's order, one vertex swap per step.
    The class must come out with n!/|Aut(rows)| members, the automorphisms
    counted by iter_automorphism_images; anything else raises
    InvariantViolationError."""
    k = adjacency_index(n, rows, loops_allowed)
    if seen[k >> 3] >> (k & 7) & 1:
        return []
    seen[k >> 3] |= 1 << (k & 7)
    members = [k]
    x = k
    width = -(-len(upper_cells(n, loops_allowed)) // 3)
    low = (1 << width) - 1
    top = 2 * width
    # one loop body for every n, unrolled over the 3 chunks: a loop over
    # the chunks took 1.3x as long on the n=6 loops-allowed universe
    for t0, t1, t2 in _orbit_steps(n, loops_allowed):
        x = t0[x & low] | t1[x >> width & low] | t2[x >> top]
        byte = x >> 3
        bit = 1 << (x & 7)
        if not seen[byte] & bit:
            seen[byte] |= bit
            members.append(x)
    automorphisms = sum(1 for _ in iter_automorphism_images(n, tuple(rows)))
    if len(members) * automorphisms != factorial(n):
        raise InvariantViolationError(
            f"orbit of index {k} at n={n} has {len(members)} members, "
            f"expected {n}!/{automorphisms}"
        )
    return members
