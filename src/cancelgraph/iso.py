"""Canonical forms, isomorphism, automorphisms.

The canonical form is computed per connected component by color refinement
plus individualization: starting colors are (loop flag, neighborhood size),
refinement re-colors by sorted neighbor colors until stable, and when classes
remain ambiguous the search individualizes each vertex of the smallest class
in turn, keeping the relabeling whose adjacency encoding (see graphs) is
least. The certificate is that encoding of the canonical rows, read off the
least leaf's key. A target class made only of mutual twins is individualized
without a refinement round; canon_connected says why that is exact, and
what keeps each node cheap. The
components of a disconnected graph go through a cache keyed by their compact
rows, so a component that recurs, as G does in G + G and in the G x K2 of a
connected bipartite G, is searched once; a connected graph is searched
directly and adds no entry.

Known automorphisms prune sibling branches: a cell vertex is skipped when it
lies in the orbit of a tried vertex under the group that the known
automorphisms fixing the prefix generate. The twin swaps, each transposition
of two vertices whose rows agree off their own two bits, are known before the
search starts; every other automorphism is found at an equal-encoding leaf.

stamp_orbit enumerates an isomorphism class the other way round: it closes
one labeled graph's enumeration index under two relabelings that generate
every permutation, so that an exhaustive scan can visit each class once
instead of each graph. It checks the class size against n!/|Aut(G)|, with
|Aut(G)| counted on the graph of the equal-row classes.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial, prod
from typing import Iterator

from .errors import CapacityError, InvariantViolationError
from .graphs import (
    _REVERSED_BYTES,
    Graph,
    Permutation,
    adjacency_index,
    bits_of,
    component_masks,
    invert,
    is_involution,
    maps_neighborhoods,
    permute_mask,
    twin_classes,
    twin_quotient,
    upper_cells,
)

AUT_MAX = 8


# each byte's set bits, ascending: those of x + 2^b are those of x, then b
_BYTE_BITS: list = [()]
for _b in range(8):
    _BYTE_BITS += [bits + (_b,) for bits in _BYTE_BITS]


def _setup(n: int, rows: tuple[int, ...]) -> tuple[list, list[int]]:
    """The neighbours, those below 8 from a table, and start colours, in one
    pass over the rows. The start colour loop * (n + 1) + degree orders
    vertices by (loop, degree), and _refine's result depends only on the
    order of the colours."""
    nbrs = []
    start = []
    for v, m in enumerate(rows):
        nb = _BYTE_BITS[m & 255]
        x = m >> 8 << 8
        if x:
            nb = list(nb)
            while x:
                b = x & -x
                nb.append(b.bit_length() - 1)
                x ^= b
        nbrs.append(nb)
        start.append((m >> v & 1) * (n + 1) + len(nb))
    return nbrs, start


def _refine(n: int, nbrs: list, colors: list[int]) -> list[int]:
    """Stable re-coloring: a round sorts the vertices on (color, sorted
    neighbor colors) and numbers the runs, so colors come out dense. A
    discrete coloring is stable, so it is ranked without a round, and a
    round that makes one is the last."""
    ncolors = len(set(colors))
    if ncolors == n:
        new = [0] * n
        for i, v in enumerate(sorted(range(n), key=colors.__getitem__)):
            new[v] = i
        return new
    while True:
        get = colors.__getitem__
        sigs = [(c, sorted(map(get, nb))) for c, nb in zip(colors, nbrs)]
        colors = [0] * n
        k = 0
        prev = None
        for v in sorted(range(n), key=sigs.__getitem__):
            if sigs[v] != prev:
                prev = sigs[v]
                k += 1
            colors[v] = k - 1
        if k == ncolors or k == n:
            return colors
        ncolors = k


def _leaf_key(n: int, nbrs: list, perm: list[int]) -> tuple[int, ...]:
    """Relabeled rows with reversed bit order, so tuple comparison matches
    row-major lexicographic comparison of the adjacency encoding."""
    bit = [1 << n - 1 - p for p in perm]
    out = [0] * n
    for p, nb in zip(perm, nbrs):
        out[p] = sum(map(bit.__getitem__, nb))
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


def _twin_swaps(n: int, rows: tuple[int, ...]) -> tuple[list[tuple[int, ...]], list[int]]:
    """Each transposition (u w) that is an automorphism, w the next such
    partner of u, as image tuples, and each vertex's twin representative,
    the least vertex of its class. (u w) is one iff rows[u] and rows[w] agree
    off bits u and w and u and w have the same loop bit, that is iff the rows
    are equal (u, w adjacent iff looped) or equal once each has its own bit
    flipped (adjacent iff unlooped). Being such a pair is an equivalence, and
    the swaps of each vertex to its next partner generate each class's whole
    symmetric group."""
    swaps = []
    twin = list(range(n))
    seen: dict[int, int] = {}  # a flipped row keyed by its complement, < 0
    for w, row in enumerate(rows):
        for key in (row, ~(row ^ 1 << w)):
            u = seen.get(key)
            seen[key] = w
            if u is not None:
                swap = list(range(n))
                swap[u], swap[w] = w, u
                swaps.append(tuple(swap))
                twin[w] = twin[u]
    return swaps, twin


def _rows_of_key(n: int, key: tuple[int, ...]) -> tuple[int, ...]:
    """The rows a leaf key stands for: each n-bit row with its bit order
    reversed back, bytewise."""
    shift = -n % 8
    if n <= 8:
        return tuple([_REVERSED_BYTES[k << shift] for k in key])
    size = (n + shift) >> 3
    return tuple([int.from_bytes((k << shift).to_bytes(size, "little").translate(_REVERSED_BYTES), "big")
                  for k in key])


def canon_connected(n: int, rows: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Canonical rows and the old->new relabeling, for a connected graph.

    The search starts from the twin swaps as known automorphisms and adds
    each automorphism it finds at a leaf whose key equals the least one.
    Pruning skips only subtrees that are images of searched ones under
    automorphisms fixing the prefix, so the first least leaf, and with it
    the rows and the relabeling, is the same whichever automorphisms are
    known.

    A target cell of mutual twins is individualized least member first, one
    new colour each, without a _refine call: every other cell is joined to
    all of it or to none, so _refine would only give the member the next new
    colour, and the other members root images of its subtree under twin
    swaps that fix the prefix, searched after it. The rest of the cell is
    then the smallest cell, so the whole class goes in turn, and its last
    member keeps the cell's colour.

    Per node: colours stay dense, so a leaf has n of them and a node counts
    its cells in a list; a leaf key sums neighbour bits from one table."""
    if n <= 1:
        return tuple(rows), tuple(range(n))
    nbrs, start = _setup(n, rows)
    swaps, twin = _twin_swaps(n, rows)
    best: list = [None, None, None]  # least key, its relabeling, inverse if used
    autos = list(swaps)

    def descend(colors: list[int], prefix: list[int]) -> None:
        k = max(colors) + 1
        if k == n:
            key = _leaf_key(n, nbrs, colors)
            if best[0] is None or key < best[0]:
                best[:] = key, colors, None
            elif key == best[0]:
                best[2] = best[2] or invert(best[1])
                autos.append(tuple(map(best[2].__getitem__, colors)))
            return
        counts = [0] * k
        for c in colors:
            counts[c] += 1
        # the least colour of the smallest cell that is not a singleton
        target = counts.index(min(filter((1).__lt__, counts)))
        cell = [v for v, c in enumerate(colors) if c == target]
        if swaps and all(map(twin[cell[0]].__eq__, map(twin.__getitem__, cell))):
            # the twin step; colors is this search's own list
            for i, v in enumerate(cell[:-1]):
                colors[v] = k + i
            descend(colors, prefix + cell[:-1])
            return
        # orbit: the tried vertices' orbits under the known automorphisms that
        # fix the prefix; a vertex in it roots the image of a searched subtree.
        # The group, not single images: 9% fewer search nodes on analyze-mix
        orbit = used = 0
        gens: list[tuple[int, ...]] = []
        for v in cell:
            if orbit and not orbit >> v & 1 and used < len(autos):
                gens.extend(s for s in autos[used:] if all(s[p] == p for p in prefix))
                used = len(autos)
                orbit = _orbit_mask(orbit, gens)
            if orbit >> v & 1:
                continue
            child = list(colors)
            child[v] = n + len(prefix)
            descend(_refine(n, nbrs, child), prefix + [v])
            orbit = _orbit_mask(orbit | 1 << v, gens)

    descend(_refine(n, nbrs, start), [])
    return _rows_of_key(n, best[0]), tuple(best[1])


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


# repeats come within a few calls: 64 entries keep every hit of an unbounded
# cache on _bip_classes(7) and verify_theorems(5, True, bip_max=6), 3560 of
# 3852 on verify_theorems(6, False) and 6777 of 7211 on a seed-1 analyze-mix
# round, where 2^14 entries (1184 held) raised peak RSS by 0.37 MiB
@lru_cache(maxsize=64)
def _canon_component(n: int, rows: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """canon_connected on one component of a disconnected graph, kept."""
    return canon_connected(n, rows)


def canon_rows(n: int, rows: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Component-aware canonical rows plus the full old->new relabeling; each
    component's search starts from its twin swaps alone (canon_connected)."""
    comps = component_masks(n, rows)
    if len(comps) <= 1:
        return canon_connected(n, tuple(rows))
    pieces = []
    for mask in comps:
        verts = list(bits_of(mask))
        local = compact_rows(rows, mask)
        crows, cperm = _canon_component(len(verts), local)
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
    nbrs, start = _setup(n, rows)
    colors = _refine(n, nbrs, start)
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
    CapacityError.check(g.n, AUT_MAX, force, "automorphism listing")
    return [Permutation(img) for img in iter_automorphism_images(g.n, g.adj)]


def involution_witness(g: Graph) -> Permutation | None:
    """Lexicographically least order-2 automorphism, or None, kept on the
    Graph. Verify's main pass reads it, and the decider's first route on
    graphs without twins. This search fills it, or decide.classify off its
    Ant listing when it runs first on a graph without twins. They agree, as
    the involutions in Ant(G) are the involutory automorphisms and both
    searches ascend."""
    img = g._kept("_involution", lambda: next(
        filter(is_involution, iter_automorphism_images(g.n, g.adj)), None))
    return None if img is None else Permutation(img)


def has_involution(g: Graph) -> bool:
    return involution_witness(g) is not None


def _relabel_tables(n: int, loops_allowed: bool, label: list[int]) -> tuple[tuple[int, ...], ...]:
    """Per chunk of an enumeration index, the bits its cells occupy once
    each vertex v takes the label label[v]. The m cells split into three
    chunks of ceil(m/3) bits, the last one shorter; an empty chunk gets a
    one-entry zero table. Entries are Python ints, so any m fits."""
    cells = upper_cells(n, loops_allowed)
    m = len(cells)
    bit_of = {cell: m - 1 - p for p, cell in enumerate(cells)}
    moved = []
    for bit in range(m):
        i, j = cells[m - 1 - bit]
        x, y = label[i], label[j]
        moved.append(bit_of[(min(x, y), max(x, y))])
    width = -(-m // 3)
    tables = []
    for lo in (0, width, 2 * width):
        span = max(0, min(width, m - lo))
        tables.append(tuple(
            sum(1 << moved[lo + t] for t in range(span) if chunk >> t & 1)
            for chunk in range(1 << span)
        ))
    return tuple(tables)


@lru_cache(maxsize=2)
def _orbit_generators(n: int, loops_allowed: bool) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The tables of the transposition (0 1) and of the cycle v -> v+1
    (mod n), which together generate every permutation of 0..n-1; none for
    n < 2. That is 2 x 80 KiB of tables at 28 cells (n=8 loopless, the
    largest bipartite sweep the table bound admits)."""
    if n < 2:
        return ()
    swap = [1, 0] + list(range(2, n))
    cycle = [(v + 1) % n for v in range(n)]
    return tuple(_relabel_tables(n, loops_allowed, label) for label in (swap, cycle))


def _automorphism_count(rows: tuple[int, ...]) -> int:
    """|Aut(G)|, as |P| times the automorphisms of the twin-class graph Q
    (graphs.twin_quotient) that keep class sizes, P the permutations inside
    the equal-row classes: an automorphism maps each class onto one of its
    size, and so acts on Q, and each such automorphism s of Q lifts to |P|
    automorphisms of G, every bijection of each class C onto s(C). Without
    twins Q is G, every size is 1 and |P| = 1."""
    classes = twin_classes(rows)[0]
    sizes = [len(vs) for vs in classes]
    kept = sum(1 for s in iter_automorphism_images(len(sizes), twin_quotient(rows, classes))
               if [sizes[t] for t in s] == sizes)
    return kept * prod(map(factorial, sizes))


def stamp_orbit(n: int, rows, loops_allowed: bool, seen: bytearray) -> list[int]:
    """Set in the bitset seen (bit k is byte k >> 3, bit k & 7) the
    enumeration index in iter_adj_rows(n, loops_allowed) of every relabeling
    of rows, and return the indices newly set, rows' own first; none when
    rows' own bit was already set.

    The orbit is closed under the two generators of _orbit_generators:
    each member's images under both are stamped in turn until no new index
    turns up. The class must come out with n!/|Aut(rows)| members, the
    automorphisms counted through the twin-class graph
    (_automorphism_count); anything else raises InvariantViolationError."""
    k = adjacency_index(n, rows, loops_allowed)
    if seen[k >> 3] >> (k & 7) & 1:
        return []
    seen[k >> 3] |= 1 << (k & 7)
    members = [k]
    width = -(-len(upper_cells(n, loops_allowed)) // 3)
    low = (1 << width) - 1
    top = 2 * width
    generators = _orbit_generators(n, loops_allowed)
    if not generators:
        return members
    (s0, s1, s2), (c0, c1, c2) = generators
    # the loop over members also visits the members it appends. Each member
    # splits into its 3 chunks once, and each generator, the swap first, has
    # its own copy of the body: a loop over them took 1.3x as long on the
    # n=6 loops-allowed universe
    for x in members:
        a, b, c = x & low, x >> width & low, x >> top
        y = s0[a] | s1[b] | s2[c]
        byte = y >> 3
        bit = 1 << (y & 7)
        if not seen[byte] & bit:
            seen[byte] |= bit
            members.append(y)
        y = c0[a] | c1[b] | c2[c]
        byte = y >> 3
        bit = 1 << (y & 7)
        if not seen[byte] & bit:
            seen[byte] |= bit
            members.append(y)
    automorphisms = _automorphism_count(tuple(rows))
    if len(members) * automorphisms != factorial(n):
        raise InvariantViolationError(
            f"orbit of index {k} at n={n} has {len(members)} members, "
            f"expected {n}!/{automorphisms}"
        )
    return members
