"""Canonical forms, isomorphism, automorphisms.

The canonical form is computed per connected component by color refinement
plus individualization: starting colors are (loop flag, neighborhood size),
refinement re-colors by sorted neighbor colors until stable, and when classes
remain ambiguous the search individualizes each vertex of the smallest class
in turn, keeping the relabeling whose adjacency encoding is lexicographically
least. The encoding orders upper-triangle cells (diagonal included) row-major
with 0 < 1, so certificates are comparable across the whole package.

Automorphisms discovered at equal-encoding leaves prune sibling branches.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .errors import CapacityError, InvariantViolationError
from .graphs import Graph, Permutation, bits_of, component_masks, permute_mask

AUT_MAX = 8


def initial_colors(n: int, rows: tuple[int, ...]) -> list[int]:
    pairs = [(rows[v] >> v & 1, rows[v].bit_count()) for v in range(n)]
    rank = {p: i for i, p in enumerate(sorted(set(pairs)))}
    return [rank[p] for p in pairs]


def refine(n: int, rows: tuple[int, ...], colors: list[int]) -> list[int]:
    """Stable re-coloring: color plus sorted multiset of neighbor colors."""
    ncolors = len(set(colors))
    while True:
        sigs = []
        for v in range(n):
            m = rows[v]
            nb = []
            # inline bit loop, not bits_of: this is the canonical form's inner loop
            while m:
                b = m & -m
                nb.append(colors[b.bit_length() - 1])
                m ^= b
            nb.sort()
            sigs.append((colors[v], tuple(nb)))
        rank = {s: i for i, s in enumerate(sorted(set(sigs)))}
        colors = [rank[s] for s in sigs]
        if len(rank) == ncolors:
            return colors
        ncolors = len(rank)


def _leaf_key(n: int, rows: tuple[int, ...], perm: list[int]) -> tuple[int, ...]:
    """Relabeled rows with reversed bit order, so tuple comparison matches
    row-major lexicographic comparison of the adjacency encoding."""
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


def adjacency_key(n: int, rows) -> tuple[int, ...]:
    """Comparison key realizing the row-major upper-triangle bit order."""
    top = n - 1
    out = []
    for row in rows:
        acc = 0
        m = row
        # inline bit loop, not bits_of: runs once per non-isomorphic G^a in classify
        while m:
            b = m & -m
            acc |= 1 << (top - (b.bit_length() - 1))
            m ^= b
        out.append(acc)
    return tuple(out)


def canon_connected(n: int, rows: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Canonical rows and the old->new relabeling, for a connected graph."""
    if n <= 1:
        return tuple(rows), tuple(range(n))
    best_key: list = [None]
    best_perm: list = [None]
    best_inv: list = [None]
    autos: set[tuple[int, ...]] = set()

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
            perm = [0] * n
            for pos, v in enumerate(sorted(range(n), key=colors.__getitem__)):
                perm[v] = pos
            key = _leaf_key(n, rows, perm)
            if best_key[0] is None or key < best_key[0]:
                best_key[0] = key
                best_perm[0] = perm
                inv = [0] * n
                for v, p in enumerate(perm):
                    inv[p] = v
                best_inv[0] = inv
            elif key == best_key[0]:
                inv = best_inv[0]
                autos.add(tuple(inv[perm[v]] for v in range(n)))
            return
        cell = [v for v in range(n) if colors[v] == target]
        tried: list[int] = []
        for v in cell:
            if tried and any(
                all(s[p] == p for p in prefix) and any(s[u] == v for u in tried)
                for s in autos
            ):
                continue
            child = list(colors)
            child[v] = n + len(prefix)
            descend(refine(n, rows, child), prefix + [v])
            tried.append(v)

    descend(refine(n, rows, initial_colors(n, rows)), [])
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
    """Certificate payload: version, order, packed upper-triangle bits."""
    bits = []
    for i in range(n):
        row = canon[i]
        for j in range(i, n):
            bits.append(row >> j & 1)
    packed = bytearray([1, n])
    acc = 0
    width = 0
    for bit in bits:
        acc = acc << 1 | bit
        width += 1
        if width == 8:
            packed.append(acc)
            acc = 0
            width = 0
    if width:
        packed.append(acc << (8 - width))
    return bytes(packed)


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


def _quick_profile(g: Graph) -> tuple:
    return (g.n, sorted((row >> v & 1, row.bit_count()) for v, row in enumerate(g.adj)))


def is_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n:
        return False
    if _quick_profile(g) != _quick_profile(h):
        return False
    return canonical_form(g) == canonical_form(h)


def find_isomorphism(g: Graph, h: Graph) -> Permutation | None:
    """A vertex bijection carrying g onto h, or None."""
    if g.n != h.n:
        return None
    cg = canonical_form(g)
    ch = canonical_form(h)
    if cg.data != ch.data:
        return None
    phi = ch.relabeling.inverse().compose(cg.relabeling)
    img = phi.image
    for x in range(g.n):
        if permute_mask(g.adj[x], img) != h.adj[img[x]]:
            raise InvariantViolationError("certificate-equal graphs failed edge check")
    return phi


def iter_automorphism_images(n: int, rows: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """All automorphism image vectors, lexicographically ascending."""
    if n == 0:
        yield ()
        return
    colors = refine(n, rows, initial_colors(n, rows))
    members: dict[int, list[int]] = {}
    for v in range(n):
        members.setdefault(colors[v], []).append(v)
    img = [-1] * n

    def extend(v: int, used: int) -> Iterator[tuple[int, ...]]:
        if v == n:
            yield tuple(img)
            return
        for w in members[colors[v]]:
            if used >> w & 1:
                continue
            ok = True
            for u in range(v):
                if rows[v] >> u & 1 != rows[w] >> img[u] & 1:
                    ok = False
                    break
            if ok and rows[v] >> v & 1 == rows[w] >> w & 1:
                img[v] = w
                yield from extend(v + 1, used | 1 << w)
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
        if any(img[v] != v for v in range(g.n)) and all(
            img[img[v]] == v for v in range(g.n)
        ):
            return Permutation(img)
    return None


def has_involution(g: Graph) -> bool:
    return involution_witness(g) is not None
