"""Direct products, components, bipartiteness.

Product vertices are encoded row-major: the pair (x, x') of G x H becomes
x * n(H) + x'. Fixtures and the CLI rely on this being bit-exact.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import CapacityError, UsageError
from .graphs import MAX_N, Graph, bits_of, component_masks


def direct_product(g: Graph, h: Graph) -> Graph:
    n = g.n * h.n
    if n > MAX_N:
        raise CapacityError(f"product has {g.n}*{h.n}={n} > {MAX_N} vertices")
    nh = h.n
    rows = [0] * n
    for x in range(g.n):
        gm = g.adj[x]
        if not gm:
            continue
        for xp in range(nh):
            hrow = h.adj[xp]
            if not hrow:
                continue
            acc = 0
            m = gm
            # inline bit loop, not bits_of: runs once per pair of factor vertices
            while m:
                b = m & -m
                acc |= hrow << (b.bit_length() - 1) * nh
                m ^= b
            rows[x * nh + xp] = acc
    return Graph(n, tuple(rows))


def components(g: Graph) -> list[tuple[int, ...]]:
    """Connected components as sorted vertex tuples, ordered by least vertex."""
    return [tuple(bits_of(mask)) for mask in component_masks(g.n, g.adj)]


@dataclass(frozen=True)
class Bipartition:
    """Per-component partite sets, each a sorted tuple; sides is None for a
    non-bipartite component.

    Each bipartite component's X side contains its lowest vertex. odd_walk is
    a closed walk of odd length (first vertex repeated last) from the first
    non-bipartite component; a loop shows up as the length-1 walk (v, v).
    """

    component_sides: tuple[tuple[tuple[int, ...], tuple[int, ...]] | None, ...]
    odd_walk: tuple[int, ...] | None

    @property
    def is_bipartite(self) -> bool:
        return self.odd_walk is None

    def left(self) -> frozenset[int]:
        """Union of the X_i over bipartite components."""
        acc: set[int] = set()
        for sides in self.component_sides:
            if sides is not None:
                acc.update(sides[0])
        return frozenset(acc)

    def right(self) -> frozenset[int]:
        acc: set[int] = set()
        for sides in self.component_sides:
            if sides is not None:
                acc.update(sides[1])
        return frozenset(acc)

    def sides_of_component(self, index: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        if not 0 <= index < len(self.component_sides):
            raise UsageError(f"no component {index}")
        sides = self.component_sides[index]
        if sides is None:
            raise UsageError(f"component {index} is not bipartite")
        return sides


def bipartition(g: Graph) -> Bipartition:
    """2-color every component; report the first odd closed walk found."""
    n = g.n
    rows = g.adj
    color = [-1] * n
    parent = [-1] * n
    per_comp: list[tuple[tuple[int, ...], tuple[int, ...]] | None] = []
    odd_walk: tuple[int, ...] | None = None
    seen = 0
    for start in range(n):
        if seen >> start & 1:
            continue
        if rows[start] >> start & 1 and odd_walk is None:
            odd_walk = (start, start)
        color[start] = 0
        queue = [start]
        comp = [start]
        seen |= 1 << start
        qi = 0
        comp_odd = rows[start] >> start & 1
        while qi < len(queue):
            u = queue[qi]
            qi += 1
            m = rows[u]
            # inline bit loop, not bits_of: runs for every graph of the sweeps
            while m:
                b = m & -m
                w = b.bit_length() - 1
                m ^= b
                if w == u:
                    if not comp_odd:
                        comp_odd = True
                        if odd_walk is None:
                            odd_walk = (u, u)
                    continue
                if color[w] == -1:
                    color[w] = 1 - color[u]
                    parent[w] = u
                    seen |= 1 << w
                    comp.append(w)
                    queue.append(w)
                elif color[w] == color[u]:
                    if not comp_odd:
                        comp_odd = True
                        if odd_walk is None:
                            odd_walk = _close_walk(parent, u, w)
        if comp_odd:
            per_comp.append(None)
        else:
            xs = tuple(sorted(v for v in comp if color[v] == 0))
            ys = tuple(sorted(v for v in comp if color[v] == 1))
            per_comp.append((xs, ys))
    return Bipartition(tuple(per_comp), odd_walk)


def _close_walk(parent: list[int], u: int, w: int) -> tuple[int, ...]:
    """Closed odd walk through the tree paths of u and w plus the edge wu."""
    up = [u]
    while parent[up[-1]] != -1:
        up.append(parent[up[-1]])
    down = [w]
    while parent[down[-1]] != -1:
        down.append(parent[down[-1]])
    # both end at the BFS root; trim the shared tail to the lowest common ancestor
    while len(up) > 1 and len(down) > 1 and up[-2] == down[-2]:
        up.pop()
        down.pop()
    walk = up + down[-2::-1] + [u]
    return tuple(walk)


def is_bipartite(g: Graph) -> bool:
    return bipartition(g).is_bipartite
