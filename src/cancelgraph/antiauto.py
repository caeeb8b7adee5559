"""Anti-automorphisms, the permuted graph, two-fold automorphisms, orbits.

A permutation a is an anti-automorphism of G when xy in E(G) iff
a(x)a^-1(y) in E(G); equivalently N(a(x)) = a^-1(N(x)) for every x. The
permuted graph G^a has edge set {x a(y) | xy in E(G)} and is a graph (rather
than a digraph) exactly when a is an anti-automorphism.

Aut^TF(G) is the group of pairs (lambda, mu) with xy in E(G) iff
lambda(x)mu(y) in E(G); it acts on Ant(G) by (lambda, mu) . a =
lambda a mu^-1, and the orbits of that action group the a by isomorphism
type of G^a.

Two-fold pairs have one search, iter_two_fold(src, dst), over pairs with
lambda(N_src(x)) = N_dst(mu(x)). It yields one pair per lambda; the other
pairs of that lambda permute mu inside the equal-row classes. Aut^TF(G)
(enumerate_aut_tf), its orbit generators (_tf_generators) and the
product-isomorphism witness (oracle.extract_anti_from_product_iso, src and
dst two graphs) all come from it.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import (
    CapacityError,
    InvalidActionError,
    InvalidAntiError,
    InvariantViolationError,
    UsageError,
)
from .graphs import (
    Digraph,
    Graph,
    Permutation,
    invert,
    maps_neighborhoods,
    permute_mask,
    row_classes,
)
from .iso import _canonical

ANT_MAX = 8
TF_MAX = 6


def _require_length(g: Graph, p: Permutation) -> None:
    if len(p) != g.n:
        raise UsageError(f"permutation length {len(p)} does not match n={g.n}")


def is_anti_automorphism(g: Graph, a: Permutation) -> bool:
    _require_length(g, a)
    return maps_neighborhoods(g.adj, g.adj, invert(a.image), a.image)


def permuted_digraph(g: Graph, p: Permutation) -> Digraph:
    """Arc x -> p(y) for every edge xy; symmetric iff p is an anti-automorphism."""
    _require_length(g, p)
    return Digraph(g.n, tuple(permute_mask(row, p.image) for row in g.adj))


def apply_anti_rows(rows: tuple[int, ...], image: tuple[int, ...]) -> tuple[int, ...]:
    """Rows of G^a, assuming image really is an anti-automorphism."""
    return tuple(permute_mask(row, image) for row in rows)


def apply_anti(g: Graph, a: Permutation) -> Graph:
    if not is_anti_automorphism(g, a):
        raise InvalidAntiError(f"{a.image} is not an anti-automorphism of this graph")
    return Graph(g.n, apply_anti_rows(g.adj, a.image))


def iter_ant_images(n: int, rows: tuple[int, ...]):
    """Anti-automorphism image vectors, lexicographically ascending, of
    symmetric rows (a Graph's).

    Backtracking over images in index order. Assigning img[v]=w fixes a value
    of the permutation and one of its inverse, so each placed u < v requires
    A[v][img[u]] == A[w][u] and A[u][w] == A[img[u]][v]. Both read one cell
    pair, so u ANDs rows[u] or its complement into one mask of v's unused
    candidates of v's degree, walked from its lowest bit up.
    """
    by_deg: dict[int, int] = {}
    for w, r in enumerate(rows):
        by_deg[r.bit_count()] = by_deg.get(r.bit_count(), 0) | 1 << w
    same_deg = [by_deg[r.bit_count()] for r in rows]
    img = [-1] * n

    def extend(v: int, used: int):
        if v == n:
            yield tuple(img)
            return
        rv = rows[v]
        cand = same_deg[v] & ~used
        for u in range(v):
            cand &= rows[u] if rv >> img[u] & 1 else ~rows[u]
        while cand:
            b = cand & -cand
            cand ^= b
            img[v] = b.bit_length() - 1
            yield from extend(v + 1, used | b)
        img[v] = -1

    yield from extend(0, 0)


def _iter_coset_images(n: int, rows: tuple[int, ...]):
    """The least member of each coset aP of Ant(G), ascending, for symmetric
    rows (a Graph's). P is the permutations that move vertices only inside
    their equal-row classes, and G^(ap) = G^a.

    a in Ant(G) maps each class T onto a class s(T) of |T| vertices, since
    twins go to twins, and a is in Ant(G) iff s is in Ant(Q), Q the graph of
    the classes, C adjacent to D when G's vertices of C are adjacent to
    those of D. So the search walks Ant(Q), keeps the s that keep class
    sizes, and maps each T's vertices in order onto s(T)'s: the least member
    of its coset. With the classes numbered by their least vertex, the s
    ascend as these members do. Without twins Q is G and P is trivial.
    """
    classes = row_classes(rows)
    if len(classes) == n:
        yield from iter_ant_images(n, rows)
        return
    members = list(classes.values())
    quotient = tuple(sum(1 << d for d, vs in enumerate(members) if row >> vs[0] & 1)
                     for row in classes)
    for s in iter_ant_images(len(members), quotient):
        if all(len(members[c]) == len(members[t]) for c, t in enumerate(s)):
            img = [-1] * n
            for c, t in enumerate(s):
                for v, w in zip(members[c], members[t]):
                    img[v] = w
            yield tuple(img)


def iter_two_fold(src: tuple[int, ...], dst: tuple[int, ...]):
    """Each (lambda, mu) with lambda(N_src(x)) = N_dst(mu(x)), one per lambda,
    its mu sending vertices with equal src rows to ascending vertices.

    Backtracking over mu[0], lambda[0], mu[1], lambda[1], ..., each in
    ascending order, so the first pair is the least in that interleaved
    order. Placing mu[v] needs src[v][y] == dst[mu[v]][lambda[y]] for y < v,
    and placing lambda[v] needs src[x][v] == dst[mu[x]][lambda[v]] for
    x <= v. dst must be symmetric: then each such vertex ANDs dst[lambda[y]]
    or dst[mu[x]], or its complement, into one mask of unused candidates of
    v's degree. Swapping mu on two vertices with equal src rows keeps a pair
    two-fold, so mu[v] must exceed mu at the previous vertex with v's row;
    every other mu of a lambda is a within-class permutation of this one.
    """
    n = len(src)
    by_deg: dict[int, int] = {}
    for b, r in enumerate(dst):
        by_deg[r.bit_count()] = by_deg.get(r.bit_count(), 0) | 1 << b
    same_deg = [by_deg.get(r.bit_count(), 0) for r in src]
    prev_same = [-1] * n
    last: dict[int, int] = {}
    for v, row in enumerate(src):
        prev_same[v] = last.get(row, -1)
        last[row] = v
    mu = [-1] * n
    lam = [-1] * n

    def place_mu(v: int, used_mu: int, used_lam: int):
        if v == n:
            yield tuple(lam), tuple(mu)
            return
        rv = src[v]
        p = prev_same[v]
        cand = same_deg[v] & ~used_mu & (-2 << mu[p] if p >= 0 else -1)
        for y in range(v):
            cand &= dst[lam[y]] if rv >> y & 1 else ~dst[lam[y]]
        while cand:
            b = cand & -cand
            cand ^= b
            mu[v] = b.bit_length() - 1
            yield from place_lam(v, used_mu | b, used_lam)
        mu[v] = -1

    def place_lam(v: int, used_mu: int, used_lam: int):
        cand = same_deg[v] & ~used_lam
        for x in range(v + 1):
            cand &= dst[mu[x]] if src[x] >> v & 1 else ~dst[mu[x]]
        while cand:
            c = cand & -cand
            cand ^= c
            lam[v] = c.bit_length() - 1
            yield from place_mu(v + 1, used_mu, used_lam | c)
        lam[v] = -1

    yield from place_mu(0, 0, 0)


def enumerate_ant(g: Graph, *, force: bool = False) -> list[Permutation]:
    """All of Ant(G), lexicographically ascending; always contains the identity.
    The checked listing is made once per Graph, with the rows of each G^a
    (permuted_rows); each call copies it."""
    CapacityError.check(g.n, ANT_MAX, force, "anti-automorphism listing")
    return list(g._kept("_ant", lambda: _checked_listing(g, False))[0])


def permuted_rows(g: Graph, *, force: bool = False) -> tuple[tuple[int, ...], ...]:
    """The rows of G^a for each a of enumerate_ant(g), in its order. Equal G^a
    are one tuple, and G^a = G is g.adj itself."""
    CapacityError.check(g.n, ANT_MAX, force, "anti-automorphism listing")
    return g._kept("_ant", lambda: _checked_listing(g, False))[1]


def _ant_cosets(g: Graph, force: bool = False):
    """The least member of each coset aP of Ant(G), ascending, as image
    tuples, and the rows of each G^a, as two parallel tuples (see
    _iter_coset_images; the least member of a coset is the least a for its
    G^a). Made once per Graph, apart from enumerate_ant's listing."""
    CapacityError.check(g.n, ANT_MAX, force, "anti-automorphism listing")
    return g._kept("_cosets", lambda: _checked_listing(g, True))


def _reverses(rows: tuple[int, ...], image: tuple[int, ...], arows: tuple[int, ...]) -> bool:
    """a(N(a(x))) = N(x) for every x, the definition of a in Ant(G), read off
    arows, the rows of G^a: row a(x) of G^a is a(N(a(x)))."""
    return tuple(map(arows.__getitem__, image)) == rows


def _bijection(image: tuple[int, ...]) -> tuple[int, ...]:
    if sorted(image) != list(range(len(image))):
        raise InvariantViolationError(f"search produced a non-bijection {image}")
    return image


def _checked_listing(g: Graph, cosets: bool):
    """The images of iter_ant_images, as Permutations, or with cosets those
    of _iter_coset_images, as checked image tuples, and the rows of each
    G^a, as two parallel tuples, every image checked against the
    definition."""
    rows = g.adj
    keep, search = (_bijection, _iter_coset_images) if cosets else (Permutation, iter_ant_images)
    interned = {rows: rows}
    kept, permuted = [], []
    for image in search(g.n, rows):
        kept.append(keep(image))
        arows = apply_anti_rows(rows, image)
        if not _reverses(rows, image, arows):
            raise InvariantViolationError(f"search produced a non-anti-automorphism {image}")
        permuted.append(interned.setdefault(arows, arows))
    return tuple(kept), tuple(permuted)


@dataclass(frozen=True)
class TwoFoldPair:
    lam: Permutation
    mu: Permutation

    def __post_init__(self):
        if len(self.lam) != len(self.mu):
            raise UsageError("lambda and mu have different lengths")

    def compose(self, other: "TwoFoldPair") -> "TwoFoldPair":
        return TwoFoldPair(self.lam.compose(other.lam), self.mu.compose(other.mu))

    def inverse(self) -> "TwoFoldPair":
        return TwoFoldPair(self.lam.inverse(), self.mu.inverse())


def is_two_fold(g: Graph, pair: TwoFoldPair) -> bool:
    """xy in E(G) iff lam(x)mu(y) in E(G); equivalently lam(N(x)) = N(mu(x))."""
    _require_length(g, pair.lam)
    _require_length(g, pair.mu)
    return maps_neighborhoods(g.adj, g.adj, pair.lam.image, pair.mu.image)


def enumerate_aut_tf(g: Graph, *, force: bool = False) -> list[TwoFoldPair]:
    """All of Aut^TF(G). Can reach (n!)^2 pairs on degenerate inputs."""
    CapacityError.check(g.n, TF_MAX, force, "two-fold listing")
    classes = list(row_classes(g.adj).values())
    out = []
    for lam, mu in iter_two_fold(g.adj, g.adj):
        # mu may permute its images freely inside each equal-row class
        per_class = [itertools.permutations([mu[x] for x in xs]) for xs in classes]
        for choice in itertools.product(*per_class):
            image = [-1] * g.n
            for xs, targets in zip(classes, choice):
                for x, t in zip(xs, targets):
                    image[x] = t
            out.append(TwoFoldPair(Permutation(lam), Permutation(tuple(image))))
    out.sort(key=lambda p: (p.lam.image, p.mu.image))
    return out


def act(g: Graph, pair: TwoFoldPair, a: Permutation) -> Permutation:
    """(lambda, mu) . a = lambda a mu^-1, closed on Ant(G)."""
    if not is_anti_automorphism(g, a):
        raise InvalidActionError(f"{a.image} is not in Ant(G)")
    if not is_two_fold(g, pair):
        raise InvalidActionError(
            f"({pair.lam.image}, {pair.mu.image}) is not in Aut^TF(G)"
        )
    result = pair.lam.compose(a).compose(pair.mu.inverse())
    if not is_anti_automorphism(g, result):
        raise InvariantViolationError("action left Ant(G); group action is broken")
    return result


@dataclass(frozen=True)
class AntOrbitPartition:
    """Ant(G) split into orbits of the Aut^TF(G) action.

    Orbits are sorted by representative; each representative is its orbit's
    lexicographically least image vector.
    """

    ant: tuple[Permutation, ...]
    orbits: tuple[tuple[Permutation, ...], ...]

    @property
    def representatives(self) -> tuple[Permutation, ...]:
        return tuple(orbit[0] for orbit in self.orbits)

    def orbit_of(self, a: Permutation) -> tuple[Permutation, ...]:
        for orbit in self.orbits:
            if a in orbit:
                return orbit
        raise UsageError(f"{a.image} is not in Ant(G)")

    def same_orbit(self, a: Permutation, b: Permutation) -> bool:
        return self.orbit_of(a) is self.orbit_of(b)


def _tf_generators(n: int, rows: tuple[int, ...]) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """A generating set of Aut^TF(G): iter_two_fold's pairs, one per lambda,
    plus (id, t) for transpositions t inside each duplicate-neighborhood class.

    Any (lambda, mu') factors as (id, mu' mu^-1) . (lambda, mu), and the pairs
    with identity lambda are exactly those whose mu fixes every class setwise,
    a group generated by within-class transpositions.
    """
    gens = list(iter_two_fold(rows, rows))
    ident = tuple(range(n))
    for verts in row_classes(rows).values():
        anchor = verts[0]
        for other in verts[1:]:
            t = list(ident)
            t[anchor], t[other] = t[other], t[anchor]
            gens.append((ident, tuple(t)))
    return gens


def _orbit_partition(n: int, rows: tuple[int, ...], ant: list[tuple[int, ...]], certs: list):
    """Aut^TF(G) orbit label of each image of ant (all of Ant(G), ascending),
    orbits numbered by their least member, checked against the theorem that
    the orbits are the isomorphism classes of the G^a. certs[i] is equal
    exactly on graphs isomorphic to G^ant[i].

    Returns the labels and the faults, as (kind, detail) pairs in this order:
    "closure" for each generator image outside ant, "within_orbit" for each
    image whose G^a is not isomorphic to its orbit's first, and one
    "across_orbits" when two orbits share an isomorphism class.
    """
    gens = [(lam, invert(mu)) for lam, mu in _tf_generators(n, rows)]
    index = {img: i for i, img in enumerate(ant)}
    labels = [-1] * len(ant)
    faults: list[tuple[str, dict]] = []
    norbits = 0
    for i, img in enumerate(ant):
        if labels[i] >= 0:
            continue
        labels[i] = norbits
        frontier = [img]
        while frontier:
            cur = frontier.pop()
            for lam, mu_inv in gens:
                moved = tuple(lam[cur[u]] for u in mu_inv)
                j = index.get(moved)
                if j is None:
                    faults.append(("closure", {"alpha": list(moved)}))
                elif labels[j] < 0:
                    labels[j] = norbits
                    frontier.append(moved)
        norbits += 1
    orbit_cert: list = [None] * norbits
    for img, label, cert in zip(ant, labels, certs):
        if orbit_cert[label] is None:
            orbit_cert[label] = cert
        elif orbit_cert[label] != cert:
            faults.append(("within_orbit", {"alpha": list(img)}))
    classes = len(set(orbit_cert))
    if classes != norbits:
        faults.append(("across_orbits", {"orbits": norbits, "classes": classes}))
    return labels, faults


def ant_orbits(g: Graph, *, force: bool = False) -> AntOrbitPartition:
    CapacityError.check(g.n, TF_MAX, force, "orbit computation uses the two-fold machinery")
    ant = enumerate_ant(g, force=force)
    certs = [_canonical(g.n, arows)[0] for arows in permuted_rows(g, force=force)]
    labels, faults = _orbit_partition(g.n, g.adj, [p.image for p in ant], certs)
    if faults:
        raise InvariantViolationError(
            f"Aut^TF(G) orbits are not the isomorphism classes of the permuted graphs: {faults[0]}"
        )
    orbits: list[list[Permutation]] = [[] for _ in range(max(labels) + 1)]
    for p, label in zip(ant, labels):
        orbits[label].append(p)
    return AntOrbitPartition(tuple(ant), tuple(map(tuple, orbits)))
