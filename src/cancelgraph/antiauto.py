"""Anti-automorphisms, the permuted graph, two-fold automorphisms, orbits.

A permutation a is an anti-automorphism of G when xy in E(G) iff
a(x)a^-1(y) in E(G); equivalently N(a(x)) = a^-1(N(x)) for every x. The
permuted graph G^a has edge set {x a(y) | xy in E(G)} and is a graph (rather
than a digraph) exactly when a is an anti-automorphism.

Aut^TF(G) is the group of pairs (lambda, mu) with xy in E(G) iff
lambda(x)mu(y) in E(G); it acts on Ant(G) by (lambda, mu) . a =
lambda a mu^-1, and the orbits of that action group the a by isomorphism
type of G^a.
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
    """Anti-automorphism image vectors, lexicographically ascending.

    Backtracking over images in index order. Assigning img[v]=w fixes both a
    value of the permutation and a value of its inverse, so every ordered
    pair with both coordinates resolved is checked incrementally:
    A[v][img[u]] == A[w][u] and A[u][w] == A[img[u]][v].
    """
    if n == 0:
        yield ()
        return
    deg = [r.bit_count() for r in rows]
    img = [-1] * n

    def extend(v: int, used: int):
        if v == n:
            yield tuple(img)
            return
        dv = deg[v]
        rv = rows[v]
        for w in range(n):
            if used >> w & 1 or deg[w] != dv:
                continue
            rw = rows[w]
            ok = True
            for u in range(v):
                t = img[u]
                if (rv >> t & 1) != (rw >> u & 1) or (rows[u] >> w & 1) != (
                    rows[t] >> v & 1
                ):
                    ok = False
                    break
            if ok:
                img[v] = w
                yield from extend(v + 1, used | 1 << w)
        img[v] = -1

    yield from extend(0, 0)


def enumerate_ant(g: Graph, *, force: bool = False) -> list[Permutation]:
    """All of Ant(G), lexicographically ascending; always contains the identity."""
    if g.n > ANT_MAX and not force:
        raise CapacityError(
            f"anti-automorphism listing guarded at n<={ANT_MAX}; pass force=True"
        )
    out = []
    for image in iter_ant_images(g.n, g.adj):
        p = Permutation(image)
        if not is_anti_automorphism(g, p):
            raise InvariantViolationError(
                f"search produced a non-anti-automorphism {image}"
            )
        out.append(p)
    return out


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


def _lambda_scan(n: int, rows: tuple[int, ...]):
    """Yield (lambda image, per-vertex target classes) for every lambda that
    permutes the neighborhood multiset; mu solutions are the class bijections."""
    classes = row_classes(rows)
    for lam in itertools.permutations(range(n)):
        groups: dict[int, list[int]] = {}
        ok = True
        for x in range(n):
            t = permute_mask(rows[x], lam)
            if t not in classes:
                ok = False
                break
            groups.setdefault(t, []).append(x)
        if not ok:
            continue
        if all(len(xs) == len(classes[t]) for t, xs in groups.items()):
            yield lam, groups, classes


def enumerate_aut_tf(g: Graph, *, force: bool = False) -> list[TwoFoldPair]:
    """All of Aut^TF(G). Can reach (n!)^2 pairs on degenerate inputs."""
    if g.n > TF_MAX and not force:
        raise CapacityError(
            f"two-fold listing guarded at n<={TF_MAX}; pass force=True"
        )
    n = g.n
    out = []
    for lam, groups, classes in _lambda_scan(n, g.adj):
        per_group = []
        for t, xs in sorted(groups.items()):
            per_group.append((xs, list(itertools.permutations(classes[t]))))
        for choice in itertools.product(*(opts for _, opts in per_group)):
            mu = [-1] * n
            for (xs, _), assigned in zip(per_group, choice):
                for x, v in zip(xs, assigned):
                    mu[x] = v
            out.append(TwoFoldPair(Permutation(lam), Permutation(tuple(mu))))
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
    """A generating set of Aut^TF(G): one (lambda, mu) per admissible lambda,
    plus (id, t) for transpositions t inside each duplicate-neighborhood class.

    Any (lambda, mu') factors as (id, mu' mu^-1) . (lambda, mu), and the pairs
    with identity lambda are exactly those whose mu fixes every class setwise,
    a group generated by within-class transpositions.
    """
    gens = []
    ident = tuple(range(n))
    for lam, groups, classes in _lambda_scan(n, rows):
        mu = [-1] * n
        for t, xs in groups.items():
            for x, v in zip(xs, classes[t]):
                mu[x] = v
        gens.append((lam, tuple(mu)))
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
    if g.n > TF_MAX and not force:
        raise CapacityError(
            f"orbit computation uses the two-fold machinery, guarded at n<={TF_MAX}"
        )
    ant = enumerate_ant(g, force=force)
    images = [p.image for p in ant]
    certs = [_canonical(g.n, apply_anti_rows(g.adj, img))[0] for img in images]
    labels, faults = _orbit_partition(g.n, g.adj, images, certs)
    if faults:
        raise InvariantViolationError(
            f"Aut^TF(G) orbits are not the isomorphism classes of the permuted graphs: {faults[0]}"
        )
    orbits: list[list[Permutation]] = [[] for _ in range(max(labels) + 1)]
    for p, label in zip(ant, labels):
        orbits[label].append(p)
    return AntOrbitPartition(tuple(ant), tuple(map(tuple, orbits)))
