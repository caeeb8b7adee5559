"""Reconstructibility and cancellation deciders plus report assembly.

A graph is neighborhood-reconstructible when every permuted graph G^a is
isomorphic to G, and strongly so when every G^a equals G on the nose. By the
product cancellation theorem the first property is also equivalent to G
cancelling from direct products, so the cancellation decider is the same
test; the oracle module re-derives the answer without anti-automorphism
theory, from each class's neighborhood mates and product certificates in its
universe index, so the two routes can be compared.

The decider takes one fixed route:
  involution  no order-2 automorphism means reconstructible outright
  bipartite   bipartite graphs delegate to the reversal-involution decider
  full        every distinct G^a must share G's certificate, checked over
              the 2-power-order a only: a and a^(odd) give isomorphic G^a

Every a in Ant(G) gives the same G^a as each member of its coset aP, P the
permutations that move vertices only inside their equal-row classes, so
classify, both public deciders and the witnesses read one member per coset:
the least, which is also the least a for its G^a, from the checked coset
listing the Graph keeps (antiauto._ant_cosets) with the rows of each G^a.
classify makes one pass over it, certifies each distinct G^a with one
canonical form per class of relabelings, and yields the verdict, the orbit
classes, the counterexample and the strong witness. The least involution is
the first one in that listing when G has no twins (P is trivial), and
otherwise the first one of the full Ant search, walked lazily. The verdict is
checked against both public deciders, which read the coset listing, the
involution and the bipartition that the Graph keeps.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import factorial

from .antiauto import ANT_MAX, _ant_cosets, iter_ant_images
from .errors import CapacityError, InvariantViolationError, UsageError
from .graphs import (Graph, Permutation, adjacency_index, invert, is_involution, perm_order,
                     relabel_rows, row_classes)
from .iso import _canonical, involution_witness
from .product import Bipartition, bipartition


def _has_two_power_order(image: tuple[int, ...]) -> bool:
    order = perm_order(image)
    return order & (order - 1) == 0


def _distinct_images(rows: tuple[int, ...], permuted):
    """The (a, rows of G^a) pairs of permuted for the first a of each
    distinct G^a other than G."""
    seen = {rows}
    for img, arows in permuted:
        if arows not in seen:
            seen.add(arows)
            yield img, arows


def _two_power_coset(rows: tuple[int, ...]):
    """A test of whether the coset aP of an image a in Ant(G) holds a member
    of 2-power order. a maps each equal-row class onto one, and every member
    of aP permutes the classes as a does. Each cycle of a member is a
    multiple of its class cycle in length, and the member that returns each
    class to itself pointwise after one class cycle has exactly the class
    cycle lengths, so the coset holds one iff the class permutation has
    2-power order."""
    number: dict[int, int] = {}
    cls = [number.setdefault(row, len(number)) for row in rows]

    def two_power(image: tuple[int, ...]) -> bool:
        moved = [0] * len(number)
        for v, w in enumerate(image):
            moved[cls[v]] = cls[w]
        return _has_two_power_order(moved)

    return two_power


def _full_route(rows: tuple[int, ...], permuted, cert, two_power=_has_two_power_order) -> bool:
    """True when every distinct G^a over the (a, rows of G^a) pairs of
    permuted whose a passes two_power shares G's certificate: the
    2-power-order a, or for a coset listing the a whose coset holds one
    (_two_power_coset). cert maps rows to a value equal exactly on isomorphic
    graphs; G's own is computed only once some G^a differs from G."""
    base = None
    kept = (pair for pair in permuted if two_power(pair[0]))
    for _, arows in _distinct_images(rows, kept):
        if base is None:
            base = cert(rows)
        if cert(arows) != base:
            return False
    return True


def _classwise_strong(rows: tuple[int, ...], images, cosets: bool = False) -> bool:
    """Strong reconstructibility by its characterization: Ant(G) is exactly
    P, the permutations fixing every equal-neighborhood class setwise. Those
    permutations are always anti-automorphisms, so it suffices that every
    image preserves the classes and |Ant(G)| is |P|, the product of the
    class-size factorials. images is all of Ant(G), or with cosets one member
    of each coset aP, counted |P| times."""
    expected = 1
    for verts in row_classes(rows).values():
        expected *= factorial(len(verts))
    step = expected if cosets else 1
    count = 0
    for img in images:
        count += step
        if any(rows[w] != rows[v] for v, w in enumerate(img)):
            return False
    return count == expected


def _strong_verdict(rows: tuple[int, ...], cosets, direct: bool) -> bool:
    """direct (every G^a equals G), confirmed by the classwise route over
    the coset listing."""
    classwise = _classwise_strong(rows, cosets, True)
    if direct != classwise:
        raise InvariantViolationError(
            f"strong-reconstructibility routes disagree: direct={direct} classwise={classwise}"
        )
    return direct


def _spread_certificates(n: int, moved: dict, autos) -> dict:
    """The certificate of each G^a in moved (rows of G^a -> a), one canonical
    form per relabeling class: each certified G^a is relabeled by a^-1 and by
    the automorphisms in autos that join two orbits of those kept before, and
    results found in moved take its certificate. Exact for any relabeling; for
    s in Aut(G), s(G^a) = G^(s a s^-1) and a^-1(G^a) = G^(a^-1) say why."""
    gens, orbit = [], list(range(n))
    for s in autos if len(moved) > 1 else ():
        if any(orbit[v] != orbit[w] for v, w in enumerate(s)):
            gens.append(s)
            for v, w in enumerate(s):
                orbit = [orbit[v] if o == orbit[w] else o for o in orbit]
    cert_of: dict = {}
    for arows in moved:
        if arows in cert_of:
            continue
        cert_of[arows] = _canonical(n, arows)[0]
        todo = [arows]
        for cur in todo:  # visits what it appends
            a = moved[cur]
            # an involution is its own inverse: a^-1 would give G^a back
            for s in gens if is_involution(a) else (*gens, invert(a)):
                if len(cert_of) == len(moved):
                    return cert_of
                nxt = relabel_rows(cur, s)
                if nxt in moved and nxt not in cert_of:
                    cert_of[nxt] = cert_of[arows]
                    todo.append(nxt)
    return cert_of


def _ant_pass(g: Graph, force: bool):
    """One pass over the coset listing of Ant(G) certifying each distinct
    G^a: the coset images, the set of certificates of all G^a, the
    counterexample (the G^a not isomorphic to G with the least adjacency
    encoding) as (a, rows of G^a) or None, and the least a with G^a != G or
    None."""
    n, rows = g.n, g.adj
    cosets, permuted = _ant_cosets(g, force)
    moved: dict[tuple[int, ...], tuple[int, ...]] = {}
    for img, arows in zip(cosets, permuted):
        if arows != rows:
            moved.setdefault(arows, img)
    # a is an automorphism iff row x of G^a is row a(x) of G; read only
    # when more than one G^a differs from G. The listed ones act on the G^a
    # as all of Aut(G) n Ant(G) does: P fixes every G^a, as twins in G are
    # twins in G^a
    autos = (a for a, arows in zip(cosets, permuted) if arows == tuple(map(rows.__getitem__, a)))
    base = _canonical(n, rows)[0]
    cert_of = _spread_certificates(n, moved, autos)
    not_iso = [(adjacency_index(n, r), a, r) for r, a in moved.items() if cert_of[r] != base]
    best = min(not_iso)[1:] if not_iso else None
    return cosets, {base, *cert_of.values()}, best, next(iter(moved.values()), None)


def is_neighborhood_reconstructible(g: Graph, *, force: bool = False) -> bool:
    CapacityError.check(g.n, ANT_MAX, force, "decider needs the anti-automorphism listing")
    if involution_witness(g) is None:
        return True
    bp = bipartition(g)
    if bp.is_bipartite:
        return _bip_decide(g, bp)[0]
    cosets, permuted = _ant_cosets(g, force)
    return _full_route(g.adj, zip(cosets, permuted), lambda rows: _canonical(g.n, rows)[0],
                       _two_power_coset(g.adj))


def reconstruction_counterexample(
    g: Graph, *, force: bool = False
) -> tuple[Permutation, Graph] | None:
    """The non-isomorphic permuted graph with the least adjacency encoding,
    with its anti-automorphism; ties broken by least image vector."""
    found = _ant_pass(g, force)[2]
    if found is None:
        return None
    return Permutation(found[0]), Graph(g.n, found[1])


def is_strongly_reconstructible(g: Graph, *, force: bool = False) -> bool:
    """True when every permuted graph equals G exactly, confirmed by the
    classwise route; disagreement is an engine bug."""
    cosets = _ant_cosets(g, force)[0]
    return _strong_verdict(g.adj, cosets, strong_counterexample(g, force=force) is None)


def strong_counterexample(g: Graph, *, force: bool = False) -> Permutation | None:
    """Least anti-automorphism whose permuted graph differs from G."""
    found = next((a for a, arows in zip(*_ant_cosets(g, force)) if arows != g.adj), None)
    return None if found is None else Permutation(found)


def is_cancellation_graph(g: Graph, *, force: bool = False) -> bool:
    return is_neighborhood_reconstructible(g, force=force)


def bipartite_cancellation_decider(g: Graph) -> bool:
    return _bip_decide(g, bipartition(g))[0]


def bipartite_reversal_witness(g: Graph) -> Permutation | None:
    """An involution swapping some component's partite sets, or None."""
    return _bip_decide(g, bipartition(g))[1]


def _bip_decide(g: Graph, bp: Bipartition) -> tuple[bool, Permutation | None]:
    if not bp.is_bipartite:
        raise UsageError("bipartite decider called on a non-bipartite graph")
    for sides in bp.component_sides:
        assert sides is not None
        xs, ys = sides
        if not ys or len(xs) != len(ys):
            continue
        image = _reversing_involution(g.n, g.adj, xs, ys)
        if image is not None:
            return False, Permutation(image)
    return True, None


def _reversing_involution(
    n: int, rows: tuple[int, ...], xs: tuple[int, ...], ys: tuple[int, ...]
) -> tuple[int, ...] | None:
    """Involutory automorphism swapping xs and ys (identity elsewhere), as a
    pairing search: fixing sigma(x)=y also fixes sigma(y)=x. The sides of a
    bipartite component hold no edge and no loop, so each placed x' only
    requires A[x][sigma(x')] == A[x'][y]: x' ANDs rows[x'] or its
    complement into one mask of x's unused partners of x's degree, walked
    from its lowest bit up."""
    image = list(range(n))
    by_deg: dict[int, int] = {}
    for y in ys:
        by_deg[rows[y].bit_count()] = by_deg.get(rows[y].bit_count(), 0) | 1 << y

    def extend(i: int, used: int) -> bool:
        if i == len(xs):
            return True
        x = xs[i]
        rx = rows[x]
        cand = by_deg.get(rx.bit_count(), 0) & ~used
        for placed in xs[:i]:
            cand &= rows[placed] if rx >> image[placed] & 1 else ~rows[placed]
        while cand:
            b = cand & -cand
            cand ^= b
            y = b.bit_length() - 1
            image[x], image[y] = y, x
            if extend(i + 1, used | b):
                return True
            image[x], image[y] = x, y
        return False

    if extend(0, 0):
        return tuple(image)
    return None


@dataclass(frozen=True)
class AnalysisReport:
    n: int
    reconstructible: bool
    strongly: bool
    cancellation: bool
    bipartite: bool
    has_involution: bool
    orbit_count: int
    orbit_classes: tuple[str, ...]
    counterexample_alpha: Permutation | None
    counterexample_graph: Graph | None
    witness_involution: Permutation | None
    strongly_witness: Permutation | None

    def __post_init__(self):
        if self.cancellation != self.reconstructible:
            raise InvariantViolationError("cancellation flag differs from reconstructible")
        if self.strongly and not self.reconstructible:
            raise InvariantViolationError("strongly set without reconstructible")
        if (self.counterexample_alpha is None) != self.reconstructible:
            raise InvariantViolationError("counterexample presence mismatches flag")
        if (self.counterexample_graph is None) != self.reconstructible:
            raise InvariantViolationError("counterexample graph mismatches flag")
        if (self.witness_involution is not None) != (
            self.bipartite and not self.reconstructible
        ):
            raise InvariantViolationError("witness involution presence is wrong")
        if (self.strongly_witness is None) != self.strongly:
            raise InvariantViolationError("strong witness presence mismatches flag")

    def to_json_dict(self) -> dict:
        counterexample = None
        if self.counterexample_alpha is not None:
            assert self.counterexample_graph is not None
            counterexample = {
                "alpha": list(self.counterexample_alpha.image),
                "g_alpha_edges": [list(e) for e in self.counterexample_graph.edges()],
            }
        return {
            "n": self.n,
            "reconstructible": self.reconstructible,
            "strongly": self.strongly,
            "cancellation": self.cancellation,
            "bipartite": self.bipartite,
            "has_involution": self.has_involution,
            "orbit_count": self.orbit_count,
            "orbit_classes": list(self.orbit_classes),
            "counterexample": counterexample,
            "witness_involution": (
                None
                if self.witness_involution is None
                else list(self.witness_involution.image)
            ),
            "strongly_witness": (
                None
                if self.strongly_witness is None
                else list(self.strongly_witness.image)
            ),
        }


def classify(g: Graph, *, force: bool = False) -> AnalysisReport:
    CapacityError.check(g.n, ANT_MAX, force, "decider needs the anti-automorphism listing")
    bp = bipartition(g)
    reversal = _bip_decide(g, bp)[1] if bp.is_bipartite else None
    cosets, certs, counterexample, strong_witness = _ant_pass(g, force)
    # the involutions in Ant(G) are the involutory automorphisms and both
    # searches ascend, so this is the key iso.involution_witness keeps; with
    # twins, the coset listing need not hold the least one
    involution = g._kept("_involution", lambda: next(filter(is_involution, (
        cosets if len(set(g.adj)) == g.n else iter_ant_images(g.n, g.adj))), None))
    reconstructible = len(certs) == 1
    # The decider's fixed route answers from the involution or bipartite
    # test when one applies, else from the cosets that hold a 2-power-order
    # image only, and must agree with the pass over every coset. Both
    # deciders, which reuse g's kept facts, are called so that perfbench
    # counts routes in them.
    decided = is_neighborhood_reconstructible(g, force=force)
    if decided != reconstructible:
        raise InvariantViolationError(
            f"decider says {decided}, the pass over Ant(G) {reconstructible}"
        )
    return AnalysisReport(
        n=g.n,
        reconstructible=reconstructible,
        strongly=_strong_verdict(g.adj, cosets, strong_witness is None),
        cancellation=is_cancellation_graph(g, force=force),
        bipartite=bp.is_bipartite,
        has_involution=involution is not None,
        orbit_count=len(certs),
        orbit_classes=tuple(sorted(c.hex() for c in certs)),
        counterexample_alpha=None if counterexample is None else Permutation(counterexample[0]),
        counterexample_graph=None if counterexample is None else Graph(g.n, counterexample[1]),
        witness_involution=reversal,
        strongly_witness=None if strong_witness is None else Permutation(strong_witness),
    )
