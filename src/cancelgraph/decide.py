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

classify makes one pass over Ant(G) that certifies each distinct G^a and
yields the verdict, the orbit classes, the counterexample, the strong
witness and whether G has an involution. The verdict is checked against
both public deciders; they repeat the Ant search for graphs that neither
fast test settles.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import factorial

from .antiauto import ANT_MAX, apply_anti_rows, enumerate_ant
from .errors import CapacityError, InvariantViolationError, UsageError
from .graphs import Graph, Permutation, adjacency_index, is_involution, perm_order, row_classes
from .iso import _canonical, involution_witness
from .product import Bipartition, bipartition


def _has_two_power_order(image: tuple[int, ...]) -> bool:
    order = perm_order(image)
    return order & (order - 1) == 0


def _guard(g: Graph, force: bool) -> None:
    if g.n > ANT_MAX and not force:
        raise CapacityError(
            f"decider needs the anti-automorphism listing, guarded at n<={ANT_MAX}"
        )


def _permuted(rows: tuple[int, ...], images):
    """(a, rows of G^a) for each image a, lazily."""
    for img in images:
        yield img, apply_anti_rows(rows, img)


def _distinct_images(rows: tuple[int, ...], permuted):
    """The (a, rows of G^a) pairs of permuted for the first a of each
    distinct G^a other than G."""
    seen = {rows}
    for img, arows in permuted:
        if arows not in seen:
            seen.add(arows)
            yield img, arows


def _full_route(rows: tuple[int, ...], permuted, cert) -> bool:
    """True when every distinct G^a over the 2-power-order a among the
    (a, rows of G^a) pairs of permuted shares G's certificate. cert maps
    rows to a value equal exactly on isomorphic graphs; G's own is computed
    only once some G^a differs from G."""
    base = None
    two_power = (pair for pair in permuted if _has_two_power_order(pair[0]))
    for _, arows in _distinct_images(rows, two_power):
        if base is None:
            base = cert(rows)
        if cert(arows) != base:
            return False
    return True


def _classwise_strong(rows: tuple[int, ...], images) -> bool:
    """Strong reconstructibility by its characterization: Ant(G) is exactly
    the permutations fixing every equal-neighborhood class setwise. Those
    permutations are always anti-automorphisms, so it suffices that every
    image preserves the classes and |Ant(G)| is the product of the
    class-size factorials."""
    count = 0
    for img in images:
        count += 1
        if any(rows[w] != rows[v] for v, w in enumerate(img)):
            return False
    expected = 1
    for verts in row_classes(rows).values():
        expected *= factorial(len(verts))
    return count == expected


def _strong_verdict(rows: tuple[int, ...], images, direct: bool) -> bool:
    """direct (every G^a equals G), confirmed by the classwise route."""
    classwise = _classwise_strong(rows, images)
    if direct != classwise:
        raise InvariantViolationError(
            f"strong-reconstructibility routes disagree: direct={direct} classwise={classwise}"
        )
    return direct


def _ant_pass(g: Graph, force: bool):
    """One pass over Ant(G) certifying each distinct G^a.

    Returns the Ant images, the set of certificates of all G^a, the
    counterexample as (a, rows of G^a) or None, and the least a with
    G^a != G or None. The counterexample is the G^a not isomorphic to G with
    the least adjacency encoding, ties broken by least image.
    """
    n, rows = g.n, g.adj
    ant = [p.image for p in enumerate_ant(g, force=force)]
    base = _canonical(n, rows)[0]
    certs = {base}
    best = None
    strong_witness = None
    for img, arows in _distinct_images(rows, _permuted(rows, ant)):
        if strong_witness is None:
            strong_witness = img
        cert = _canonical(n, arows)[0]
        certs.add(cert)
        if cert != base:
            key = adjacency_index(n, arows)
            if best is None or key < best[0]:
                best = (key, img, arows)
    return ant, certs, None if best is None else best[1:], strong_witness


def is_neighborhood_reconstructible(g: Graph, *, force: bool = False) -> bool:
    _guard(g, force)
    if involution_witness(g) is None:
        return True
    bp = bipartition(g)
    if bp.is_bipartite:
        return _bip_decide(g, bp)[0]
    images = (p.image for p in enumerate_ant(g, force=force))
    return _full_route(
        g.adj, _permuted(g.adj, images), lambda rows: _canonical(g.n, rows)[0]
    )


def reconstruction_counterexample(
    g: Graph, *, force: bool = False
) -> tuple[Permutation, Graph] | None:
    """The non-isomorphic permuted graph with the least adjacency encoding,
    with its anti-automorphism; ties broken by least image vector."""
    _guard(g, force)
    found = _ant_pass(g, force)[2]
    if found is None:
        return None
    return Permutation(found[0]), Graph(g.n, found[1])


def is_strongly_reconstructible(g: Graph, *, force: bool = False) -> bool:
    """True when every permuted graph equals G exactly, confirmed by the
    classwise route; disagreement is an engine bug."""
    _guard(g, force)
    ant = [p.image for p in enumerate_ant(g, force=force)]
    found = next(_distinct_images(g.adj, _permuted(g.adj, ant)), None)
    return _strong_verdict(g.adj, ant, found is None)


def strong_counterexample(g: Graph, *, force: bool = False) -> Permutation | None:
    """Least anti-automorphism whose permuted graph differs from G."""
    _guard(g, force)
    images = (p.image for p in enumerate_ant(g, force=force))
    found = next(_distinct_images(g.adj, _permuted(g.adj, images)), None)
    return None if found is None else Permutation(found[0])


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
        image = _reversing_involution(g.n, g.adj, sorted(xs), sorted(ys))
        if image is not None:
            return False, Permutation(image)
    return True, None


def _reversing_involution(
    n: int, rows: tuple[int, ...], xs: list[int], ys: list[int]
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
    _guard(g, force)
    bp = bipartition(g)
    reversal = _bip_decide(g, bp)[1] if bp.is_bipartite else None
    ant, certs, counterexample, strong_witness = _ant_pass(g, force)
    reconstructible = len(certs) == 1
    # The decider's fixed route answers from the involution or bipartite
    # test when one applies, else from the 2-power-order images only; it
    # must agree with the pass over all of Ant(G). Both public deciders are
    # called because perfbench counts decision routes inside their calls.
    decided = is_neighborhood_reconstructible(g, force=force)
    if decided != reconstructible:
        raise InvariantViolationError(
            f"decider says {decided}, the pass over Ant(G) {reconstructible}"
        )
    return AnalysisReport(
        n=g.n,
        reconstructible=reconstructible,
        strongly=_strong_verdict(g.adj, ant, strong_witness is None),
        cancellation=is_cancellation_graph(g, force=force),
        bipartite=bp.is_bipartite,
        # the involutions in Ant(G) are the involutory automorphisms
        has_involution=any(map(is_involution, ant)),
        orbit_count=len(certs),
        orbit_classes=tuple(sorted(c.hex() for c in certs)),
        counterexample_alpha=None if counterexample is None else Permutation(counterexample[0]),
        counterexample_graph=None if counterexample is None else Graph(g.n, counterexample[1]),
        witness_involution=reversal,
        strongly_witness=None if strong_witness is None else Permutation(strong_witness),
    )
