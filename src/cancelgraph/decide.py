"""Reconstructibility and cancellation deciders plus report assembly.

A graph is neighborhood-reconstructible when every permuted graph G^a is
isomorphic to G, and strongly so when every G^a equals G on the nose. By the
product cancellation theorem the first property is also equivalent to G
cancelling from direct products, so the cancellation decider is the same
test; the oracle module re-derives the answer without anti-automorphism
theory, from each class's neighborhood mates and product certificates in its
universe index, so the two routes can be compared.

The decider takes one fixed route:
  involution  no order-2 automorphism means reconstructible outright;
              a swap of twins (equal rows) is one
  bipartite   bipartite graphs delegate to the reversal-involution decider
  full        every distinct G^a must share G's certificate, checked over
              the a whose coset aP (below) holds a 2-power-order member:
              a and a^(odd) give isomorphic G^a

Every a in Ant(G) gives the same G^a as each member of its coset aP, P the
permutations that move vertices only inside their equal-row classes, so
classify, both public deciders, the witnesses and the verify suites read the
one Ant(G) listing a Graph keeps, antiauto._ant_cosets: the least member of
each coset, which is also the least a for its G^a, checked, with the rows of
each G^a.
classify makes one pass over it, certifies each distinct G^a with one
canonical form per class of relabelings, and yields the verdict, the orbit
classes, the counterexample and the strong witness; without twins its
involutions are read off the listing. The verdict is checked against both
public deciders, which read the coset listing, involution and bipartition
the Graph keeps and keep their reversal and full-route verdicts there: each
search runs once per Graph.
"""
from __future__ import annotations

from dataclasses import dataclass

from .antiauto import ANT_MAX, _ant_cosets, _coset_least
from .errors import CapacityError, InvariantViolationError, UsageError
from .graphs import (Graph, Permutation, adjacency_index, invert, is_involution, perm_order,
                     twin_classes)
from .iso import _canonical, involution_witness
from .product import Bipartition, bipartition


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
    classes, cls = twin_classes(rows)

    def two_power(image: tuple[int, ...]) -> bool:
        moved = [0] * len(classes)
        for v, w in enumerate(image):
            moved[cls[v]] = cls[w]
        order = perm_order(moved)
        return order & (order - 1) == 0

    return two_power


def _full_route(rows: tuple[int, ...], permuted, cert) -> bool:
    """True when every distinct G^a over the (a, rows of G^a) pairs of
    permuted whose coset aP holds a 2-power-order member shares G's
    certificate; exact on the full and on the coset listing, as G^a is the
    same over aP. cert maps rows to a value equal exactly on isomorphic
    graphs; G's own is computed only once some G^a differs from G."""
    base = None
    two_power = _two_power_coset(rows)
    kept = (pair for pair in permuted if two_power(pair[0]))
    for _, arows in _distinct_images(rows, kept):
        if base is None:
            base = cert(rows)
        if cert(arows) != base:
            return False
    return True


def _classwise_strong(rows: tuple[int, ...], cosets) -> bool:
    """Strong reconstructibility by its characterization: Ant(G) is exactly
    P, the permutations fixing every equal-neighborhood class setwise. P is
    always in Ant(G), so over cosets, one member of each coset aP, it
    suffices that there is one coset and its member preserves the classes."""
    return len(cosets) == 1 and all(rows[w] == rows[v] for v, w in enumerate(cosets[0]))


def _strong_verdict(rows: tuple[int, ...], cosets, direct: bool) -> bool:
    """direct (every G^a equals G), confirmed by the classwise route over
    the coset listing."""
    classwise = _classwise_strong(rows, cosets)
    if direct != classwise:
        raise InvariantViolationError(
            f"strong-reconstructibility routes disagree: direct={direct} classwise={classwise}"
        )
    return direct


def _spread_certificates(rows: tuple[int, ...], cosets, permuted, moved: dict) -> dict:
    """The certificate of each G^a in moved (rows of G^a -> a), one canonical
    form per relabeling class, over the coset listing (cosets, permuted).

    For s in Aut(G), s(G^a) = G^(s a s^-1), and a^-1(G^a) = G^(a^-1). So
    from each certified G^a the walk steps to G^(s a s^-1) for the listed
    automorphisms s that join two orbits of those kept before, and to
    G^(a^-1), composing image tuples, and the G^a it reaches in moved take its
    certificate. Each step is looked up in the listing at the least member of
    its coset (antiauto._coset_least). Ant(G) is closed under inversion and
    under conjugation by Aut(G), so a step missing from the listing means the
    listing is faulty: InvariantViolationError."""
    n = len(rows)
    if len(moved) <= 1:
        return {arows: _canonical(n, arows)[0] for arows in moved}
    # a is an automorphism iff row x of G^a is row a(x) of G. The listed ones
    # act on the G^a as all of Aut(G) n Ant(G) does: P fixes every G^a, as
    # twins in G are twins in G^a
    gens, orbit = [], list(range(n))
    for s, arows in zip(cosets, permuted):
        if arows == tuple(map(rows.__getitem__, s)) and any(
                orbit[v] != orbit[w] for v, w in enumerate(s)):
            gens.append((s, invert(s)))
            for v, w in enumerate(s):
                orbit = [orbit[v] if o == orbit[w] else o for o in orbit]
    rows_of = dict(zip(cosets, permuted))
    members, home = twin_classes(rows)

    def steps(a: tuple[int, ...]):
        for s, s_inv in gens:
            yield tuple(s[a[x]] for x in s_inv)
        # an involution is its own inverse: a^-1 would give G^a back
        if not is_involution(a):
            yield invert(a)

    cert_of: dict = {}
    for arows in moved:
        if arows in cert_of:
            continue
        cert_of[arows] = _canonical(n, arows)[0]
        todo = [arows]
        for cur in todo:  # visits what it appends
            for b in steps(moved[cur]):
                if len(cert_of) == len(moved):
                    return cert_of
                # without twins P is trivial and b is its coset's least member;
                # skipping the rule took the spread's own time on a seed-1
                # analyze-mix round from 0.19-0.21 s to 0.11-0.12 s
                if len(members) < n:
                    b = _coset_least(n, members, [home[b[verts[0]]] for verts in members])
                nxt = rows_of.get(b)
                if nxt is None:
                    raise InvariantViolationError(f"step to {b} is outside the Ant(G) listing")
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
    moved = {arows: img for img, arows in _distinct_images(rows, zip(cosets, permuted))}
    base = _canonical(n, rows)[0]
    cert_of = _spread_certificates(rows, cosets, permuted, moved)
    not_iso = [(adjacency_index(n, r), a, r) for r, a in moved.items() if cert_of[r] != base]
    best = min(not_iso)[1:] if not_iso else None
    return cosets, {base, *cert_of.values()}, best, next(iter(moved.values()), None)


def is_neighborhood_reconstructible(g: Graph, *, force: bool = False) -> bool:
    CapacityError.check(g.n, ANT_MAX, force, "decider needs the anti-automorphism listing")
    if len(set(g.adj)) == g.n and involution_witness(g) is None:
        return True
    bp = bipartition(g)
    if bp.is_bipartite:
        return _bip_decide(g, bp)[0]
    return g._kept("_full", lambda: _full_route(
        g.adj, zip(*_ant_cosets(g, force)), lambda rows: _canonical(g.n, rows)[0]))


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
    found = next(_distinct_images(g.adj, zip(*_ant_cosets(g, force))), None)
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
    # kept past the check: each call checks bp
    return g._kept("_reversal", lambda: next((
        (False, Permutation(image)) for image in (
            _reversing_involution(g.n, g.adj, xs, ys)
            for xs, ys in bp.component_sides if ys and len(xs) == len(ys)) if image),
        (True, None)))


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
    # a twin swap is an involution. Without twins the listing is Ant(G), its
    # involutions are the involutory automorphisms and both searches ascend,
    # so this is the key iso.involution_witness keeps
    has_involution = len(set(g.adj)) < g.n or g._kept(
        "_involution", lambda: next(filter(is_involution, cosets), None)) is not None
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
        has_involution=has_involution,
        orbit_count=len(certs),
        orbit_classes=tuple(sorted(c.hex() for c in certs)),
        counterexample_alpha=None if counterexample is None else Permutation(counterexample[0]),
        counterexample_graph=None if counterexample is None else Graph(g.n, counterexample[1]),
        witness_involution=reversal,
        strongly_witness=None if strong_witness is None else Permutation(strong_witness),
    )
