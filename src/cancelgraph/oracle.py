"""Brute-force oracles and the exhaustive verification suites.

Everything here deliberately avoids anti-automorphism reasoning when
producing a verdict: the neighborhood oracle builds every labeled graph on
the same vertex set whose rows rearrange G's rows into a symmetric matrix,
which is the definition of sharing G's neighborhood multiset; the
cancellation oracle scans every labeled graph and compares product
classes, the certificate of H x K2. Agreement with the decide module is
then actual evidence, because the two routes share no theory beyond the
isomorphism engine.

The verification suites read both oracles per isomorphism class instead of
calling them once per graph: the universe index records whether every
neighborhood mate of a class lies in it, and whether any other class shares
its product class. H-universes always allow loops, whatever the mode,
because a loopless graph can have loopy product mates.
"""
from __future__ import annotations

import itertools
import os
import time
from array import array
from collections import Counter
from dataclasses import asdict, dataclass
from functools import lru_cache, partial
from typing import Callable, Iterator

from .antiauto import (
    _orbit_partition,
    apply_anti_rows,
    enumerate_aut_tf,
    is_anti_automorphism,
    iter_ant_images,
    iter_two_fold,
    permuted_digraph,
)
from .decide import _bip_decide, _classwise_strong, _full_route, _permuted
from .errors import CapacityError, InvariantViolationError, UsageError
from .graphs import (
    Graph,
    Permutation,
    adjacency_index,
    all_permutations,
    bits_of,
    component_masks,
    disjoint_union,
    enumerate_count,
    invert,
    is_involution,
    iter_adj_rows,
    maps_neighborhoods,
    mask_of,
    multiset_key,
    perm_order,
    permute_mask,
)
from .iso import canon_rows, cert_bytes, iter_automorphism_images, stamp_orbit
from .product import bipartition, direct_product

ORACLE_MAX = 6
VERIFY_MAX_LOOPS = 5
VERIFY_MAX_SIMPLE = 6
BIP_SWEEP_MAX = 7
"""Default and guard for the bipartite sweep's largest n. The sweep's class
data for one n at a time stays cached (_bip_classes, built on first use):
two bitsets over the 2^(n(n-1)/2) loopless enumeration indices, bipartite
and reversal failure, plus the failed checks of any faulty class. That is
2 x 256 KiB at n=7 and 2 x 32 MiB at n=8 under force; stamp_orbit's
transposition tables add under 0.5 MiB."""
ORBIT_CHECK_MAX = 5
SIDE_SUITE_MAX = 4
"""Largest n of the side suites that run per n: neighborhood_prop,
pair_membership, digraph_symmetry, lovasz and roundtrip."""

K2 = Graph(2, (2, 1))
K3 = Graph(3, (6, 5, 3))


def _oracle_guard(n: int, force: bool, work: str) -> None:
    if n > ORACLE_MAX and not force:
        raise CapacityError(f"{work}; guarded at n<={ORACLE_MAX}")


def _certificate(n: int, rows) -> bytes:
    """The isomorphism certificate of rows: equal exactly on isomorphic
    graphs of order n."""
    return cert_bytes(n, canon_rows(n, rows)[0])


def _neighborhood_mates(n: int, rows) -> Iterator[tuple[int, ...]]:
    """Every labeled graph on n vertices (loops allowed) with the
    neighborhood multiset of rows, each once: rows are placed at vertices
    0..n-1 in turn, each as often as it occurs, and a row goes at v only
    when its bit u equals bit v of the row at u for every u < v, so the
    matrix stays symmetric."""
    left = Counter(rows)
    placed = [0] * n

    def place(v: int) -> Iterator[tuple[int, ...]]:
        if v == n:
            yield tuple(placed)
            return
        column = sum((placed[u] >> v & 1) << u for u in range(v))
        below = (1 << v) - 1
        for row in list(left):
            if left[row] and row & below == column:
                left[row] -= 1
                placed[v] = row
                yield from place(v + 1)
                left[row] += 1

    return place(0)


def neighborhood_oracle(g: Graph, *, force: bool = False) -> list[Graph]:
    """Every labeled graph on V(G) (loops allowed) with the same neighborhood
    multiset, in enumeration order. Contains g itself."""
    _oracle_guard(g.n, force, "neighborhood oracle lists up to n! rearrangements of G's rows")
    mates = sorted(_neighborhood_mates(g.n, g.adj), key=partial(adjacency_index, g.n))
    return [Graph(g.n, rows) for rows in mates]


def _cancellation_scan(g: Graph, force: bool) -> tuple[bool, Graph | None]:
    _oracle_guard(g.n, force, "cancellation oracle scans 2^(n(n+1)/2) graphs")
    n = g.n
    base_prod = direct_product(g, K2).adj
    base_class = _certificate(2 * n, base_prod)
    base_sizes = sorted(m.bit_count() for m in component_masks(2 * n, base_prod))
    own_cert = _certificate(n, g.adj)
    degs = sorted(r.bit_count() for r in g.adj)
    offenders = []
    for rows in iter_adj_rows(n, True):
        if sorted(r.bit_count() for r in rows) != degs:
            continue
        frozen = tuple(rows)
        prod = direct_product(Graph(n, frozen), K2).adj
        if sorted(m.bit_count() for m in component_masks(2 * n, prod)) != base_sizes:
            continue
        if _certificate(2 * n, prod) != base_class:
            continue
        if _certificate(n, frozen) != own_cert:
            offenders.append(frozen)
    if not offenders:
        return True, None
    best = min(offenders, key=lambda r: adjacency_index(n, r))
    return False, Graph(n, best)


def cancellation_oracle(g: Graph, *, force: bool = False) -> bool:
    """True iff every labeled H on V(G) (loops allowed) with
    H x K2 isomorphic to G x K2 is itself isomorphic to G.

    The product test with K2 covers every bipartite K with an edge, since
    homomorphisms run both ways between K2 and such K; graphs with an odd
    cycle cancel unconditionally, so K2 is the only test needed.
    """
    return _cancellation_scan(g, force)[0]


def cancellation_counterexample(g: Graph, *, force: bool = False) -> Graph | None:
    """The product mate not isomorphic to g with the least adjacency
    encoding, or None when g cancels."""
    return _cancellation_scan(g, force)[1]


def product_iso_witness(g: Graph, a: Permutation, k: Graph) -> Permutation:
    """The explicit isomorphism G x K -> G^a x K sending (x,j) to itself when
    j is in the left partite class of K and to (a(x),j) otherwise."""
    if not is_anti_automorphism(g, a):
        raise UsageError(f"{a.image} is not an anti-automorphism of G")
    bp = bipartition(k)
    if not bp.is_bipartite:
        raise UsageError("K must be bipartite")
    if all(row == 0 for row in k.adj):
        raise UsageError("K must have at least one edge")
    left = bp.left()
    nk = k.n
    theta = []
    for x in range(g.n):
        ax = a.image[x]
        for j in range(nk):
            theta.append((x if j in left else ax) * nk + j)
    image = tuple(theta)
    before = direct_product(g, k)
    after = direct_product(Graph(g.n, apply_anti_rows(g.adj, a.image)), k)
    if not maps_neighborhoods(before.adj, after.adj, image, image):
        raise InvariantViolationError("product witness failed the edge-by-edge check")
    return Permutation(image)


def extract_anti_from_product_iso(
    g: Graph, h: Graph, *, force: bool = False
) -> tuple[Permutation, Permutation] | None:
    """Search for bijections with xy in E(G) iff mu(x)lambda(y) in E(H); when
    found, return (a, mu) with a = mu^-1 lambda, so that mu: G^a -> H. The
    pair is iter_two_fold's first, the least in its interleaved order.

    This is exactly a layer-preserving isomorphism G x K2 -> H x K2 with
    mu the layer-0 and lambda the layer-1 action. Returns None when no
    layer-preserving isomorphism exists.
    """
    if g.n != h.n:
        raise UsageError(f"vertex counts differ: {g.n} vs {h.n}")
    _oracle_guard(g.n, force, "product-isomorphism search tries up to (n!)^2 pairs")
    found = next(iter_two_fold(g.adj, h.adj), None)
    if found is None:
        return None
    lam, mu = found
    mu_p = Permutation(mu)
    alpha = mu_p.inverse().compose(Permutation(lam))
    if not is_anti_automorphism(g, alpha):
        raise InvariantViolationError("extracted map is not an anti-automorphism")
    moved = apply_anti_rows(g.adj, alpha.image)
    if not maps_neighborhoods(moved, h.adj, mu, mu):
        raise InvariantViolationError("extracted mu is not an isomorphism onto H")
    return alpha, mu_p


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CensusRow:
    n: int
    graphs: int
    non_reconstructible: int
    non_strongly: int
    bipartite_failures: int


@dataclass(frozen=True)
class BipSweepRow:
    n: int
    bipartite_graphs: int
    reversal_failures: int


@dataclass(frozen=True)
class VerificationReport:
    nmax: int
    loops_allowed: bool
    bip_max: int
    jobs: int
    census: tuple[CensusRow, ...]
    bipartite_census: tuple[BipSweepRow, ...]
    violations: tuple[dict, ...]
    suite_seconds: tuple[tuple[str, float], ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            "nmax": self.nmax,
            "loops_allowed": self.loops_allowed,
            "bip_max": self.bip_max,
            "jobs": self.jobs,
            "ok": self.ok,
            "census": [asdict(row) for row in self.census],
            "bipartite_census": [asdict(row) for row in self.bipartite_census],
            "violations": list(self.violations),
            "suite_seconds": {name: secs for name, secs in self.suite_seconds},
        }


MAX_RECORDED_VIOLATIONS = 200


class _Violations:
    """Bounded collector; the count is exact even when details are dropped."""

    def __init__(self) -> None:
        self.items: list[dict] = []
        self.total = 0

    def _keep(self, item: dict) -> None:
        if len(self.items) < MAX_RECORDED_VIOLATIONS:
            self.items.append(item)
        elif len(self.items) == MAX_RECORDED_VIOLATIONS:
            self.items.append({"suite": "truncated", "n": 0, "note": "further violations omitted"})

    def add(self, suite: str, n: int, **detail) -> None:
        self.total += 1
        self._keep({"suite": suite, "n": n, **detail})

    def absorb(self, items: list[dict], total: int) -> None:
        """Fold in another collector's items and count, with the same cap and
        marker as if its violations had been added here in order."""
        for item in items:
            self._keep(item)
        self.total += total


def _edges_of_rows(n: int, rows) -> list[list[int]]:
    return [[x, y] for x in range(n) for y in bits_of(rows[x]) if y >= x]


class _UniverseIndex:
    """Isomorphism classes and oracle verdicts of the loops-allowed universe
    at one n, all per class.

    class_of[k] numbers the iso class of enumeration index k, in order of
    each class's least index. Stamping each orbit makes the numbers exact,
    so canon_of reads them as certificates. class_nbhd_pure says every
    neighborhood mate of the class lies in it, class_product_pure that no
    other class has its product class, the certificate of G x K2 as
    direct_product builds it (relabeling G relabels the product, so any
    member gives it).
    """

    def __init__(self, n: int) -> None:
        self.n = n
        # 16-bit class numbers while they fit: n=6 has 5096 loops-allowed
        # classes, n=7 79264 (OEIS A000666); one too large raises OverflowError
        self.class_of = array("H" if n <= 6 else "I")
        self.class_nbhd_pure: list[bool] = []
        self.class_product_pure: list[bool] = []

    def build(self) -> None:
        """The first unseen index of each class stamps its orbit, and that
        least member gives the class's mates and product class. Purity is
        read once every orbit is stamped, since class_of reads 0 on
        unstamped indices."""
        n = self.n
        total = enumerate_count(n, True)
        seen = bytearray((total + 7) // 8)
        class_of = array(self.class_of.typecode, [0]) * total
        least_rows = []
        for k in range(total):
            if not seen[k >> 3] >> (k & 7) & 1:
                rows = tuple(next(iter_adj_rows(n, True, start=k, stop=k + 1)))
                for member in stamp_orbit(n, rows, True, seen):
                    class_of[member] = len(least_rows)
                least_rows.append(rows)
        self.class_of = class_of
        self.class_nbhd_pure = [
            all(class_of[adjacency_index(n, mate)] == number
                for mate in _neighborhood_mates(n, rows))
            for number, rows in enumerate(least_rows)
        ]
        products = [
            _certificate(2 * n, direct_product(Graph(n, rows), K2).adj) for rows in least_rows
        ]
        shared = Counter(products)
        self.class_product_pure = [shared[key] == 1 for key in products]

    def canon_of(self, rows) -> int:
        return self.class_of[adjacency_index(self.n, rows)]

    def neighborhood_pure(self, rows) -> bool:
        return self.class_nbhd_pure[self.canon_of(rows)]

    def product_pure(self, rows) -> bool:
        return self.class_product_pure[self.canon_of(rows)]


def _main_pass_for_n(
    index: _UniverseIndex,
    loops_allowed: bool,
    violations: _Violations,
    start: int = 0,
    stop: int | None = None,
) -> tuple[int, int, int, int]:
    """The decider's routes against both oracles, graph by graph, plus the
    orbit checks up to ORBIT_CHECK_MAX, all from one Ant search and one G^a
    per image, with every certificate read off the universe index; the
    involution test reads the Ant list, since the involutions in Ant(G) are
    the involutory automorphisms. The index is the loops-allowed one at the
    pass's n, so it holds every G^a, which may have loops whatever the
    mode."""
    n = index.n
    graphs = 0
    non_rec = 0
    non_strong = 0
    bip_failures = 0
    for rows in iter_adj_rows(n, loops_allowed, start=start, stop=stop):
        frozen = tuple(rows)
        graphs += 1
        ant = list(iter_ant_images(n, frozen))
        moved = [apply_anti_rows(frozen, img) for img in ant]
        mkey = multiset_key(frozen)
        direct = True
        for img, arows in zip(ant, moved):
            direct = direct and arows == frozen
            if multiset_key(arows) != mkey:
                violations.add(
                    "eq1_multiset", n,
                    edges=_edges_of_rows(n, frozen), alpha=list(img),
                )
        slow = _full_route(frozen, zip(ant, moved), index.canon_of)
        if not slow:
            non_rec += 1
        g = Graph(n, frozen)
        bip = bipartition(g)
        bip_verdict = _bip_decide(g, bip)[0] if bip.is_bipartite else None
        if bip_verdict is False:
            bip_failures += 1
        if not any(map(is_involution, ant)):
            fast = True
        elif bip_verdict is not None:
            fast = bip_verdict
        else:
            fast = slow
        if fast != slow:
            violations.add(
                "fast_paths", n,
                edges=_edges_of_rows(n, frozen), fast=fast, slow=slow,
            )
        oracle_n = index.neighborhood_pure(frozen)
        if oracle_n != slow:
            violations.add(
                "theorem_vs_neighborhood_oracle", n,
                edges=_edges_of_rows(n, frozen), decider=slow, oracle=oracle_n,
            )
        oracle_p = index.product_pure(frozen)
        if oracle_p != slow:
            violations.add(
                "theorem_vs_cancellation_oracle", n,
                edges=_edges_of_rows(n, frozen), decider=slow, oracle=oracle_p,
            )
        classwise = _classwise_strong(frozen, ant)
        if direct != classwise:
            violations.add(
                "strong_routes", n,
                edges=_edges_of_rows(n, frozen), direct=direct, classwise=classwise,
            )
        if not direct:
            non_strong += 1
        if n <= ORBIT_CHECK_MAX and len(ant) > 1:
            _orbit_checks(n, frozen, ant, [index.canon_of(r) for r in moved], violations)
    return graphs, non_rec, non_strong, bip_failures


def _orbit_checks(
    n: int,
    rows: tuple[int, ...],
    ant: list[tuple[int, ...]],
    certs: list[int],
    violations: _Violations,
) -> None:
    """certs[i] is the certificate of G^ant[i]. simeqiso: the Aut^TF(G)
    orbits are the isomorphism classes of the G^a. simplus2: G^a is
    isomorphic to G^(a^e) for every odd exponent e."""
    for kind, detail in _orbit_partition(n, rows, ant, certs)[1]:
        violations.add(f"simeqiso_{kind}", n, edges=_edges_of_rows(n, rows), **detail)
    position = {img: i for i, img in enumerate(ant)}
    for img, cert in zip(ant, certs):
        order = perm_order(img)
        if order <= 2:
            continue
        power = img
        square = tuple(img[img[v]] for v in range(n))
        for _ in range(order):
            power = tuple(square[power[v]] for v in range(n))
            j = position.get(power)
            # an odd power outside Ant(G) has no G^(a^e) to compare
            if j is None or certs[j] != cert:
                violations.add(
                    "simplus2", n, edges=_edges_of_rows(n, rows),
                    alpha=list(img), exponent_image=list(power),
                )


def _neighborhood_prop_pass(nmax: int, violations: _Violations) -> None:
    """Oracle members must be exactly the permuted graphs, both directions."""
    for n in range(1, min(nmax, SIDE_SUITE_MAX) + 1):
        groups: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        for rows in iter_adj_rows(n, True):
            frozen = tuple(rows)
            groups.setdefault(multiset_key(frozen), []).append(frozen)
        for members in groups.values():
            member_set = set(members)
            for frozen in members:
                images = {
                    apply_anti_rows(frozen, img) for img in iter_ant_images(n, frozen)
                }
                if images != member_set:
                    violations.add(
                        "neighborhood_prop", n,
                        edges=_edges_of_rows(n, frozen),
                        missing=len(member_set - images),
                        extra=len(images - member_set),
                    )


def _pair_membership_pass(nmax: int, violations: _Violations) -> None:
    """Brute-force Aut^TF against the enumerator; anti and auto embeddings.
    (lambda, mu) is two-fold iff lambda(N(x)) = N(mu(x)) for every x, so
    every lambda looks its partners up among the rows-after-mu of every mu."""
    for n in range(1, min(nmax, SIDE_SUITE_MAX) + 1):
        perms = list(all_permutations(n))
        for rows in iter_adj_rows(n, True):
            frozen = tuple(rows)
            g = Graph(n, frozen)
            by_rows: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
            for mu in perms:
                by_rows.setdefault(tuple(frozen[x] for x in mu), []).append(mu)
            brute = {
                (lam, mu)
                for lam in perms
                for mu in by_rows.get(tuple(permute_mask(row, lam) for row in frozen), ())
            }
            listed = {
                (pair.lam.image, pair.mu.image) for pair in enumerate_aut_tf(g)
            }
            if brute != listed:
                violations.add(
                    "aut_tf_enumeration", n, edges=_edges_of_rows(n, frozen),
                )
            ant = set(iter_ant_images(n, frozen))
            aut = set(iter_automorphism_images(n, frozen))
            from_pairs_anti = set()
            from_pairs_auto = set()
            for lam, mu in brute:
                inv = invert(mu)
                if inv == lam:
                    from_pairs_anti.add(lam)
                if lam == mu:
                    from_pairs_auto.add(lam)
                for a in ant:
                    if tuple(lam[a[u]] for u in inv) not in ant:
                        violations.add(
                            "action_closure", n,
                            edges=_edges_of_rows(n, frozen),
                            pair=[list(lam), list(mu)], alpha=list(a),
                        )
                        break
            if from_pairs_anti != ant:
                violations.add(
                    "anti_pair_embedding", n, edges=_edges_of_rows(n, frozen),
                )
            if from_pairs_auto != aut:
                violations.add(
                    "auto_pair_embedding", n, edges=_edges_of_rows(n, frozen),
                )


def _digraph_symmetry_pass(nmax: int, violations: _Violations) -> None:
    """The permuted digraph is symmetric iff the permutation is an
    anti-automorphism."""
    for n in range(1, min(nmax, SIDE_SUITE_MAX) + 1):
        perms = [Permutation(p) for p in all_permutations(n)]
        for rows in iter_adj_rows(n, True):
            g = Graph(n, tuple(rows))
            for p in perms:
                if permuted_digraph(g, p).is_symmetric() != is_anti_automorphism(g, p):
                    violations.add(
                        "digraph_symmetry", n,
                        edges=_edges_of_rows(n, g.adj), perm=list(p.image),
                    )


def _connected_row_sets(n: int, loops_allowed: bool) -> list[tuple[int, ...]]:
    out = []
    for rows in iter_adj_rows(n, loops_allowed):
        if len(component_masks(n, rows)) == 1:
            out.append(tuple(rows))
    return out


def _weichsel_pass(nmax: int, violations: _Violations) -> None:
    """Connectivity of products of connected factors with at least one edge:
    connected iff some factor is non-bipartite; two components when both are
    bipartite with edges."""
    # every connected factor with an edge up to n=3, loops allowed, then
    # the loopless ones at n=4 (the loopless ones below 4 are already in)
    factors = [
        Graph(n, rows)
        for n in range(1, min(nmax, 3) + 1)
        for rows in _connected_row_sets(n, True)
        if any(rows)
    ]
    if nmax >= 4:
        factors.extend(Graph(4, rows) for rows in _connected_row_sets(4, False) if any(rows))
    bipartite = [bipartition(g).is_bipartite for g in factors]
    for g, g_bip in zip(factors, bipartite):
        for h, h_bip in zip(factors, bipartite):
            prod = direct_product(g, h)
            ncomp = len(component_masks(prod.n, prod.adj))
            expected = 2 if g_bip and h_bip else 1
            if ncomp != expected:
                violations.add(
                    "weichsel", max(g.n, h.n),
                    g_edges=_edges_of_rows(g.n, g.adj),
                    h_edges=_edges_of_rows(h.n, h.adj),
                    components=ncomp, expected=expected,
                )


def _lovasz_pass(nmax: int, violations: _Violations) -> None:
    """G x K3 iso H x K3 forces G iso H over loopless graphs."""
    for n in range(1, min(nmax, SIDE_SUITE_MAX) + 1):
        classes: dict[bytes, set[bytes]] = {}
        for rows in iter_adj_rows(n, False):
            frozen = tuple(rows)
            prod = direct_product(Graph(n, frozen), K3)
            key = _certificate(prod.n, prod.adj)
            classes.setdefault(key, set()).add(_certificate(n, frozen))
        for canons in classes.values():
            if len(canons) > 1:
                violations.add("lovasz_k3", n, note="product class contains non-isomorphic members")


def _roundtrip_pass(nmax: int, violations: _Violations) -> None:
    for n in range(1, min(nmax, SIDE_SUITE_MAX) + 1):
        for rows in iter_adj_rows(n, True):
            frozen = tuple(rows)
            g = Graph(n, frozen)
            for img in iter_ant_images(n, frozen):
                target_rows = apply_anti_rows(frozen, img)
                result = extract_anti_from_product_iso(g, Graph(n, target_rows))
                if result is None:
                    violations.add(
                        "roundtrip_missing", n,
                        edges=_edges_of_rows(n, frozen), alpha=list(img),
                    )
                    continue
                alpha, _mu = result
                got = apply_anti_rows(frozen, alpha.image)
                if got != target_rows and (
                    _certificate(n, got) != _certificate(n, target_rows)
                ):
                    violations.add(
                        "roundtrip_mismatch", n,
                        edges=_edges_of_rows(n, frozen),
                        alpha=list(img), recovered=list(alpha.image),
                    )


def _fixed_bipartition_rows(n: int) -> Iterator[tuple[int, ...]]:
    """Every graph with all edges between {0..k-1} and {k..n-1}, k <= n/2.
    Each bipartite graph on n vertices is a relabeling of one of them: put
    its smaller colour class first."""
    for k in range(n // 2 + 1):
        for sides in itertools.product(range(1 << n - k), repeat=k):
            rows = [side << k for side in sides]
            rows.extend(mask_of(a for a in range(k) if sides[a] >> b & 1) for b in range(n - k))
            yield tuple(rows)


def _bip_class_checks(n: int, rows: tuple[int, ...]) -> tuple[bool, list[tuple[str, dict]]]:
    """The reversal-involution decider's verdict on one bipartite graph, and
    the (suite, detail) of each check it fails: the verdict must agree with
    the anti-automorphism route, and G x K2 must equal G + G up to iso."""
    g = Graph(n, rows)
    bip = bipartition(g)
    if not bip.is_bipartite:
        raise InvariantViolationError(f"relabeled bipartite graph {rows} read as non-bipartite")
    found = []
    bip_verdict, _ = _bip_decide(g, bip)
    slow = _full_route(rows, _permuted(rows, iter_ant_images(n, rows)), partial(_certificate, n))
    if bip_verdict != slow:
        found.append(("biprevinv", {
            "edges": _edges_of_rows(n, rows),
            "reversal_decider": bip_verdict, "anti_route": slow,
        }))
    doubled = _certificate(2 * n, disjoint_union(g, g).adj)
    if doubled != _certificate(2 * n, direct_product(g, K2).adj):
        found.append(("double_cover", {"edges": _edges_of_rows(n, rows)}))
    return bip_verdict, found


@lru_cache(maxsize=1)
def _bip_classes(n: int) -> tuple[bytearray, bytearray, tuple]:
    """The bipartite sweep at n, per iso class: a bitset over the loopless
    enumeration indices of the bipartite graphs, one of those whose
    reversal decider says no, and (least index, found) for each class with
    a failed check, ascending. Every check runs once per class, on its
    least labeled member. See BIP_SWEEP_MAX for the memory this holds."""
    total = enumerate_count(n, False)
    bipartite = bytearray((total + 7) // 8)
    failing = bytearray(len(bipartite))
    faults = []
    for rows in _fixed_bipartition_rows(n):
        members = stamp_orbit(n, rows, False, bipartite)
        if not members:
            continue
        least = min(members)
        rep = tuple(next(iter_adj_rows(n, False, start=least, stop=least + 1)))
        verdict, found = _bip_class_checks(n, rep)
        if not verdict:
            for k in members:
                failing[k >> 3] |= 1 << (k & 7)
        if found:
            faults.append((least, found))
    faults.sort(key=lambda fault: fault[0])
    return bipartite, failing, tuple(faults)


# bytes of a bitset read as one int at a time; whole 32 MiB bitsets at n=8
# would take five such ints at once
_COUNT_BLOCK = 1 << 20


def _count_bits(bits: bytearray, start: int, stop: int) -> int:
    """Set bits of the bitset at indices start..stop-1."""
    if start >= stop:
        return 0
    lo = start >> 3
    hi = (stop + 7) >> 3
    view = memoryview(bits)
    count = 0
    for at in range(lo, hi, _COUNT_BLOCK):
        count += int.from_bytes(view[at:min(at + _COUNT_BLOCK, hi)], "little").bit_count()
    # the end bytes' bits below start and from stop on are outside
    count -= (bits[lo] & (1 << (start & 7)) - 1).bit_count()
    if stop & 7:
        count -= (bits[hi - 1] >> (stop & 7)).bit_count()
    return count


def _bip_sweep_for_n(
    n: int, violations: _Violations, start: int = 0, stop: int | None = None
) -> tuple[int, int]:
    """The bipartite graphs among loopless enumeration indices start..stop-1
    and their reversal failures, counted off _bip_classes. A class's
    violations are added only by the range that holds its least index, so
    any split of the range reports each once."""
    total = enumerate_count(n, False)
    if stop is None:
        stop = total
    if not 0 <= start <= stop <= total:
        raise UsageError(f"bad enumeration slice [{start}, {stop}) for n={n}")
    bipartite, failing, faults = _bip_classes(n)
    for least, found in faults:
        if start <= least < stop:
            for suite, detail in found:
                violations.add(suite, n, **detail)
    return _count_bits(bipartite, start, stop), _count_bits(failing, start, stop)


# ---------------------------------------------------------------------------
# parallel plumbing
# ---------------------------------------------------------------------------
#
# Only the main pass, which stays per labeled graph, is sharded: the
# universe index and the bipartite sweep work per iso class and take
# seconds in one process. Workers rebuild iteration state from (start,
# stop) and get the universe index as an argument, pickled once per shard:
# mostly its class_of array, 4 MiB at n=6.
# _worker_bip_sweep keeps the (n, start, stop) worker shape for callers
# that time slices of the sweep.

_POOL_THRESHOLD = 1 << 12


def _run_pool(worker, argslist: list, jobs: int) -> list:
    import multiprocessing as mp

    ctx = mp.get_context("fork")
    with ctx.Pool(min(jobs, len(argslist))) as pool:
        return pool.map(worker, argslist)


def _fork_available() -> bool:
    import multiprocessing as mp

    try:
        mp.get_context("fork")
    except ValueError:
        return False
    return True


def _pass_worker(pass_fn, args: tuple) -> tuple:
    """pass_fn(*head, violations, start=lo, stop=hi) for args = (*head, lo, hi),
    as (*counts, violation items, violation total)."""
    *head, start, stop = args
    violations = _Violations()
    counts = pass_fn(*head, violations, start=start, stop=stop) or ()
    return (*counts, violations.items, violations.total)


def _worker_bip_sweep(args: tuple[int, int, int]):
    return _pass_worker(_bip_sweep_for_n, args)


def _shards(total: int, jobs: int) -> list[tuple[int, int]]:
    chunk = (total + jobs - 1) // jobs
    return [(lo, min(lo + chunk, total)) for lo in range(0, total, chunk)]


def _run_shards(worker, total: int, args: tuple, jobs: int) -> list:
    """worker((*args, lo, hi)) for each shard of range(total): in a fresh
    fork pool when jobs > 1 and the range is large, else once in-process
    over the whole range."""
    if jobs > 1 and total >= _POOL_THRESHOLD:
        return _run_pool(
            worker, [(*args, lo, hi) for lo, hi in _shards(total, jobs)], jobs
        )
    return [worker((*args, 0, total))]


def verify_theorems(
    nmax: int,
    loops_allowed: bool,
    *,
    bip_max: int = BIP_SWEEP_MAX,
    jobs: int | None = None,
    force: bool = False,
) -> VerificationReport:
    """Run every exhaustive invariant suite up to nmax and report violations.

    The main suite compares the decider against both oracles, read per class
    from the universe index, for every graph of the mode's universe and, up to ORBIT_CHECK_MAX, checks
    orbit/isomorphism agreement and odd powers on the same Ant search; side
    suites cover the multiset identity, two-fold membership, digraph
    symmetry, product structure, and the bipartite sweep (which always runs
    loopless up to bip_max, independent of mode).
    """
    limit = VERIFY_MAX_LOOPS if loops_allowed else VERIFY_MAX_SIMPLE
    if nmax > limit and not force:
        raise CapacityError(
            f"verification guarded at nmax<={limit} "
            f"({'loops' if loops_allowed else 'loopless'}); pass force=True"
        )
    if bip_max > BIP_SWEEP_MAX and not force:
        raise CapacityError(f"bipartite sweep guarded at n<={BIP_SWEEP_MAX}")
    if nmax < 1:
        raise UsageError("nmax must be at least 1")
    if bip_max < 0:
        raise UsageError("bip_max must be at least 0")
    cpus = os.cpu_count() or 1
    if jobs is None:
        jobs = cpus
    elif jobs < 1:
        raise UsageError(f"jobs must be at least 1, got {jobs}")
    jobs = min(jobs, cpus)
    if jobs > 1 and not _fork_available():
        jobs = 1

    violations = _Violations()
    census = []
    bip_census = []
    seconds: list[tuple[str, float]] = []

    def timed(name: str, fn: Callable[[], None]) -> None:
        t0 = time.perf_counter()
        fn()
        seconds.append((name, round(time.perf_counter() - t0, 3)))

    def run_main() -> None:
        for n in range(1, nmax + 1):
            index = _UniverseIndex(n)
            index.build()
            mode_total = enumerate_count(n, loops_allowed)
            shards = _run_shards(
                partial(_pass_worker, _main_pass_for_n), mode_total,
                (index, loops_allowed), jobs,
            )
            sums = [0, 0, 0, 0]
            for *counts, items, total in shards:
                violations.absorb(items, total)
                sums = [a + b for a, b in zip(sums, counts)]
            graphs, non_rec, non_strong, bipf = sums
            if graphs != mode_total:
                raise InvariantViolationError(
                    f"census covered {graphs} graphs, expected {mode_total}"
                )
            census.append(CensusRow(n, graphs, non_rec, non_strong, bipf))

    timed("main", run_main)
    for name, suite in (
        ("neighborhood_prop", _neighborhood_prop_pass),
        ("pair_membership", _pair_membership_pass),
        ("digraph_symmetry", _digraph_symmetry_pass),
        ("weichsel", _weichsel_pass),
        ("lovasz", _lovasz_pass),
        ("roundtrip", _roundtrip_pass),
    ):
        timed(name, partial(suite, nmax, violations))

    def run_sweep() -> None:
        for n in range(1, bip_max + 1):
            checked, failures = _bip_sweep_for_n(n, violations)
            bip_census.append(BipSweepRow(n, checked, failures))

    timed("bipartite_sweep", run_sweep)

    return VerificationReport(
        nmax=nmax,
        loops_allowed=loops_allowed,
        bip_max=bip_max,
        jobs=jobs,
        census=tuple(census),
        bipartite_census=tuple(bip_census),
        violations=tuple(violations.items),
        suite_seconds=tuple(seconds),
    )
