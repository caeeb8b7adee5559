"""Brute-force oracles and the exhaustive verification suites.

Everything here deliberately avoids anti-automorphism reasoning when
producing a verdict: the neighborhood oracle scans every labeled graph on
the same vertex set and compares neighborhood multisets; the cancellation
oracle scans the same universe and compares product certificates. Agreement
with the decide module is then actual evidence, because the two routes share
no theory beyond the isomorphism engine.

The verification suites group the scan by key instead of calling the oracles
once per graph: one pass over the universe buckets every H by multiset key
and by product certificate, marking a bucket mixed as soon as two members
are non-isomorphic. A graph's oracle verdict is then just its bucket's flag.
H-universes always allow loops, whatever the mode, because a loopless graph
can have loopy product mates.
"""
from __future__ import annotations

import os
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable

from .antiauto import (
    _orbit_partition,
    apply_anti_rows,
    enumerate_aut_tf,
    is_anti_automorphism,
    iter_ant_images,
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
    enumerate_count,
    invert,
    iter_adj_rows,
    maps_neighborhoods,
    multiset_key,
    perm_order,
)
from .iso import (
    canon_connected,
    canon_rows,
    cert_bytes,
    compact_rows,
    involution_witness,
    iter_automorphism_images,
)
from .product import bipartition, direct_product

ORACLE_MAX = 6
VERIFY_MAX_LOOPS = 5
VERIFY_MAX_SIMPLE = 6
BIP_SWEEP_MAX = 7
ORBIT_CHECK_MAX = 5

K2 = Graph(2, (2, 1))
K3 = Graph(3, (6, 5, 3))

_SPREAD = tuple(
    sum(1 << 2 * j for j in range(7) if m >> j & 1) for m in range(128)
)


def _oracle_guard(n: int, force: bool) -> None:
    if n > ORACLE_MAX and not force:
        raise CapacityError(
            f"oracle scans 2^(n(n+1)/2) graphs; guarded at n<={ORACLE_MAX}"
        )


def neighborhood_oracle(g: Graph, *, force: bool = False) -> list[Graph]:
    """Every labeled graph on V(G) (loops allowed) with the same neighborhood
    multiset, in enumeration order. Contains g itself."""
    _oracle_guard(g.n, force)
    target = multiset_key(g.adj)
    out = []
    for rows in iter_adj_rows(g.n, True):
        if tuple(sorted(rows)) == target:
            out.append(Graph(g.n, tuple(rows)))
    return out


def _product_with_k2_rows(n: int, rows) -> tuple[int, ...]:
    """Rows of G x K2 under the (x,k) -> 2x+k encoding, for n <= 7."""
    out = []
    for v in range(n):
        spread = _SPREAD[rows[v]]
        out.append(spread << 1)
        out.append(spread)
    return tuple(out)


def _cancellation_scan(g: Graph, force: bool) -> tuple[bool, Graph | None]:
    _oracle_guard(g.n, force)
    n = g.n
    base_prod = direct_product(g, K2)
    base_cert = cert_bytes(base_prod.n, canon_rows(base_prod.n, base_prod.adj)[0])
    base_sizes = sorted(m.bit_count() for m in component_masks(base_prod.n, base_prod.adj))
    own_cert = cert_bytes(n, canon_rows(n, g.adj)[0])
    degs = sorted(r.bit_count() for r in g.adj)
    offenders = []
    for rows in iter_adj_rows(n, True):
        if sorted(r.bit_count() for r in rows) != degs:
            continue
        prod = _product_with_k2_rows(n, rows)
        if sorted(m.bit_count() for m in component_masks(2 * n, prod)) != base_sizes:
            continue
        if cert_bytes(2 * n, canon_rows(2 * n, prod)[0]) != base_cert:
            continue
        frozen = tuple(rows)
        if cert_bytes(n, canon_rows(n, frozen)[0]) != own_cert:
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
    found, return (a, mu) with a = mu^-1 lambda, so that mu: G^a -> H.

    This is exactly a layer-preserving isomorphism G x K2 -> H x K2 with
    mu the layer-0 and lambda the layer-1 action. Returns None when no
    layer-preserving isomorphism exists.
    """
    if g.n != h.n:
        raise UsageError(f"vertex counts differ: {g.n} vs {h.n}")
    _oracle_guard(g.n, force)
    n = g.n
    grows = g.adj
    hrows = h.adj
    gdeg = [r.bit_count() for r in grows]
    hdeg = [r.bit_count() for r in hrows]
    mu = [-1] * n
    lam = [-1] * n

    def place_mu(v: int, used_mu: int, used_lam: int) -> bool:
        if v == n:
            return True
        for b in range(n):
            if used_mu >> b & 1 or hdeg[b] != gdeg[v]:
                continue
            ok = True
            for y in range(v):
                if (grows[v] >> y & 1) != (hrows[b] >> lam[y] & 1):
                    ok = False
                    break
            if ok:
                mu[v] = b
                if place_lam(v, used_mu | 1 << b, used_lam):
                    return True
                mu[v] = -1
        return False

    def place_lam(v: int, used_mu: int, used_lam: int) -> bool:
        for c in range(n):
            if used_lam >> c & 1 or hdeg[c] != gdeg[v]:
                continue
            ok = True
            for x in range(v + 1):
                if (grows[x] >> v & 1) != (hrows[mu[x]] >> c & 1):
                    ok = False
                    break
            if ok:
                lam[v] = c
                if place_mu(v + 1, used_mu, used_lam | 1 << c):
                    return True
                lam[v] = -1
        return False

    if not place_mu(0, 0, 0):
        return None
    mu_p = Permutation(tuple(mu))
    lam_p = Permutation(tuple(lam))
    alpha = mu_p.inverse().compose(lam_p)
    if not is_anti_automorphism(g, alpha):
        raise InvariantViolationError("extracted map is not an anti-automorphism")
    moved = apply_anti_rows(grows, alpha.image)
    if not maps_neighborhoods(moved, hrows, mu_p.image, mu_p.image):
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
            "census": [
                {
                    "n": row.n,
                    "graphs": row.graphs,
                    "non_reconstructible": row.non_reconstructible,
                    "non_strongly": row.non_strongly,
                    "bipartite_failures": row.bipartite_failures,
                }
                for row in self.census
            ],
            "bipartite_census": [
                {
                    "n": row.n,
                    "bipartite_graphs": row.bipartite_graphs,
                    "reversal_failures": row.reversal_failures,
                }
                for row in self.bipartite_census
            ],
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


def _pack(n: int, rows) -> int:
    acc = 0
    for i, row in enumerate(rows):
        acc |= row << n * i
    return acc


def _mark(buckets: dict, key, canon: int) -> None:
    """File a graph whose canonical rows have adjacency index canon under
    key. A bucket holds its first member's canon << 1, plus 1 once a
    non-isomorphic member joins."""
    prev = buckets.get(key)
    if prev is None:
        buckets[key] = canon << 1
    elif prev >> 1 != canon:
        buckets[key] = prev | 1


def _fold(buckets: dict, other: dict) -> None:
    """Merge another shard's buckets, of the shape _mark writes, into buckets."""
    for key, packed in other.items():
        prev = buckets.get(key)
        if prev is None:
            buckets[key] = packed
        elif (prev | packed) & 1 or prev >> 1 != packed >> 1:
            buckets[key] = prev | 1


class _UniverseIndex:
    """Single-pass bucketing of the loops-allowed universe at one n.

    canon_packs[k] is the adjacency index of the canonical rows of
    enumeration index k, equal exactly on isomorphic graphs. nbhd maps a
    packed sorted-rows key to a _mark bucket; product does the same for a
    product class, the sorted component certificates of G x K2, which
    class_product holds per canonical index: relabeling G relabels the
    product, so it is computed once per iso class of G.
    """

    def __init__(self, n: int) -> None:
        self.n = n
        self.canon_packs: list[int] = []
        self.nbhd: dict[int, int] = {}
        self.product: dict[tuple[bytes, ...], int] = {}
        self.class_product: dict[int, tuple[bytes, ...]] = {}

    def build(self, start: int = 0, stop: int | None = None) -> None:
        n = self.n
        if stop is None:
            stop = enumerate_count(n, True)
        canon_packs = [0] * (stop - start)
        nbhd = self.nbhd
        product = self.product
        class_product = self.class_product
        pos = 0
        for rows in iter_adj_rows(n, True, start=start, stop=stop):
            frozen = tuple(rows)
            canon = canon_rows(n, frozen)[0]
            cp = adjacency_index(n, canon)
            canon_packs[pos] = cp
            pos += 1
            _mark(nbhd, _pack(n, sorted(frozen)), cp)
            key = class_product.get(cp)
            if key is None:
                key = _component_class_multiset(2 * n, _product_with_k2_rows(n, canon))
                class_product[cp] = key
            _mark(product, key, cp)

        self.canon_packs = canon_packs

    def merge(self, other: "_UniverseIndex") -> None:
        self.canon_packs.extend(other.canon_packs)
        _fold(self.nbhd, other.nbhd)
        self.class_product.update(other.class_product)
        _fold(self.product, other.product)

    def canon_of(self, rows) -> int:
        return self.canon_packs[adjacency_index(self.n, rows)]

    def neighborhood_pure(self, rows) -> bool:
        return not self.nbhd[_pack(self.n, sorted(rows))] & 1

    def product_pure(self, rows) -> bool:
        return not self.product[self.class_product[self.canon_of(rows)]] & 1


def _main_pass_for_n(
    n: int,
    loops_allowed: bool,
    violations: _Violations,
    start: int = 0,
    stop: int | None = None,
) -> tuple[int, int, int, int]:
    """The decider's routes against both scan oracles, graph by graph, plus
    the orbit checks up to ORBIT_CHECK_MAX, all from one Ant search and one
    G^a per image. The universe index comes from _FORK_STATE, where
    verify_theorems puts it; it holds every G^a, since G^a may have loops
    whatever the mode."""
    index: _UniverseIndex = _FORK_STATE["index"]
    graphs = 0
    non_rec = 0
    non_strong = 0
    bip_failures = 0
    for rows in iter_adj_rows(n, loops_allowed, start=start, stop=stop):
        frozen = tuple(rows)
        graphs += 1
        ant = list(iter_ant_images(n, frozen))
        moved = [apply_anti_rows(frozen, img) for img in ant]
        mkey = tuple(sorted(frozen))
        direct = True
        for img, arows in zip(ant, moved):
            direct = direct and arows == frozen
            if tuple(sorted(arows)) != mkey:
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
        if involution_witness(g) is None:
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
            certs = [index.canon_of(arows) for arows in moved]
            _orbit_checks(n, frozen, ant, certs, violations)
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


def _neighborhood_prop_pass(n: int, violations: _Violations) -> None:
    """Oracle members must be exactly the permuted graphs, both directions."""
    groups: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for rows in iter_adj_rows(n, True):
        frozen = tuple(rows)
        groups.setdefault(tuple(sorted(frozen)), []).append(frozen)
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


def _pair_membership_pass(n: int, violations: _Violations) -> None:
    """Brute-force Aut^TF against the enumerator; anti and auto embeddings."""
    perms = list(all_permutations(n))
    for rows in iter_adj_rows(n, True):
        frozen = tuple(rows)
        g = Graph(n, frozen)
        brute = set()
        for lam in perms:
            for mu in perms:
                if maps_neighborhoods(frozen, frozen, lam, mu):
                    brute.add((lam, mu))
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


def _digraph_symmetry_pass(n: int, violations: _Violations) -> None:
    """The permuted digraph is symmetric iff the permutation is an
    anti-automorphism."""
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
    for n in range(1, min(nmax, 4) + 1):
        buckets: dict[bytes, int] = {}
        for rows in iter_adj_rows(n, False):
            frozen = tuple(rows)
            prod = direct_product(Graph(n, frozen), K3)
            key = cert_bytes(prod.n, canon_rows(prod.n, prod.adj)[0])
            _mark(buckets, key, adjacency_index(n, canon_rows(n, frozen)[0]))
        for packed in buckets.values():
            if packed & 1:
                violations.add("lovasz_k3", n, note="product class contains non-isomorphic members")


def _roundtrip_pass(n: int, violations: _Violations) -> None:
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
            if got != target_rows and cert_bytes(n, canon_rows(n, got)[0]) != cert_bytes(
                n, canon_rows(n, target_rows)[0]
            ):
                violations.add(
                    "roundtrip_mismatch", n,
                    edges=_edges_of_rows(n, frozen),
                    alpha=list(img), recovered=list(alpha.image),
                )


def _component_class_multiset(n: int, rows) -> tuple[bytes, ...]:
    parts = []
    for mask in component_masks(n, rows):
        local = compact_rows(rows, mask)
        crows, _ = canon_connected(len(local), local)
        parts.append(cert_bytes(len(local), crows))
    return tuple(sorted(parts))


def _bip_sweep_for_n(
    n: int, violations: _Violations, start: int = 0, stop: int | None = None
) -> tuple[int, int]:
    """Bipartite-only sweep: the reversal-involution decider must agree with
    the anti-automorphism route, and G x K2 must equal G + G up to iso."""
    checked = 0
    failures = 0

    def cert(rows: tuple[int, ...]) -> tuple[int, ...]:
        return canon_rows(n, rows)[0]

    for rows in iter_adj_rows(n, False, start=start, stop=stop):
        frozen = tuple(rows)
        g = Graph(n, frozen)
        bip = bipartition(g)
        if not bip.is_bipartite:
            continue
        checked += 1
        bip_verdict, _ = _bip_decide(g, bip)
        if not bip_verdict:
            failures += 1
        slow = _full_route(frozen, _permuted(frozen, iter_ant_images(n, frozen)), cert)
        if bip_verdict != slow:
            violations.add(
                "biprevinv", n,
                edges=_edges_of_rows(n, frozen),
                reversal_decider=bip_verdict, anti_route=slow,
            )
        doubled = _component_class_multiset(n, frozen) * 2
        cover = _component_class_multiset(2 * n, _product_with_k2_rows(n, frozen))
        if tuple(sorted(doubled)) != cover:
            violations.add(
                "double_cover", n, edges=_edges_of_rows(n, frozen),
            )
    return checked, failures


# ---------------------------------------------------------------------------
# parallel plumbing
# ---------------------------------------------------------------------------
#
# Workers rebuild iteration state from (n, start, stop). Large read-only
# state (the universe index) travels by fork inheritance: it is stashed in
# _FORK_STATE before the pool for that phase is created, so every child gets
# it for free via copy-on-write. That requires a fresh pool per phase, which
# fork makes cheap.

_FORK_STATE: dict = {}

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


def _worker_universe(args: tuple[int, int, int]) -> "_UniverseIndex":
    n, start, stop = args
    index = _UniverseIndex(n)
    index.build(start=start, stop=stop)
    return index


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


def _run_shards(worker, n: int, total: int, args: tuple, jobs: int) -> list:
    """worker((n, *args, lo, hi)) for each shard of range(total): in a fresh
    fork pool when jobs > 1 and the range is large, else once in-process
    over the whole range."""
    if jobs > 1 and total >= _POOL_THRESHOLD:
        return _run_pool(
            worker, [(n, *args, lo, hi) for lo, hi in _shards(total, jobs)], jobs
        )
    return [worker((n, *args, 0, total))]


def verify_theorems(
    nmax: int,
    loops_allowed: bool,
    *,
    bip_max: int = BIP_SWEEP_MAX,
    jobs: int | None = None,
    force: bool = False,
) -> VerificationReport:
    """Run every exhaustive invariant suite up to nmax and report violations.

    The main suite compares the decider against both scan oracles for every
    graph of the mode's universe and, up to ORBIT_CHECK_MAX, checks
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

    def sharded(pass_fn, n: int, loops: bool, *args) -> list[int]:
        """pass_fn's summed counts over the universe at n; its violations
        are folded into the report's."""
        results = _run_shards(
            partial(_pass_worker, pass_fn), n, enumerate_count(n, loops), args, jobs
        )
        sums = [0] * (len(results[0]) - 2)
        for *counts, items, total in results:
            violations.absorb(items, total)
            sums = [a + b for a, b in zip(sums, counts)]
        return sums

    def run_main() -> None:
        for n in range(1, nmax + 1):
            parts = _run_shards(_worker_universe, n, enumerate_count(n, True), (), jobs)
            index = parts[0]
            for part in parts[1:]:
                index.merge(part)
            _FORK_STATE["index"] = index
            try:
                graphs, non_rec, non_strong, bipf = sharded(
                    _main_pass_for_n, n, loops_allowed, loops_allowed
                )
            finally:
                _FORK_STATE.clear()
            mode_total = enumerate_count(n, loops_allowed)
            if graphs != mode_total:
                raise InvariantViolationError(
                    f"census covered {graphs} graphs, expected {mode_total}"
                )
            census.append(CensusRow(n, graphs, non_rec, non_strong, bipf))

    timed("main", run_main)
    timed(
        "neighborhood_prop",
        lambda: [
            _neighborhood_prop_pass(n, violations)
            for n in range(1, min(4, nmax) + 1)
        ],
    )
    timed(
        "pair_membership",
        lambda: [
            _pair_membership_pass(n, violations)
            for n in range(1, min(4, nmax) + 1)
        ],
    )
    timed(
        "digraph_symmetry",
        lambda: [
            _digraph_symmetry_pass(n, violations)
            for n in range(1, min(4, nmax) + 1)
        ],
    )
    timed("weichsel", lambda: _weichsel_pass(nmax, violations))
    timed("lovasz", lambda: _lovasz_pass(nmax, violations))
    timed(
        "roundtrip",
        lambda: [
            _roundtrip_pass(n, violations) for n in range(1, min(4, nmax) + 1)
        ],
    )

    def run_sweep() -> None:
        for n in range(1, bip_max + 1):
            checked, failures = sharded(_bip_sweep_for_n, n, False)
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
