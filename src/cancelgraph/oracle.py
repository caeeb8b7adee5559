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
calling them once per graph: the main pass lists each class's neighborhood
mates once and looks their classes up in the universe index, which records
whether any other class shares the class's product class. H-universes
always allow loops, whatever the mode, because a loopless graph can have
loopy product mates.
"""
from __future__ import annotations

import itertools
import time
from array import array
from collections import Counter
from dataclasses import asdict, dataclass
from functools import lru_cache, partial
from typing import Callable, Iterator

from .antiauto import (
    _ant_cosets,
    _orbit_partition,
    apply_anti_rows,
    enumerate_aut_tf,
    is_anti_automorphism,
    iter_ant_images,
    iter_two_fold,
    permuted_digraph,
)
from .decide import _bip_decide, _classwise_strong, _full_route, strong_counterexample
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
    iter_adj_rows,
    maps_neighborhoods,
    mask_of,
    multiset_key,
    perm_order,
    permute_mask,
)
from .iso import (canon_rows, cert_bytes, involution_witness, iter_automorphism_images,
                  stamp_orbit)
from .product import bipartition, direct_product

ORACLE_MAX = 6
VERIFY_MAX_LOOPS = 5
VERIFY_MAX_SIMPLE = 6
BIP_SWEEP_MAX = 7
"""Default and guard for the bipartite sweep's largest n. The sweep's class
data for one n at a time stays cached (_bip_classes, built on first use):
two bitsets over the 2^(n(n-1)/2) loopless enumeration indices, bipartite
and reversal failure, plus the failed checks of any faulty class. That is
2 x 256 KiB at n=7 and 2 x 32 MiB at n=8 under force, exactly TABLE_MAX_MIB;
n=9 is refused whatever force says. The tables of stamp_orbit's two
generators add 160 KiB at n=8."""
SIDE_SUITE_MAX = 4
"""Largest n of the five side suites: pair_membership, digraph_symmetry,
weichsel, lovasz and roundtrip. Each takes the graphs it checks as
{n: rows} over the loops-allowed universe; verify feeds them the universe
index's class representatives up to this n, once per iso class."""

K2 = Graph(2, (2, 1))
K3 = Graph(3, (6, 5, 3))


def _certificate(n: int, rows) -> bytes:
    """The isomorphism certificate of rows: equal exactly on isomorphic
    graphs of order n."""
    return cert_bytes(n, canon_rows(n, rows)[0])


def _product_key(rows) -> tuple[tuple[int, ...], ...]:
    """The common-neighbour profile of G x K2, read off G's rows with loops
    included: (x,i) shares |N(x) & N(z)| neighbours with (z,i) and none
    with (z,1-i). Each vertex's counts are sorted, then the vertices, so
    graphs with isomorphic products have equal keys."""
    return tuple(sorted(tuple(sorted((a & b).bit_count() for b in rows)) for a in rows))


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
    CapacityError.check(
        g.n, ORACLE_MAX, force, "neighborhood oracle lists up to n! rearrangements of G's rows"
    )
    mates = sorted(_neighborhood_mates(g.n, g.adj), key=partial(adjacency_index, g.n))
    return [Graph(g.n, rows) for rows in mates]


def _cancellation_scan(g: Graph, force: bool) -> tuple[bool, Graph | None]:
    CapacityError.check(g.n, ORACLE_MAX, force, "cancellation oracle scans 2^(n(n+1)/2) graphs")
    n = g.n
    base_class = _certificate(2 * n, direct_product(g, K2).adj)
    base_key = _product_key(g.adj)
    own_cert = _certificate(n, g.adj)
    degs = sorted(r.bit_count() for r in g.adj)
    offenders = []
    for rows in iter_adj_rows(n, True):
        # equal product classes have equal degree sequences and product keys
        if sorted(r.bit_count() for r in rows) != degs or _product_key(rows) != base_key:
            continue
        if _certificate(2 * n, direct_product(Graph(n, rows), K2).adj) != base_class:
            continue
        if _certificate(n, rows) != own_cert:
            offenders.append(rows)
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
    CapacityError.check(
        g.n, ORACLE_MAX, force, "product-isomorphism search tries up to (n!)^2 pairs"
    )
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

    def add(self, suite: str, n: int, **detail) -> None:
        self.total += 1
        if len(self.items) < MAX_RECORDED_VIOLATIONS:
            self.items.append({"suite": suite, "n": n, **detail})
        elif len(self.items) == MAX_RECORDED_VIOLATIONS:
            self.items.append({"suite": "truncated", "n": 0, "note": "further violations omitted"})


def _edges_of_rows(n: int, rows) -> list[list[int]]:
    return [[x, y] for x in range(n) for y in bits_of(rows[x]) if y >= x]


def _loopless(n: int, rows) -> bool:
    return not any(rows[v] >> v & 1 for v in range(n))


_Feed = dict[int, list[tuple[int, ...]]]
"""The graphs a side suite checks: {n: rows of each graph}, loops allowed."""

TABLE_MAX_MIB = 64
"""Bound on the tables over one universe's 2^m labeled graphs, whatever
force says. The universe index keeps 17 bits a graph, a seen bit and a
16-bit class_of entry, which holds the 5096 classes at n=6 (OEIS A000666):
4.25 MiB at n=6, 544 MiB at n=7. The bipartite sweep keeps 2, its two
bitsets: 64 MiB at n=8, 2^36 bits at n=9."""


def check_table_bound(n: int, loops_allowed: bool) -> None:
    """Refuse the universe index (loops allowed) or the bipartite sweep
    (loopless) at n when its tables pass TABLE_MAX_MIB. m is computed, not
    counted, and 2^m is built only for an m within the bound."""
    m = n * (n + 1) // 2 if loops_allowed else n * (n - 1) // 2
    work, bits = ("universe index", 17) if loops_allowed else ("bipartite sweep", 2)
    limit = TABLE_MAX_MIB << 23  # in bits; 2^m alone passes it from its length on
    if m >= limit.bit_length() or bits << m > limit:
        raise CapacityError(
            f"{work} at n={n} takes {bits} bits for each of 2^{m} graphs; "
            f"tables bounded at {TABLE_MAX_MIB} MiB"
        )


class _UniverseIndex:
    """Isomorphism classes and oracle verdicts of the loops-allowed universe
    at one n, all per class.

    class_of[k] numbers the iso class of enumeration index k, in order of
    each class's least index. Stamping each orbit makes the numbers exact,
    so canon_of, the one lookup by rows, reads them as certificates.
    class_rows holds each class's least member, its representative, and
    class_size its member count, n!/|Aut|. class_product_pure says no
    other class has its product class, the isomorphism class of G x K2 as
    direct_product builds it (relabeling G relabels the product, so any
    member gives it).

    Equal product classes have equal product keys (_product_key), so a
    class alone in its key is product-pure without a canonical form. Only
    the classes that share their key take the certificate of G x K2 on
    its 2n vertices: 270 of 544 at n=5, 2353 of 5096 at n=6.
    """

    def __init__(self, n: int) -> None:
        self.n = n
        self.class_of = array("H")
        self.class_rows: list[tuple[int, ...]] = []
        self.class_size: list[int] = []
        self.class_product_pure: list[bool] = []

    def build(self) -> None:
        """The first unseen index of each class stamps its orbit, and that
        least member gives the class's product key and, where the key is
        shared, its product class."""
        n = self.n
        check_table_bound(n, True)
        total = enumerate_count(n, True)
        seen = bytearray((total + 7) // 8)
        class_of = array("H", [0]) * total
        class_rows = []
        class_size = []
        # the first unseen index k has no orbit member below it, or that
        # member would have stamped k, so stamping sets no bit below k and
        # a byte read as 0xFF holds no first unseen index; the scan tests
        # bits only in the other bytes, rereading the byte it is in
        for byte, bits in enumerate(seen):
            if bits == 0xFF:
                continue
            for k in range(byte << 3, min(byte + 1 << 3, total)):
                if not seen[byte] >> (k & 7) & 1:
                    rows = next(iter_adj_rows(n, True, start=k, stop=k + 1))
                    members = stamp_orbit(n, rows, True, seen)
                    for member in members:
                        class_of[member] = len(class_rows)
                    class_rows.append(rows)
                    class_size.append(len(members))
        self.class_of = class_of
        self.class_rows = class_rows
        self.class_size = class_size
        keys = [_product_key(rows) for rows in class_rows]
        colliding = Counter(keys)
        # equal product classes have equal keys, so only classes that share
        # their key can share their product class
        products = {
            c: _certificate(2 * n, direct_product(Graph(n, rows), K2).adj)
            for c, rows in enumerate(class_rows)
            if colliding[keys[c]] > 1
        }
        shared = Counter(products.values())
        self.class_product_pure = [
            c not in products or shared[products[c]] == 1 for c in range(len(class_rows))
        ]

    def canon_of(self, rows) -> int:
        return self.class_of[adjacency_index(self.n, rows)]


def _main_pass_for_n(
    index: _UniverseIndex, loops_allowed: bool, violations: _Violations
) -> tuple[int, int, int, int]:
    """_graph_checks once per iso class of the mode's universe, on the
    index's representative. Every check is invariant under relabeling, so
    the graph counts add the class size and a faulty class is reported once,
    at its representative. The index is the loops-allowed one at the pass's
    n, so it holds every G^a, which may have loops whatever the mode; a
    loopless class is one whose representative has no loop."""
    n = index.n
    graphs = non_rec = non_strong = bip_failures = 0
    for rows, size in zip(index.class_rows, index.class_size):
        if not loops_allowed and not _loopless(n, rows):
            continue
        rec, strong, reversal_failure = _graph_checks(index, Graph(n, rows), violations)
        graphs += size
        non_rec += size * (not rec)
        non_strong += size * (not strong)
        bip_failures += size * reversal_failure
    return graphs, non_rec, non_strong, bip_failures


def _graph_checks(
    index: _UniverseIndex, g: Graph, violations: _Violations
) -> tuple[bool, bool, bool]:
    """The decider's routes on g against both oracles, and the orbit checks,
    with every certificate read off the universe index at g's n:
    (reconstructible, strongly, reversal decider says no).
    Every check, the orbit checks too, reads the coset listing of Ant(G)
    that the deciders read; the fast route takes the decider's route order
    over its involution search, run on every graph, and bipartition, and
    twin_involution checks that the search finds an involution on graphs
    with twins, as the decider assumes. G's neighborhood mates are listed
    once: neighborhood_prop checks they are the G^a of that listing, and
    the neighborhood oracle that each lies in G's class. Every reader takes
    its classes from one memoised lookup over index.canon_of, so no rows
    are looked up twice. Only a violation lists G's edges."""
    n, rows = g.n, g.adj

    def add(suite: str, **detail) -> None:
        violations.add(suite, n, edges=_edges_of_rows(n, rows), **detail)

    cosets, moved = _ant_cosets(g)
    mkey = multiset_key(rows)
    for img, arows in zip(cosets, moved):
        if multiset_key(arows) != mkey:
            add("eq1_multiset", alpha=list(img))
    mates, images = set(_neighborhood_mates(n, rows)), set(moved)
    if mates != images:
        add("neighborhood_prop", missing=len(mates - images), extra=len(images - mates))
    cert = lru_cache(maxsize=None)(index.canon_of)
    own = cert(rows)
    nbhd_pure = all(cert(mate) == own for mate in mates)
    slow = _full_route(rows, zip(cosets, moved), cert)
    bip = bipartition(g)
    bip_verdict = _bip_decide(g, bip)[0] if bip.is_bipartite else None
    if involution_witness(g) is None:
        # swapping two twins is an involution: the decider skips this
        # search on graphs with twins, so it must find one on them
        if len(set(rows)) < n:
            add("twin_involution")
        fast = True
    elif bip_verdict is not None:
        fast = bip_verdict
    else:
        fast = slow
    if fast != slow:
        add("fast_paths", fast=fast, slow=slow)
    for suite, oracle in (("theorem_vs_neighborhood_oracle", nbhd_pure),
                          ("theorem_vs_cancellation_oracle", index.class_product_pure[own])):
        if oracle != slow:
            add(suite, decider=slow, oracle=oracle)
    direct = strong_counterexample(g) is None
    classwise = _classwise_strong(rows, cosets)
    if direct != classwise:
        add("strong_routes", direct=direct, classwise=classwise)
    if len(cosets) > 1:
        _orbit_checks(n, rows, cosets, [cert(r) for r in moved], add)
    return slow, direct, bip_verdict is False


def _orbit_checks(
    n: int,
    rows: tuple[int, ...],
    cosets: tuple[tuple[int, ...], ...],
    certs: list[int],
    add: Callable[..., None],
) -> None:
    """certs[i] is the certificate of G^cosets[i]. simeqiso: the Aut^TF(G)
    orbits are the isomorphism classes of the G^a. simplus2: G^a is
    isomorphic to G^(a^e) for every odd exponent e, on each coset's least
    member a: (ap)^e lies in a^eP, as aPa^-1 = P, and a^e maps each twin
    class onto another in vertex order, as a does, so it is listed."""
    for kind, detail in _orbit_partition(n, rows, cosets, certs)[1]:
        add(f"simeqiso_{kind}", **detail)
    position = {img: i for i, img in enumerate(cosets)}
    for img, cert in zip(cosets, certs):
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
                add("simplus2", alpha=list(img), exponent_image=list(power))


def _pair_membership_pass(graphs: _Feed, violations: _Violations) -> None:
    """Brute-force Aut^TF against the enumerator; anti and auto embeddings.
    (lambda, mu) is two-fold iff lambda(N(x)) = N(mu(x)) for every x, so
    every lambda looks its partners up among the rows-after-mu of every mu."""
    for n, feed in graphs.items():
        perms = list(all_permutations(n))
        for rows in feed:
            g = Graph(n, rows)
            by_rows: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
            for mu in perms:
                by_rows.setdefault(tuple(rows[x] for x in mu), []).append(mu)
            brute = {
                (lam, mu)
                for lam in perms
                for mu in by_rows.get(tuple(permute_mask(row, lam) for row in rows), ())
            }
            listed = {
                (pair.lam.image, pair.mu.image) for pair in enumerate_aut_tf(g)
            }
            if brute != listed:
                violations.add(
                    "aut_tf_enumeration", n, edges=_edges_of_rows(n, rows),
                )
            ant = set(iter_ant_images(n, rows))
            aut = set(iter_automorphism_images(n, rows))
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
                            edges=_edges_of_rows(n, rows),
                            pair=[list(lam), list(mu)], alpha=list(a),
                        )
                        break
            if from_pairs_anti != ant:
                violations.add(
                    "anti_pair_embedding", n, edges=_edges_of_rows(n, rows),
                )
            if from_pairs_auto != aut:
                violations.add(
                    "auto_pair_embedding", n, edges=_edges_of_rows(n, rows),
                )


def _digraph_symmetry_pass(graphs: _Feed, violations: _Violations) -> None:
    """The permuted digraph is symmetric iff the permutation is an
    anti-automorphism."""
    for n, feed in graphs.items():
        perms = [Permutation(p) for p in all_permutations(n)]
        for rows in feed:
            g = Graph(n, rows)
            for p in perms:
                if permuted_digraph(g, p).is_symmetric() != is_anti_automorphism(g, p):
                    violations.add(
                        "digraph_symmetry", n,
                        edges=_edges_of_rows(n, g.adj), perm=list(p.image),
                    )


def _weichsel_pass(graphs: _Feed, violations: _Violations) -> None:
    """Connectivity of products of connected factors with at least one edge:
    connected iff some factor is non-bipartite; two components when both are
    bipartite with edges."""
    # every connected factor with an edge up to n=3, loops allowed, then
    # the loopless ones at n=4
    factors = [
        Graph(n, rows)
        for n, feed in graphs.items()
        for rows in feed
        if any(rows) and (n <= 3 or _loopless(n, rows)) and len(component_masks(n, rows)) == 1
    ]
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


def _lovasz_pass(graphs: _Feed, violations: _Violations) -> None:
    """G x K3 iso H x K3 forces G iso H over the loopless graphs fed."""
    for n, feed in graphs.items():
        classes: dict[bytes, set[bytes]] = {}
        for rows in (rows for rows in feed if _loopless(n, rows)):
            prod = direct_product(Graph(n, rows), K3)
            key = _certificate(prod.n, prod.adj)
            classes.setdefault(key, set()).add(_certificate(n, rows))
        for canons in classes.values():
            if len(canons) > 1:
                violations.add("lovasz_k3", n, note="product class contains non-isomorphic members")


def _roundtrip_pass(graphs: _Feed, violations: _Violations) -> None:
    for n, feed in graphs.items():
        for rows in feed:
            g = Graph(n, rows)
            for img in iter_ant_images(n, rows):
                target_rows = apply_anti_rows(rows, img)
                result = extract_anti_from_product_iso(g, Graph(n, target_rows))
                if result is None:
                    violations.add(
                        "roundtrip_missing", n,
                        edges=_edges_of_rows(n, rows), alpha=list(img),
                    )
                    continue
                alpha, _mu = result
                got = apply_anti_rows(rows, alpha.image)
                if got != target_rows and (
                    _certificate(n, got) != _certificate(n, target_rows)
                ):
                    violations.add(
                        "roundtrip_mismatch", n,
                        edges=_edges_of_rows(n, rows),
                        alpha=list(img), recovered=list(alpha.image),
                    )


def _fixed_bipartition_rows(n: int) -> Iterator[tuple[int, ...]]:
    """Every graph with all edges between {0..k-1} and {k..n-1}, k <= n/2,
    whose rows on {0..k-1} ascend. Each bipartite graph on n vertices is a
    relabeling of one of them: put its smaller colour class first, then
    permute that class so its rows ascend. Permuting {0..k-1} among
    themselves moves no edge off the sides, so every class keeps a seed:
    1,409 at n=7 against 5,185 side-row tuples in all."""
    for k in range(n // 2 + 1):
        for sides in itertools.combinations_with_replacement(range(1 << n - k), k):
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
    slow = _full_route(rows, zip(*_ant_cosets(g)), partial(_certificate, n))
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
    check_table_bound(n, False)
    total = enumerate_count(n, False)
    bipartite = bytearray((total + 7) // 8)
    failing = bytearray(len(bipartite))
    faults = []
    for rows in _fixed_bipartition_rows(n):
        members = stamp_orbit(n, rows, False, bipartite)
        if not members:
            continue
        least = min(members)
        rep = next(iter_adj_rows(n, False, start=least, stop=least + 1))
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


# Every suite runs in the calling process: the main pass, the universe index
# and the bipartite sweep all work per iso class and take seconds at the
# default limits. _worker_bip_sweep keeps the (n, start, stop) worker shape
# for callers that time slices of the sweep.


def _worker_bip_sweep(args: tuple[int, int, int]) -> tuple[int, int, list[dict], int]:
    """_bip_sweep_for_n(n, violations, start, stop) for args = (n, start,
    stop), as (bipartite graphs, reversal failures, violation items,
    violation total)."""
    n, start, stop = args
    violations = _Violations()
    checked, failures = _bip_sweep_for_n(n, violations, start, stop)
    return checked, failures, violations.items, violations.total


def verify_theorems(
    nmax: int,
    loops_allowed: bool,
    *,
    bip_max: int = BIP_SWEEP_MAX,
    jobs: int | None = None,
    force: bool = False,
) -> VerificationReport:
    """Run every exhaustive invariant suite up to nmax and report violations.

    The main suite compares the decider against both oracles, with
    certificates from the universe index, once per iso class of the mode's
    universe, with each class counted by its size, checks that the
    neighborhood mates are the G^a (neighborhood_prop), and checks
    orbit/isomorphism agreement and odd powers on the cosets aP of Ant(G),
    never listing all of it. Five side
    suites cover two-fold membership, digraph symmetry and product
    structure, once per iso class of the loops-allowed universe up to
    SIDE_SUITE_MAX, on the representatives of the universe index the main
    suite built; every fact they check is invariant under relabeling.
    The bipartite sweep always runs loopless up to bip_max, independent of
    mode.

    Every suite runs in the calling process. jobs is accepted for
    compatibility and has no effect beyond refusing values below 1; the
    report's jobs is always 1.
    """
    if nmax < 1:
        raise UsageError("nmax must be at least 1")
    if bip_max < 0:
        raise UsageError("bip_max must be at least 0")
    if jobs is not None and jobs < 1:
        raise UsageError(f"jobs must be at least 1, got {jobs}")
    # the main pass indexes the loops-allowed universe whatever the mode.
    # Refuse what force cannot admit, then the rest, before any n is run
    check_table_bound(nmax, True)
    check_table_bound(bip_max, False)
    limit = VERIFY_MAX_LOOPS if loops_allowed else VERIFY_MAX_SIMPLE
    mode = "loops" if loops_allowed else "loopless"
    CapacityError.check(nmax, limit, force, f"verification ({mode})")
    CapacityError.check(bip_max, BIP_SWEEP_MAX, force, "bipartite sweep")

    violations = _Violations()
    census = []
    bip_census = []
    seconds: list[tuple[str, float]] = []
    representatives: _Feed = {}

    def timed(name: str, fn: Callable[[], None]) -> None:
        t0 = time.perf_counter()
        fn()
        seconds.append((name, round(time.perf_counter() - t0, 3)))

    def run_main() -> None:
        for n in range(1, nmax + 1):
            index = _UniverseIndex(n)
            index.build()
            mode_total = enumerate_count(n, loops_allowed)
            graphs, non_rec, non_strong, bipf = _main_pass_for_n(
                index, loops_allowed, violations
            )
            if graphs != mode_total:
                raise InvariantViolationError(
                    f"census covered {graphs} graphs, expected {mode_total}"
                )
            census.append(CensusRow(n, graphs, non_rec, non_strong, bipf))
            if n <= SIDE_SUITE_MAX:
                representatives[n] = index.class_rows

    timed("main", run_main)
    for name, suite in (
        ("pair_membership", _pair_membership_pass),
        ("digraph_symmetry", _digraph_symmetry_pass),
        ("weichsel", _weichsel_pass),
        ("lovasz", _lovasz_pass),
        ("roundtrip", _roundtrip_pass),
    ):
        timed(name, partial(suite, representatives, violations))

    def run_sweep() -> None:
        for n in range(1, bip_max + 1):
            checked, failures = _bip_sweep_for_n(n, violations)
            bip_census.append(BipSweepRow(n, checked, failures))

    timed("bipartite_sweep", run_sweep)

    return VerificationReport(
        nmax=nmax,
        loops_allowed=loops_allowed,
        bip_max=bip_max,
        jobs=1,
        census=tuple(census),
        bipartite_census=tuple(bip_census),
        violations=tuple(violations.items),
        suite_seconds=tuple(seconds),
    )
