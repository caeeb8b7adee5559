"""Workload inputs, pinned results and correctness checks.

Nothing here imports cancelgraph: the inputs are plain data and the checks
re-derive what they need from edge sets, so a defect in the program under
test cannot hide itself by also breaking its own check.

Workloads (all run with jobs=1 in a fresh, single Python process):

verify-loops5
    ``verify_theorems(5, True, bip_max=6, jobs=1)``, the same as
    ``cancelgraph verify --max-n 5 --loops --bip-max 6 --jobs 1``: all ten
    suites over the 2^15 loops-allowed graphs at n=5. Chosen because it is
    the flagship loops run minus the n=7 sweep, so it weighs canonical forms,
    the two-fold/orbit machinery, the universe index build and the Ant
    search. Exhaustive, so the seed is ignored.

sweep-n7
    The n=7 bipartite sweep, the single largest cost of both flagship runs.
    The benchmark cuts its 2^21 graphs into 64 shards of its own: shard s
    fixes the neighbourhood of vertex 0 to the bit pattern s. (These are
    not the shards ``verify_theorems`` hands its workers, which cut the
    range by the job count, and not at all at jobs=1.) A whole sweep takes
    about 85-100 s, longer than one benchmark run may measure, so a round
    runs 11 of the 64 shards (SWEEP_SHARDS, 360448 graphs). A shard's
    counts and cost depend only on the size k of vertex 0's neighbourhood,
    and the sweep holds C(6, k) shards of size k; the slice takes
    1, 1, 2, 3, 2, 1, 1 shards of sizes 0..6, close to those weights. It
    still over-weights the costly k=0 and k=1 shards a little: 19656
    bipartite graphs (5.45% of the slice, against 4.92% of the sweep) and
    about 11% more time per graph than the whole sweep (shard times
    measured one by one: 15.9 s for the slice, 83.2 s for the sweep).
    Exhaustive within the slice; the seed only permutes the shard order,
    which changes no result. The gate checks each shard against the pinned
    table, so the error rate counts shards.

analyze-mix
    A closed loop with one caller: parse_graph(text) -> classify ->
    to_json_dict -> json.dumps for each item of a seeded, shuffled stream.
    Strata per round:
      * RANDOM_ITEMS (4500) random labeled graphs: n from {6, 7, 8}, edge
        probability from {0.25, 0.5, 0.75}, loops allowed with probability
        1/2 (each loop then drawn with the same edge probability), each
        (n, p, loops) cell taking an equal share; empty and complete draws are
        redrawn (see _degenerate). These set the median: they exercise the
        decider fast paths and, at n<=6, the two-fold/orbit route. Which
        graphs a seed draws moves the percentiles; at 3000 random items the
        median moved by 6.4% (quartile spread over ten seeds), which is why
        the stratum is this large.
      * two seeded relabelings of each of the 40 members of a fixed
        symmetric family: circulants on 6-8 vertices with and without all
        loops, K3,3, K4,4, Q3, K6-K8, K6 with all loops, the empty graphs on
        6-8 vertices, and the eight fixtures. The seven empty or complete
        members come once, as every relabeling of them is the same graph:
        73 items. They are under 2% of the items but about 40% of the time,
        and set the tail:
        large automorphism and Ant groups, the two-fold route on degenerate
        inputs, and repeated canonical forms for the _canonical LRU cache.
    No enumeration happens on this workload.
"""
from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

WORKLOADS = ("verify-loops5", "sweep-n7", "analyze-mix")

# -- verify-loops5 ----------------------------------------------------------

# (n, graphs, non_reconstructible, non_strongly) for the loops-allowed census
LOOPS5_CENSUS = (
    (1, 2, 0, 0),
    (2, 8, 2, 2),
    (3, 64, 20, 20),
    (4, 1024, 362, 386),
    (5, 32768, 10776, 11736),
)
# (n, bipartite_graphs, reversal_failures) for the loopless sweep up to 6
LOOPS5_BIP_CENSUS = (
    (1, 1, 0),
    (2, 2, 1),
    (3, 7, 3),
    (4, 41, 24),
    (5, 376, 130),
    (6, 5177, 1915),
)

# -- sweep-n7 ---------------------------------------------------------------

SWEEP_N = 7
SWEEP_SHARD_COUNT = 64
SWEEP_TOTAL = 1 << 21
SWEEP_ROW = (7, 103237, 17416)
# (bipartite_graphs, reversal_failures) of each of the 64 shards, in shard
# order; the columns sum to SWEEP_ROW, which a test checks.
SWEEP_SHARD_COUNTS = (
    (5177, 1915), (5177, 1156), (5177, 1156), (2720, 426),
    (5177, 1156), (2720, 426), (2720, 426), (1085, 108),
    (5177, 1156), (2720, 426), (2720, 426), (1085, 108),
    (2720, 426), (1085, 108), (1085, 108), (287, 1),
    (5177, 1156), (2720, 426), (2720, 426), (1085, 108),
    (2720, 426), (1085, 108), (1085, 108), (287, 1),
    (2720, 426), (1085, 108), (1085, 108), (287, 1),
    (1085, 108), (287, 1), (287, 1), (32, 0),
    (5177, 1156), (2720, 426), (2720, 426), (1085, 108),
    (2720, 426), (1085, 108), (1085, 108), (287, 1),
    (2720, 426), (1085, 108), (1085, 108), (287, 1),
    (1085, 108), (287, 1), (287, 1), (32, 0),
    (2720, 426), (1085, 108), (1085, 108), (287, 1),
    (1085, 108), (287, 1), (287, 1), (32, 0),
    (1085, 108), (287, 1), (287, 1), (32, 0),
    (287, 1), (32, 0), (32, 0), (1, 0),
)
# 1, 1, 2, 3, 2, 1, 1 shards in which vertex 0 has 0..6 neighbours
SWEEP_SHARDS = (0, 1, 3, 5, 7, 11, 13, 15, 23, 31, 63)
# Each shard runs as this many timed slices of 4096 graphs, so the latency
# percentiles rest on 88 operations a round rather than on 11.
SWEEP_PARTS = 8


def shard_range(shard: int) -> tuple[int, int]:
    size = SWEEP_TOTAL // SWEEP_SHARD_COUNT
    return shard * size, (shard + 1) * size


def shard_parts(shard: int) -> list[tuple[int, int]]:
    lo, hi = shard_range(shard)
    step = (hi - lo) // SWEEP_PARTS
    return [(start, start + step) for start in range(lo, hi, step)]


def sweep_order(seed: int) -> list[int]:
    order = list(SWEEP_SHARDS)
    random.Random(seed).shuffle(order)
    return order


# -- analyze-mix ------------------------------------------------------------

RANDOM_ITEMS = 4500
RELABELINGS = 2
FIXTURES = ("2k3", "asym7", "c6", "lp", "p_reconstruct", "q3", "sql", "sql_alpha")
DEFAULT_SEED = 1
DIGEST_FILE = Path(__file__).resolve().parent / "data" / "analyze_mix_seed1.json"


def graph_text(n: int, edges) -> str:
    lines = [f"p graph {n}"]
    lines.extend(f"e {u} {v}" for u, v in sorted(edges))
    return "\n".join(lines) + "\n"


def parse_edges(text: str) -> tuple[int, set[tuple[int, int]]]:
    """Vertex count and (min, max) edge set of a graph text."""
    n = 0
    edges = set()
    for raw in text.splitlines():
        fields = raw.split("#", 1)[0].split()
        if not fields:
            continue
        if fields[0] == "p":
            n = int(fields[2])
        elif fields[0] == "e":
            u, v = int(fields[1]), int(fields[2])
            edges.add((min(u, v), max(u, v)))
    return n, edges


def _circulant(n: int, steps, loops: bool):
    edges = {(min(v, (v + s) % n), max(v, (v + s) % n)) for v in range(n) for s in steps}
    if loops:
        edges |= {(v, v) for v in range(n)}
    return n, edges


def symmetric_family(root: Path) -> list[tuple[str, int, set]]:
    """(name, n, edges) for every member of the fixed symmetric stratum."""
    family = []
    circulants = {6: ((1,), (2,), (1, 2), (1, 3)), 7: ((1,), (1, 2), (1, 3)),
                  8: ((1,), (1, 2), (1, 3), (2, 4))}
    for n, sets in circulants.items():
        for steps in sets:
            for loops in (False, True):
                name = f"C{n}({','.join(map(str, steps))}){'+loops' if loops else ''}"
                family.append((name, *_circulant(n, steps, loops)))
    for a in (3, 4):
        family.append((f"K{a},{a}", 2 * a,
                       {(u, a + v) for u in range(a) for v in range(a)}))
    family.append(("Q3", 8, {(v, v ^ 1 << b) for v in range(8) for b in range(3)
                             if v < v ^ 1 << b}))
    for n in (6, 7, 8):
        family.append((f"K{n}", n, {(u, v) for u in range(n) for v in range(u + 1, n)}))
        family.append((f"E{n}", n, set()))
    # Ant(K_n with all loops) is all of S_n; at n=8 that one item takes about
    # 4 s, a quarter of the round, so only n=6 is kept (E8 covers Ant = S_8).
    family.append(("K6+loops", 6, {(u, v) for u in range(6) for v in range(u, 6)}))
    for name in FIXTURES:
        n, edges = parse_edges((root / "fixtures" / f"{name}.graph").read_text())
        family.append((name, n, edges))
    return family


def _relabel(n: int, edges, perm) -> set:
    return {(min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges}


def _degenerate(n: int, edges) -> bool:
    """Empty or complete, with or without every loop. Every labeling of
    these is the same graph, and Ant(G) is all of S_n: one costs up to 1.4 s
    where a typical item costs 1 ms, so whether a seed happens to draw one
    would move the round's time by a tenth. The symmetric stratum holds
    them instead (with all loops only at n=6), so every seed measures them."""
    loops = sum(1 for u, v in edges if u == v)
    simple = len(edges) - loops
    return loops in (0, n) and simple in (0, n * (n - 1) // 2)


def analyze_stream(seed: int, root: Path) -> list[tuple[str, str]]:
    """(stratum, graph text) for one round of analyze-mix, shuffled."""
    rng = random.Random(seed)
    # Every (n, p, loops) cell gets an equal share of the random items, so
    # the stratum's composition, unlike its graphs, is the same for every seed.
    cells = [(n, p, loops) for n in (6, 7, 8) for p in (0.25, 0.5, 0.75)
             for loops in (False, True)]
    items = []
    for i in range(RANDOM_ITEMS):
        n, p, loops = cells[i % len(cells)]
        while True:
            edges = {(u, v) for u in range(n) for v in range(u if loops else u + 1, n)
                     if rng.random() < p}
            if not _degenerate(n, edges):
                break
        items.append(("random", graph_text(n, edges)))
    for _name, n, edges in symmetric_family(root):
        # every relabeling of a degenerate member is the member itself
        for _ in range(1 if _degenerate(n, edges) else RELABELINGS):
            perm = list(range(n))
            rng.shuffle(perm)
            items.append(("symmetric", graph_text(n, _relabel(n, edges, perm))))
    rng.shuffle(items)
    return items


def output_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_digests() -> list[str]:
    return json.loads(DIGEST_FILE.read_text())["digests"]


# -- independent checks -----------------------------------------------------


def _adjacency(n: int, edges) -> list[int]:
    rows = [0] * n
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return rows


def _edges_of(rows) -> set[tuple[int, int]]:
    return {(u, v) for u, row in enumerate(rows) for v in range(u, len(rows)) if row >> v & 1}


def _is_perm(p, n: int) -> bool:
    return isinstance(p, list) and sorted(p) == list(range(n))


def _is_anti(rows, a) -> bool:
    # xy is an edge iff a(x) a^-1(y) is an edge
    n = len(rows)
    inv = [0] * n
    for v, w in enumerate(a):
        inv[w] = v
    return all((rows[x] >> y & 1) == (rows[a[x]] >> inv[y] & 1)
               for x in range(n) for y in range(n))


def _permuted(rows, a) -> list[int]:
    """Rows of G^a: N_{G^a}(x) = a(N_G(x))."""
    n = len(rows)
    out = [0] * n
    for x in range(n):
        for y in range(n):
            if rows[x] >> y & 1:
                out[x] |= 1 << a[y]
    return out


def _refine(rows) -> list[int]:
    n = len(rows)
    colors = [(rows[v] >> v & 1, rows[v].bit_count()) for v in range(n)]
    while True:
        sig = [(colors[v], tuple(sorted(colors[w] for w in range(n) if rows[v] >> w & 1)))
               for v in range(n)]
        table = {s: i for i, s in enumerate(sorted(set(sig)))}
        new = [table[s] for s in sig]
        if len(set(new)) == len(set(colors)):
            return new
        colors = new


def isomorphic(g, h) -> bool:
    """Plain backtracking isomorphism test on adjacency rows, pruned by
    colour refinement; independent of the program's canonical forms."""
    n = len(g)
    if n != len(h):
        return False
    cg, ch = _refine(g), _refine(h)
    sig_g = sorted((c, g[v] >> v & 1) for v, c in enumerate(cg))
    sig_h = sorted((c, h[v] >> v & 1) for v, c in enumerate(ch))
    if sig_g != sig_h:
        return False
    img = [-1] * n

    def extend(v: int, used: int) -> bool:
        if v == n:
            return True
        for w in range(n):
            if used >> w & 1 or ch[w] != cg[v] or (g[v] >> v & 1) != (h[w] >> w & 1):
                continue
            if all((g[v] >> u & 1) == (h[w] >> img[u] & 1) for u in range(v)):
                img[v] = w
                if extend(v + 1, used | 1 << w):
                    return True
        img[v] = -1
        return False

    return extend(0, 0)


def check_analysis(text: str, out: dict) -> list[str]:
    """Problems with one analyze output; empty when every witness holds."""
    n, edges = parse_edges(text)
    rows = _adjacency(n, edges)
    problems = []
    if out.get("n") != n:
        problems.append("n differs from the input")
    cx = out.get("counterexample")
    if (cx is None) != bool(out.get("reconstructible")):
        problems.append("counterexample presence disagrees with reconstructible")
    if cx is not None:
        alpha = cx.get("alpha")
        if not _is_perm(alpha, n) or not _is_anti(rows, alpha):
            problems.append("counterexample alpha is not an anti-automorphism")
        else:
            galpha = _permuted(rows, alpha)
            reported = {tuple(e) for e in cx.get("g_alpha_edges", [])}
            if _edges_of(galpha) != reported:
                problems.append("g_alpha_edges differ from G^alpha")
            if isomorphic(rows, galpha):
                problems.append("G^alpha is isomorphic to G")
    sw = out.get("strongly_witness")
    if (sw is None) != bool(out.get("strongly")):
        problems.append("strongly_witness presence disagrees with strongly")
    if sw is not None:
        if not _is_perm(sw, n) or not _is_anti(rows, sw):
            problems.append("strongly_witness is not an anti-automorphism")
        elif _permuted(rows, sw) == rows:
            problems.append("strongly_witness does not move G")
    wi = out.get("witness_involution")
    if wi is not None:
        if not _is_perm(wi, n) or wi == list(range(n)) or any(wi[wi[v]] != v for v in range(n)):
            problems.append("witness_involution is not an involution")
        elif _permuted(rows, wi) != [rows[wi[v]] for v in range(n)]:
            problems.append("witness_involution is not an automorphism")
    return problems


def check_verify(report: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) for a verify-loops5 report dict: one
    operation per pinned census or bipartite-census row."""
    census = {(r["n"], r["graphs"], r["non_reconstructible"], r["non_strongly"])
              for r in report.get("census", [])}
    bip = {(r["n"], r["bipartite_graphs"], r["reversal_failures"])
           for r in report.get("bipartite_census", [])}
    problems = [f"census row {row} missing" for row in LOOPS5_CENSUS if row not in census]
    problems += [f"bipartite census row {row} missing"
                 for row in LOOPS5_BIP_CENSUS if row not in bip]
    attempted = len(LOOPS5_CENSUS) + len(LOOPS5_BIP_CENSUS)
    failed = len(problems)
    if not report.get("ok"):
        # a violation is not tied to a row, so it voids them all
        problems.append(f"report not ok: {len(report.get('violations', []))} violations")
        failed = attempted
    return attempted, failed, problems


def check_shard(shard: int, checked: int, failures: int, violations: int) -> list[str]:
    want = SWEEP_SHARD_COUNTS[shard]
    problems = []
    if (checked, failures) != want:
        problems.append(f"shard {shard}: got {(checked, failures)}, pinned {want}")
    if violations:
        problems.append(f"shard {shard}: {violations} violations")
    return problems
