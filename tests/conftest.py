"""Shared fixtures and hypothesis strategies.

Fixture graphs live under fixtures/ at the repository root. Loading them
through the text parser on every run keeps the file format honest.
"""
from __future__ import annotations

import itertools
from pathlib import Path

import pytest
from hypothesis import strategies as st

from cancelgraph import Graph, Permutation, parse_graph_file
from cancelgraph.graphs import upper_cells

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"


def load_fixture(name: str) -> Graph:
    return parse_graph_file(str(FIXTURE_DIR / f"{name}.graph"))


def fixture_path(name: str) -> str:
    return str(FIXTURE_DIR / f"{name}.graph")


@pytest.fixture(scope="session")
def c6() -> Graph:
    return load_fixture("c6")


@pytest.fixture(scope="session")
def two_k3() -> Graph:
    return load_fixture("2k3")


@pytest.fixture(scope="session")
def sql() -> Graph:
    return load_fixture("sql")


@pytest.fixture(scope="session")
def sql_alpha() -> Graph:
    return load_fixture("sql_alpha")


@pytest.fixture(scope="session")
def p_reconstruct() -> Graph:
    return load_fixture("p_reconstruct")


@pytest.fixture(scope="session")
def lp() -> Graph:
    return load_fixture("lp")


@pytest.fixture(scope="session")
def q3() -> Graph:
    return load_fixture("q3")


@pytest.fixture(scope="session")
def asym7() -> Graph:
    return load_fixture("asym7")


def build_graph(n: int, bits: int, loops: bool) -> Graph:
    """Decode an upper-triangle bit vector, most significant bit first."""
    cells = upper_cells(n, loops)
    rows = [0] * n
    for k, (i, j) in enumerate(cells):
        if bits >> (len(cells) - 1 - k) & 1:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return Graph(n, tuple(rows))


def product_bipartition_rows(n: int):
    """Every graph with all edges between {0..k-1} and {k..n-1}, k <= n/2,
    the rows on {0..k-1} in every order: each tuple of k rows of n - k bits."""
    for k in range(n // 2 + 1):
        for sides in itertools.product(range(1 << n - k), repeat=k):
            rows = [side << k for side in sides]
            rows.extend(sum(1 << a for a in range(k) if sides[a] >> b & 1) for b in range(n - k))
            yield tuple(rows)


def graph_strategy(
    max_n: int = 6, *, loops: bool = False, min_n: int = 1
) -> st.SearchStrategy[Graph]:
    def for_n(n: int) -> st.SearchStrategy[Graph]:
        m = len(upper_cells(n, loops))
        return st.integers(min_value=0, max_value=(1 << m) - 1).map(
            lambda bits: build_graph(n, bits, loops)
        )

    return st.integers(min_value=min_n, max_value=max_n).flatmap(for_n)


@st.composite
def graph_and_permutation(
    draw, max_n: int = 6, *, loops: bool = False
) -> tuple[Graph, Permutation]:
    g = draw(graph_strategy(max_n, loops=loops))
    img = draw(st.permutations(range(g.n)))
    return g, Permutation(tuple(img))
