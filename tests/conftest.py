import importlib.util
import random
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from ampadmg import MixedGraph
from ampadmg.separation import singleton_queries  # noqa: F401  (re-exported to the tests)

DATA = Path(__file__).parent / "data"
BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench(name: str):
    """The module ``bench/<name>.py``, loaded by path as ``bench_<name>``.
    It is registered in ``sys.modules`` before it runs, as ``dataclass``
    needs to resolve postponed annotations."""
    key = f"bench_{name}"
    if key not in sys.modules:
        spec = importlib.util.spec_from_file_location(key, BENCH / f"{name}.py")
        module = sys.modules[key] = importlib.util.module_from_spec(spec)
        try:
            spec.loader.exec_module(module)
        except BaseException:
            del sys.modules[key]
            raise
    return sys.modules[key]


@pytest.fixture
def double_edge3():
    """A -> B -> D plus a B - D line: smallest graph with a double edge."""
    return MixedGraph(3, arrows={(1, 2), (2, 3)}, lines={(2, 3)},
                      node_names=("A", "B", "D"))


@pytest.fixture
def chain_lines4():
    """Directed chain A -> B -> C -> D with lines A - C and B - D."""
    return MixedGraph(4, arrows={(1, 2), (2, 3), (3, 4)},
                      lines={(1, 3), (2, 4)},
                      node_names=("A", "B", "C", "D"))


@pytest.fixture
def mixed6():
    """Six-node graph exercising every relation: two directed clusters
    (A over B, C, D and E over F) tied together by a four-node line
    component C - D, C - E, D - F, E - F."""
    return MixedGraph(6,
                      arrows={(1, 2), (1, 3), (1, 4), (2, 4), (5, 6)},
                      lines={(3, 4), (3, 5), (4, 6), (5, 6)},
                      node_names=("A", "B", "C", "D", "E", "F"))


@pytest.fixture
def ident_alt():
    """Triangle where p(B | do(A)) is identifiable: A -> B, A - C, B - C."""
    return MixedGraph(3, arrows={(1, 2)}, lines={(1, 3), (2, 3)},
                      node_names=("A", "B", "C"))


@pytest.fixture
def ident_orig():
    """Bidirected counterpart of ident_alt, where it is not identifiable."""
    return MixedGraph(3, arrows={(1, 2)},
                      biarrows={(1, 2), (1, 3), (2, 3)},
                      node_names=("A", "B", "C"))


def random_graph(rng: random.Random, n: int, biarrow_ok: bool = False) -> MixedGraph:
    """A uniformly scrambled valid graph: per pair, maybe an undirected
    edge and maybe an arrow respecting a random node order."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    rank = {v: i for i, v in enumerate(order)}
    arrows, lines, biarrows = set(), set(), set()
    use_biarrows = biarrow_ok and rng.random() < 0.5
    for a, b in combinations(range(1, n + 1), 2):
        if rng.random() < 0.3:
            (biarrows if use_biarrows else lines).add((a, b))
        if rng.random() < 0.3:
            arrows.add((a, b) if rank[a] < rank[b] else (b, a))
    return MixedGraph(n, arrows, lines, biarrows)


def surgery(sem, d):
    """The covariance of a linear SEM's variables under do(d), computed
    here, not by the package: d's rows of the coefficient matrix are
    zeroed, d gets independent unit noise, and the other nodes keep their
    marginal noise covariance.  Node i is index i - 1."""
    n = sem.graph.n
    b = np.zeros((n, n))
    for (t, h), v in sem.beta.items():
        if h not in d:
            b[h - 1, t - 1] = v
    keep = [i - 1 for i in range(1, n + 1) if i not in d]
    noise = np.eye(n)
    noise[np.ix_(keep, keep)] = sem.noise_cov[np.ix_(keep, keep)]
    delta = np.linalg.inv(np.eye(n) - b)
    return delta @ noise @ delta.T
