import importlib.util
import random
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from ampadmg import MixedGraph
from ampadmg.graph import _bits, _submasks
from ampadmg.separation import _singleton_pairs

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


def singleton_queries(n: int):
    """Every singleton query ``(x, y, z)`` over nodes 1..n: the pairs of
    ``_singleton_pairs``, each with every z inside its ``rest`` in
    increasing mask order, the order equiv-check and sem-check walk.  An n
    above ``MAX_SWEEP_NODES`` is refused at the call, as the generator's
    outer iterable is built at once."""
    return ((xm.bit_length(), ym.bit_length(), frozenset(_bits(zm)))
            for xm, ym, rest in _singleton_pairs(n) for zm in _submasks(rest))


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


# -- an exact Gaussian oracle over GF(p) ---------------------------------------
#
# A linear SEM X = B X + e on g, its parameters drawn uniformly from GF(p) and
# seeded, shares no code with the package.  Separation makes the minor
# det Sigma[{x} + z, {y} + z] vanish identically; for a connected query it is
# a nonzero low-degree polynomial in the parameters, which vanishes at a
# random point with probability about deg / p (Schwartz-Zippel).

GF_P = (1 << 61) - 1


def gf_inverse(m):
    """The inverse of the square matrix m over GF(GF_P) by Gauss-Jordan
    elimination; None when m is singular."""
    k = len(m)
    rows = [list(r) + [int(i == j) for j in range(k)] for i, r in enumerate(m)]
    for c in range(k):
        piv = next((r for r in range(c, k) if rows[r][c]), None)
        if piv is None:
            return None
        rows[c], rows[piv] = rows[piv], rows[c]
        inv = pow(rows[c][c], -1, GF_P)
        rows[c] = [v * inv % GF_P for v in rows[c]]
        for r in range(k):
            f = rows[r][c]
            if r != c and f:
                rows[r] = [(v - f * w) % GF_P for v, w in zip(rows[r], rows[c])]
    return [r[k:] for r in rows]


def _gf_mul(a, b):
    return [[sum(u * v for u, v in zip(row, col)) % GF_P for col in zip(*b)] for row in a]


def gf_sigma(g, rng: random.Random):
    """Sigma = (I - B)^-1 N (I - B)^-T over GF(GF_P), built from g's edge
    sets: B has the arrows' pattern, the biarrows pattern the noise
    covariance N, and the lines pattern its inverse, the noise precision.
    Node i is index i - 1."""
    return gf_surgery(g, rng, ())


def gf_surgery(g, rng: random.Random, d):
    """The Sigma of :func:`gf_sigma`'s SEM under do(d), computed here, not by
    the package.  B and N are drawn as gf_sigma draws them; then d's rows of
    B are zeroed, d gets unit noise independent of the rest, and the other
    nodes keep their noise covariance."""
    n, draw = g.n, rng.randrange
    i_b = [[int(i == j) for j in range(n)] for i in range(n)]
    precision = [[draw(1, GF_P) if i == j else 0 for j in range(n)] for i in range(n)]
    for t, h in g.arrows:
        i_b[h - 1][t - 1] = GF_P - draw(1, GF_P)
    for a, b in g.lines:
        precision[a - 1][b - 1] = precision[b - 1][a - 1] = draw(1, GF_P)
    noise = gf_inverse(precision)
    for a, b in g.biarrows:
        noise[a - 1][b - 1] = noise[b - 1][a - 1] = draw(1, GF_P)
    for v in d:
        i_b[v - 1] = [int(j == v - 1) for j in range(n)]
        for j in range(n):
            noise[v - 1][j] = noise[j][v - 1] = int(j == v - 1)
    a = gf_inverse(i_b)
    return _gf_mul(_gf_mul(a, noise), list(zip(*a)))


def gf_separated(sigma, x: int, y: int, z) -> bool:
    """x _||_ y | z read off Sigma: its minor over rows {x} + z and columns
    {y} + z is singular."""
    z = [v - 1 for v in z]
    rows, cols = [x - 1] + z, [y - 1] + z
    return gf_inverse([[sigma[r][c] for c in cols] for r in rows]) is None


def gf_regression(sigma, y: int, s):
    """The coefficients of y on the nodes s, in sorted order, then the
    residual variance, all over GF(GF_P): the exact form of a regression of
    y on s read off Sigma."""
    s = [v - 1 for v in sorted(s)]
    inv = gf_inverse([[sigma[a][b] for b in s] for a in s])
    cov_sy = [sigma[a][y - 1] for a in s]
    coef = [sum(c * v for c, v in zip(row, cov_sy)) % GF_P for row in inv]
    return coef + [(sigma[y - 1][y - 1] - sum(c * v for c, v in zip(coef, cov_sy))) % GF_P]
