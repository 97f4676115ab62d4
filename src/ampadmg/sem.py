"""Linear Gaussian structural equation semantics for mixed graphs.

Each node A is assigned ``A = sum(beta[t -> A] * t for t in parents) + e_A``
with jointly Gaussian noise.  Lines constrain the noise precision: the
entry for a pair of noise terms may be non-zero only when the corresponding
nodes are joined by a line.

The *magnified* view makes the noise explicit: node ``i`` keeps its index
and its noise term becomes node ``n + i``, with an arrow from each noise
node into its variable and the lines moved onto the noise nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .errors import (
    ErrorNodeInZError,
    NodeOutOfRangeError,
    ProblemTooLargeError,
    SingularSubmatrixError,
)
from .graph import MixedGraph, _check_names
from .separation import _reject_biarrows

PRECISION_ZERO_TOL = 1e-9
CI_TOL = 1e-7

MAX_MAGNIFY_NODES = 10_000
"""The most nodes :func:`magnify` accepts: its 2n masks of up to 2n bits
grow with n squared."""


def magnify(g: MixedGraph) -> MixedGraph:
    """The 2n-node graph with explicit noise nodes.

    Node ``i`` stays ``i``; its noise term is node ``n + i``.  Arrows are
    kept, each noise node points into its variable, and every line ``a - b``
    moves to the noise pair ``(n+a) - (n+b)``.
    """
    n = g.n
    if n > MAX_MAGNIFY_NODES:
        raise ProblemTooLargeError(f"n={n} exceeds the magnify cap of {MAX_MAGNIFY_NODES}")
    _reject_biarrows(g, "magnification")
    pa, ch, ne, _bi = g._adj
    pa_m = [0] + [pa[i] | 1 << (n + i - 1) for i in range(1, n + 1)] + [0] * n
    ch_m = ch + [1 << (i - 1) for i in range(1, n + 1)]
    ne_m = [0] * (n + 1) + [m << n for m in ne[1:]]
    names = None
    if g.node_names:
        names = _check_names(g.node_names + tuple(f"eps_{s}" for s in g.node_names),
                             2 * n)
    return MixedGraph._from_masks(2 * n, (pa_m, ch_m, ne_m, [0] * (2 * n + 1)), names)


def _magnified_half(gp: MixedGraph) -> int:
    n = gp.n
    if n % 2:
        raise ValueError("not a magnified graph: odd node count")
    m = n // 2
    for i in range(1, m + 1):
        if (m + i, i) not in gp.arrows:
            raise ValueError(f"not a magnified graph: missing noise arrow into {i}")
    return m


def determined_closure(gp: MixedGraph, z: Iterable[int]) -> frozenset[int]:
    """Everything functionally determined by z in a magnified graph.

    Least fixpoint of: z is determined; a variable is determined once all
    its parents (noise node included) are; a noise node is determined once
    its variable and the variable's remaining parents are.
    """
    m = _magnified_half(gp)
    zm = gp.node_mask(z)
    if zm >> m:
        raise ErrorNodeInZError("z may only contain variable nodes (1..n)")
    pa = gp._adj[0]
    dt = zm
    changed = True
    while changed:
        changed = False
        for a in range(1, m + 1):
            ab = 1 << (a - 1)
            eb = 1 << (m + a - 1)
            if not dt & ab and not pa[a] & ~dt:
                dt |= ab
                changed = True
            if dt & ab and not dt & eb and not (pa[a] & ~eb) & ~dt:
                dt |= eb
                changed = True
    return gp.mask_nodes(dt)


@dataclass(frozen=True, eq=False)
class LinearSem:
    """A linear Gaussian SEM over an alternative graph.

    ``beta`` maps each arrow ``(tail, head)`` to its coefficient; ``noise_cov``
    is the noise covariance.  Its inverse must vanish (tolerance 1e-9) on
    every off-diagonal pair not joined by a line.
    """

    graph: MixedGraph
    beta: Mapping
    noise_cov: np.ndarray = field(repr=False)

    def __post_init__(self):
        g = self.graph
        _reject_biarrows(g, "a linear SEM")
        beta = {(int(t), int(h)): float(v) for (t, h), v in dict(self.beta).items()}
        if set(beta) != set(g.arrows):
            raise ValueError("beta must assign a coefficient to every arrow")
        object.__setattr__(self, "beta", beta)
        cov = np.asarray(self.noise_cov, dtype=float)
        if cov.shape != (g.n, g.n):
            raise ValueError(f"noise_cov must be {g.n}x{g.n}")
        if not np.allclose(cov, cov.T, atol=1e-12):
            raise ValueError("noise_cov must be symmetric")
        try:
            np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            raise ValueError("noise_cov must be positive definite") from None
        prec = np.linalg.inv(cov)
        for a in range(1, g.n + 1):
            for b in range(a + 1, g.n + 1):
                if (a, b) not in g.lines and abs(prec[a - 1, b - 1]) > PRECISION_ZERO_TOL:
                    raise ValueError(
                        f"noise precision entry {a},{b} must be zero "
                        "(nodes not joined by a line)")
        object.__setattr__(self, "noise_cov", cov)


def implied_covariance(sem: LinearSem) -> np.ndarray:
    """Covariance of the variables: ``delta @ noise_cov @ delta.T`` with
    ``delta = (I - B)^-1`` and ``B[head, tail] = beta[tail -> head]``."""
    n = sem.graph.n
    b = np.zeros((n, n))
    for (t, h), v in sem.beta.items():
        b[h - 1, t - 1] = v
    delta = np.linalg.inv(np.eye(n) - b)
    sigma = delta @ sem.noise_cov @ delta.T
    return (sigma + sigma.T) / 2.0


def random_sem(g: MixedGraph, seed: int) -> LinearSem:
    """A reproducible SEM for ``g``.

    Coefficients are uniform on ``[-1.0, -0.3] u [0.3, 1.0]``.  The noise
    precision gets uniform ``[-0.3, 0.3]`` entries on line pairs and a
    diagonally dominant diagonal, which keeps it positive definite and its
    inverse exactly zero-patterned.  A graph with biarrows is refused by
    the :class:`LinearSem` built for it.
    """
    rng = np.random.default_rng(seed)
    beta = {}
    for t, h in sorted(g.arrows):
        u = rng.uniform(-0.7, 0.7)
        beta[(t, h)] = u + 0.3 if u >= 0 else u - 0.3
    prec = np.zeros((g.n, g.n))
    for a, b in sorted(g.lines):
        prec[a - 1, b - 1] = prec[b - 1, a - 1] = rng.uniform(-0.3, 0.3)
    for i in range(g.n):
        prec[i, i] = np.abs(prec[i]).sum() + 1.0
    cov = np.linalg.inv(prec)
    return LinearSem(g, beta, (cov + cov.T) / 2.0)


def ci_test(sigma: np.ndarray, x: int, y: int, z: Iterable[int],
            tol: float = CI_TOL) -> bool:
    """Exact-arithmetic conditional independence: is the partial correlation
    of x and y given z below ``tol`` in magnitude?"""
    sigma = np.asarray(sigma, dtype=float)
    n = sigma.shape[0]
    zs = sorted(int(i) for i in z)
    for i in (x, y, *zs):
        if not 1 <= i <= n:
            raise NodeOutOfRangeError(f"node {i} out of range 1..{n}")
    if x == y or x in zs or y in zs:
        raise ValueError("x, y and z must be distinct")
    idx = [x - 1, y - 1] + [i - 1 for i in zs]
    sub = sigma[np.ix_(idx, idx)]
    try:
        prec = np.linalg.inv(sub)
    except np.linalg.LinAlgError:
        raise SingularSubmatrixError(
            f"covariance submatrix for {x},{y}|{zs} is singular") from None
    denom = prec[0, 0] * prec[1, 1]
    if denom <= 0:
        raise SingularSubmatrixError(
            f"covariance submatrix for {x},{y}|{zs} is not positive definite")
    pcorr = -prec[0, 1] / np.sqrt(denom)
    return bool(abs(pcorr) < tol)
