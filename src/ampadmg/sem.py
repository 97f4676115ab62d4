"""Linear Gaussian structural equation semantics for mixed graphs.

Each node A is assigned ``A = sum(beta[t -> A] * t for t in parents) + e_A``
with jointly Gaussian noise.  Lines constrain the noise precision: the
entry for a pair of noise terms may be non-zero only when the corresponding
nodes are joined by a line.

The *magnified* view makes the noise explicit: node ``i`` keeps its index
and its noise term becomes node ``n + i``, with an arrow from each noise
node into its variable and the lines moved onto the noise nodes.

Conditioning on z in the magnified graph also fixes every noise node that z
determines (the D-separation of Geiger, Verma and Pearl): one rule, a noise
node is determined once its variable and the variable's other parents are.
:func:`separated_with_determinism` closes z that way and asks criterion 1
(path separation) of the closure, which agrees with the unmagnified graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .errors import (ErrorNodeInZError, GraphValidationError, ProblemTooLargeError,
                     SingularSubmatrixError)
from .graph import MixedGraph, _bits, _check_names, _node_index, _node_mask
from .separation import SeparationQuery, _query_masks, _reject_biarrows, _separating_masks

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
        noise = tuple(f"eps_{s}" for s in g.node_names)
        if clash := set(noise).intersection(g.node_names):
            raise GraphValidationError(f"noise label {min(clash)!r} clashes with a node label")
        names = _check_names(g.node_names + noise, 2 * n)
    return MixedGraph._from_masks(2 * n, (pa_m, ch_m, ne_m, [0] * (2 * n + 1)), names)


def _magnified_half(gp: MixedGraph) -> int:
    n = gp.n
    if n % 2:
        raise ValueError("not a magnified graph: odd node count")
    m = n // 2
    pa = gp._adj[0]
    for i in range(1, m + 1):
        if not pa[i] >> (m + i - 1) & 1:
            raise ValueError(f"not a magnified graph: missing noise arrow into {i}")
    return m


def determined_closure(gp: MixedGraph, z: Iterable[int]) -> frozenset[int]:
    """Everything functionally determined by z in a magnified graph.

    Least fixpoint of: z is determined; a noise node is determined once its
    variable and the variable's remaining parents are.  The other rule, that
    a variable is determined once all its parents are, never fires: every
    variable's own noise node is its parent, and that noise node is
    determined only after the variable, so the variables of the closure are
    exactly z.
    """
    m = _magnified_half(gp)
    return gp.mask_nodes(_determined_mask(gp._adj[0], m, gp.node_mask(z)))


def separated_with_determinism(gp: MixedGraph, q: SeparationQuery) -> bool:
    """Path separation in a magnified graph, with z closed under
    :func:`determined_closure`: colliders must be ancestors of the closure,
    non-colliders must avoid it up to the usual line-line escape."""
    _reject_biarrows(gp, "path separation")
    xm, ym, zm = _query_masks(gp, q)
    dtm = _determined_mask(gp._adj[0], _magnified_half(gp), zm)
    return bool(_separating_masks(gp, 1, xm, ym, dtm, 0))


def _determined_mask(pa, m: int, zm: int) -> int:
    # The closure of zm in a magnified graph with m variables.  Still a
    # fixpoint: a noise node may be the parent of another variable, whose
    # own noise node it then waits for.
    if zm >> m:
        raise ErrorNodeInZError("z may only contain variable nodes (1..n)")
    dt, before = zm, -1
    while dt != before:
        before = dt
        for a in _bits(zm):
            eb = 1 << (m + a - 1)
            if not pa[a] & ~eb & ~dt:
                dt |= eb
    return dt


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
        beta = {tuple(map(_node_index, e)): float(v) for e, v in dict(self.beta).items()}
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


def _check_tol(tol: float) -> None:
    # A negative, NaN or infinite tol would fail or pass every test.
    if not 0 <= tol < math.inf:
        raise ValueError(f"tol must be non-negative and finite, got {tol}")


def ci_test(sigma: np.ndarray, x: int, y: int, z: Iterable[int],
            tol: float = CI_TOL) -> bool:
    """Conditional independence read from a covariance matrix: is the float
    partial correlation of x and y given z below ``tol`` in magnitude?"""
    _check_tol(tol)
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise ValueError(f"sigma must be a square 2-D matrix, got shape {sigma.shape}")
    n = sigma.shape[0]
    x, y = _node_index(x, n), _node_index(y, n)
    zm = _node_mask(z, n)
    if x == y or zm & (1 << (x - 1) | 1 << (y - 1)):
        raise ValueError("x, y and z must be distinct")
    return _ci_tests(sigma, x, y, [zm], tol)[0]


def _ci_tests(sigma: np.ndarray, x: int, y: int, zms, tol: float) -> list[bool]:
    """For each z mask in ``zms``, in order: is the float partial correlation
    of x and y given z below ``tol`` in magnitude?  On trusted arguments (x
    and y distinct nodes of sigma, each mask inside the other nodes); every
    partial correlation, :func:`ci_test`'s included, is read here.

    Each size's submatrices (rows and columns x, y, then z ascending) are
    inverted as one stack.  A singular or not positive definite submatrix
    raises :class:`SingularSubmatrixError` naming its set; a singular stack
    is inverted again one matrix at a time, by the same LAPACK routine, to
    name its first singular set.
    """
    def named(i, what):
        return f"covariance submatrix for {x},{y}|{list(_bits(zms[i]))} is {what}"

    groups: dict[int, list[int]] = {}
    for i, zm in enumerate(zms):
        groups.setdefault(zm.bit_count(), []).append(i)
    out = [False] * len(zms)
    for where in groups.values():
        idx = np.array([[x - 1, y - 1] + [v - 1 for v in _bits(zms[i])] for i in where])
        sub = sigma[idx[:, :, None], idx[:, None, :]]
        try:
            prec = np.linalg.inv(sub)
        except np.linalg.LinAlgError:
            for i, m in zip(where, sub):
                try:
                    np.linalg.inv(m)
                except np.linalg.LinAlgError:
                    raise SingularSubmatrixError(named(i, "singular")) from None
            raise  # not reached: some matrix of the stack fails alone
        # Python floats and math.sqrt round exactly as numpy's float64
        # scalars do, at a fraction of the call cost.  A NaN denominator
        # fails `denom > 0`, so no verdict is read from it.
        for i, ((pxx, pxy), (_, pyy)) in zip(where, prec[:, :2, :2].tolist()):
            denom = pxx * pyy
            if not denom > 0:
                raise SingularSubmatrixError(named(i, "not positive definite"))
            out[i] = abs(pxy) / math.sqrt(denom) < tol
    return out
