"""The plane-graph transitivity with every Gram block eigensolved, kept as
the tests' reference.

Each row of the adjacency is one batched eigensolve of G^T G over all
the Gram blocks G = W_node^T W_j, with no bound deciding a block first.
``rieszlab.subeq.transitivity_check`` must return the same results, and
its adjacency rows must be these.
"""

from __future__ import annotations

import math

import numpy as np

from rieszlab.errors import DomainError
from rieszlab.linalg import ordered_eigenvalues
from rieszlab.subeq import GrassmannSample, TransitivityResult


def cos_sq(angle_tol: float) -> float:
    return math.cos(angle_tol) * abs(math.cos(angle_tol))


def containing_planes(sample: GrassmannSample, x, cos_sq_tol: float) -> np.ndarray:
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size != sample.n:
        raise DomainError(f"transitivity endpoints must have length {sample.n}, got {x.size}")
    if not np.all(np.isfinite(x)):
        raise DomainError("transitivity endpoints must be finite")
    norm = np.linalg.norm(x)
    if norm == 0.0:
        raise DomainError("transitivity endpoints must be nonzero")
    proj = np.einsum("knp,n->kp", sample.stacked(), x / norm)
    return np.flatnonzero(np.einsum("kp,kp->k", proj, proj) >= cos_sq_tol)


def adjacency_row(stack: np.ndarray, node: int, cos_sq_tol: float) -> np.ndarray:
    grams = np.einsum("np,jnq->jpq", stack[node], stack)
    return ordered_eigenvalues(grams.swapaxes(1, 2) @ grams)[:, -1] >= cos_sq_tol


def transitivity_check(sample: GrassmannSample, x, y) -> TransitivityResult:
    cos_sq_tol = cos_sq(sample.angle_tol)
    starts = containing_planes(sample, x, cos_sq_tol)
    goals = containing_planes(sample, y, cos_sq_tol)
    if starts.size == 0:
        return TransitivityResult(False, (), "no sampled plane contains x")
    if goals.size == 0:
        return TransitivityResult(False, (), "no sampled plane contains y")
    goal_set = set(goals.tolist())
    stack = sample.stacked()

    def chain_to(node: int) -> TransitivityResult:
        chain = [node]
        while parent[chain[-1]] != -1:
            chain.append(parent[chain[-1]])
        return TransitivityResult(True, tuple(reversed(chain)))

    frontier = [int(s) for s in starts]
    parent = {s: -1 for s in frontier}
    for s in frontier:
        if s in goal_set:
            return chain_to(s)
    while frontier:
        nxt = []
        for node in frontier:
            for nbr in np.flatnonzero(adjacency_row(stack, node, cos_sq_tol)):
                nbr = int(nbr)
                if nbr not in parent:
                    parent[nbr] = node
                    if nbr in goal_set:
                        return chain_to(nbr)
                    nxt.append(nbr)
        frontier = nxt
    return TransitivityResult(False, (), "plane graph disconnected between x and y")
