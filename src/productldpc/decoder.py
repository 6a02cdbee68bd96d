"""Log-domain sum-product decoding on a Tanner graph.

Flooding schedule with the exact tanh product rule at the check nodes,
LLR summation at the variable nodes, a hard decision per iteration and
early exit on a zero syndrome.  Positive LLR means bit 0 is more
likely.  Message magnitudes are clamped to CLAMP_LLR before the tanh to
keep the log-domain transform finite.

Each thread that decodes owns its decoder state: the edge plan of the
last H it decoded, with the work arrays of a decode over it, built once
per H (1.2 ms at full size) and reused frame after frame.  The plan
buckets the checks by degree: each bucket holds its edges as a
C-contiguous (degree, checks) array, so the check-node update is a sum
and a parity along axis 0 broadcast back over the bucket's edges, in
the check-centred layout of Hu, Eleftheriou, Arnold and Dholakia
("Efficient implementations of the sum-product algorithm for decoding
LDPC codes", GLOBECOM 2001).  One flat edge order spans all buckets for
the elementwise work.  Every sum is taken in a fixed order that does
not depend on the layout: within a check, the order in which
``np.add.reduceat`` adds one segment; at a variable, ascending check
index.  Decisions are therefore reproducible bit for bit.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .gf2 import SparseBinMatrix, check_int

CLAMP_LLR = 30.0
_MIN_MAG = 1e-12


@dataclass
class DecodeResult:
    hard_bits: np.ndarray
    iterations_used: int
    converged: bool


class _EdgePlan:
    """The decoder's whole state for one H: its degree-bucketed edge
    layout and the work arrays of a decode over it.

    Flat edge order: bucket after bucket in ascending check degree d;
    inside a bucket of C checks, position in the check major and check
    minor, so the bucket is the block [offset, offset + d*C) viewed as a
    C-contiguous (d, C) array.  ``var[e]`` is the variable of flat edge
    e.  ``var_edges[k, v]`` is the flat edge of the k-th check of
    variable v in ascending check order; variables with fewer checks
    point at the slot ``n_edges``, which holds 0.  ``buckets`` holds each
    bucket's (d, C) views of ``beta``, ``excl``, ``neg`` and ``flip``.
    """

    def __init__(self, H: SparseBinMatrix) -> None:
        self.H = H
        indptr, indices = H.indptr, H.indices
        deg = np.diff(indptr)
        degrees = np.unique(deg[deg > 0])
        shapes = [(int(d), int(np.count_nonzero(deg == d))) for d in degrees]
        # CSR position (check-sorted edge index) of each flat edge.
        csr_pos = np.concatenate(
            [(indptr[:-1][deg == d] + np.arange(d)[:, None]).ravel() for d in degrees]
            or [np.empty(0, dtype=np.intp)]
        )
        self.n_edges = e = csr_pos.size
        self.var = indices[csr_pos].astype(np.intp)
        flat_of = np.empty(e, dtype=np.intp)
        flat_of[csr_pos] = np.arange(e)
        # CSR positions grouped by variable; the stable sort keeps each
        # variable's edges in CSR order, which is ascending check order,
        # and an edge's rank is its place in its variable's group.
        by_var = np.argsort(indices, kind="stable")
        var_deg = np.bincount(indices, minlength=H.cols)
        rank = np.arange(e) - np.repeat(np.cumsum(var_deg) - var_deg, var_deg)
        self.var_edges = np.full((var_deg.max(initial=0), H.cols), e, dtype=np.intp)
        self.var_edges[rank, indices[by_var]] = flat_of[by_var]

        # excl: the exclusive sum of phi, then -phi of it; v2c is spent by then.
        self.v2c = self.excl = np.empty(e)
        self.beta = np.empty(e)  # -phi(|v2c|)
        self.c2v_pad = np.zeros(e + 1)  # the last slot stays 0 for var_edges
        self.c2v = self.c2v_pad[:e]
        self.neg = np.empty(e, dtype=bool)
        self.flip = np.empty(e, dtype=bool)
        self.terms = np.empty(self.var_edges.shape)  # each variable's incoming c2v
        bounds = np.cumsum([0] + [d * c for d, c in shapes])
        self.buckets = [
            tuple(a[lo:hi].reshape(d, c) for a in (self.beta, self.excl, self.neg, self.flip))
            for (d, c), lo, hi in zip(shapes, bounds, bounds[1:])
        ]


_local = threading.local()


def _plan(H: SparseBinMatrix) -> _EdgePlan:
    # This thread's state, for the last H it decoded: a pool worker or a
    # CPU lane decodes one code per sweep, so the state stays warm for
    # the whole sweep, and a larger cache would only keep the codes of
    # finished sweeps alive.  No name holds the old state while the new
    # one is built, so the two never coexist.
    if getattr(_local, "plan", None) is None or _local.plan.H is not H:
        _local.plan = None
        _local.plan = _EdgePlan(H)
    return _local.plan


def _pairwise_rows(rows: np.ndarray) -> np.ndarray:
    # numpy's pairwise summation, row by row: sequential below 8 terms,
    # eight interleaved accumulators up to 128, halves above.
    n = len(rows)
    if n < 8:
        return rows.sum(axis=0)
    if n > 128:
        half = n // 2 - (n // 2) % 8
        return _pairwise_rows(rows[:half]) + _pairwise_rows(rows[half:])
    stop = n - n % 8
    acc = rows[:8]
    for i in range(8, stop, 8):
        acc = acc + rows[i:i + 8]
    pairs = acc[0::2] + acc[1::2]
    total = (pairs[0] + pairs[1]) + (pairs[2] + pairs[3])
    for row in rows[stop:]:
        total += row
    return total


def _check_sums(rows: np.ndarray) -> np.ndarray:
    """Column sums of a (degree, checks) array in ``np.add.reduceat``'s
    order for one segment: the first term plus the pairwise sum of the rest."""
    return rows[0] + _pairwise_rows(rows[1:])


def _log_tanh_half(x: np.ndarray) -> None:
    # x <- log(tanh(x/2)) = -phi(x) in place, phi(x) = -log(tanh(x/2))
    # being self-inverse on (0, inf); x is pre-clamped to >= _MIN_MAG.
    np.multiply(x, 0.5, out=x)
    np.tanh(x, out=x)
    np.log(x, out=x)


def spa_decode(H: SparseBinMatrix, channel_llr, max_iter: int = 100) -> DecodeResult:
    """Decode one frame of channel LLRs against H."""
    llr = np.asarray(channel_llr, dtype=np.float64)
    if llr.shape != (H.cols,):
        raise ValueError(f"expected {H.cols} LLRs, got shape {llr.shape}")
    if not np.all(np.isfinite(llr)):
        raise ValueError("channel LLRs must be finite")
    check_int("max_iter", max_iter, 1)

    plan = _plan(H)
    if plan.n_edges == 0:
        # No constraints: the channel decision already satisfies H.
        return DecodeResult((llr < 0).astype(np.uint8), 1, True)

    v2c, beta, excl, c2v, neg, flip, terms, buckets = (
        plan.v2c, plan.beta, plan.excl, plan.c2v, plan.neg, plan.flip, plan.terms, plan.buckets)
    c2v.fill(0.0)

    # The plan's indices are in range by construction; mode="clip" lets
    # np.take write straight into `out`, which the default mode buffers.
    posterior = llr
    for it in range(max_iter + 1):
        np.take(posterior, plan.var, out=v2c, mode="clip")
        if it:
            # After `it` iterations, the gather that opens the next one
            # doubles as the syndrome check of the current decision.
            np.less(v2c, 0.0, out=neg)
            if not any(np.logical_xor.reduce(n_b, axis=0).any() for _, _, n_b, _ in buckets):
                return DecodeResult((posterior < 0).astype(np.uint8), it, True)
            if it == max_iter:
                break
        np.subtract(v2c, c2v, out=v2c)
        np.less(v2c, 0.0, out=neg)
        np.abs(v2c, out=beta)
        np.clip(beta, _MIN_MAG, CLAMP_LLR, out=beta)
        _log_tanh_half(beta)
        for b_b, x_b, n_b, f_b in buckets:
            # phi-sum of the other edges: sum(phi) - phi = beta - sum(beta).
            np.subtract(b_b, _check_sums(b_b), out=x_b)
            np.not_equal(n_b, np.logical_xor.reduce(n_b, axis=0), out=f_b)
        # phi(excl) <= phi(_MIN_MAG) ~ 28.3 < CLAMP_LLR: c2v needs no clip.
        np.maximum(excl, _MIN_MAG, out=excl)
        _log_tanh_half(excl)
        np.multiply(flip, 2.0, out=c2v)
        c2v -= 1.0  # minus the sign of each outgoing message
        c2v *= excl
        # The previous posterior was consumed by this iteration's gather.
        np.take(plan.c2v_pad, plan.var_edges, out=terms, mode="clip")
        posterior = terms[0]
        for row in terms[1:]:
            posterior += row
        posterior += llr
    return DecodeResult((posterior < 0).astype(np.uint8), max_iter, False)
