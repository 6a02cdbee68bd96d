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
the elementwise work.  Every sum is added left to right in flat edge
order: within a check, ascending variable index; at a variable,
ascending check index.  Both are plain loops of ``+=`` over rows, so no
sum relies on a numpy reduction order, and decisions are reproducible
bit for bit.
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
    bucket's (d, C) views of ``v2c`` and ``neg``.

    A decode keeps two float edge arrays and one bool edge array, as the
    check-centred layout needs.  ``c2v`` carries the check messages from
    one iteration to the next.  ``v2c`` is worked in place through one
    iteration: the variable messages, then -phi of their clipped
    magnitudes, then each edge's exclusive phi-sum, then -phi of that.
    ``neg`` holds the signs of the variable messages, then, flipped in
    place by each check's parity, whether an outgoing message is
    negative.  Against an array per stage (three float and two bool edge
    arrays), this ran a 25-frame chunk of the (10000,6561) pair in 0.944x
    the time at 2.0-2.5 dB and 0.948x at 4.5 dB on one CPU (medians of
    10 alternating pairs, lower in 7 and 9 of them).
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

        self.v2c = np.empty(e)
        self.c2v_pad = np.zeros(e + 1)  # the last slot stays 0 for var_edges
        self.c2v = self.c2v_pad[:e]
        self.neg = np.empty(e, dtype=bool)
        self.terms = np.empty(self.var_edges.shape)  # each variable's incoming c2v
        bounds = np.cumsum([0] + [d * c for d, c in shapes])
        self.buckets = [
            (self.v2c[lo:hi].reshape(d, c), self.neg[lo:hi].reshape(d, c))
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


def _log_tanh_half(x: np.ndarray, top) -> None:
    # x <- log(tanh(x/2)) = -phi(x) in place, x first clipped to
    # [_MIN_MAG, top]; phi(x) = -log(tanh(x/2)) is self-inverse on (0, inf).
    np.clip(x, _MIN_MAG, top, out=x)
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

    v2c, c2v, neg, terms, buckets = plan.v2c, plan.c2v, plan.neg, plan.terms, plan.buckets
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
            if not any(np.logical_xor.reduce(n_b, axis=0).any() for _, n_b in buckets):
                return DecodeResult((posterior < 0).astype(np.uint8), it, True)
            if it == max_iter:
                break
        np.subtract(v2c, c2v, out=v2c)
        np.less(v2c, 0.0, out=neg)
        np.abs(v2c, out=v2c)
        _log_tanh_half(v2c, CLAMP_LLR)
        for v_b, n_b in buckets:
            # phi-sum of the other edges: sum(phi) - phi, v_b holding -phi.
            total = v_b[0].copy()
            for row in v_b[1:]:
                total += row
            np.subtract(v_b, total, out=v_b)
            np.not_equal(n_b, np.logical_xor.reduce(n_b, axis=0), out=n_b)
        # phi of the exclusive sum <= phi(_MIN_MAG) ~ 28.3 < CLAMP_LLR:
        # c2v needs no clip.
        _log_tanh_half(v2c, None)
        np.multiply(neg, 2.0, out=c2v)
        c2v -= 1.0  # minus the sign of each outgoing message
        c2v *= v2c
        # The previous posterior was consumed by this iteration's gather.
        np.take(plan.c2v_pad, plan.var_edges, out=terms, mode="clip")
        posterior = terms[0]
        for row in terms[1:]:
            posterior += row
        posterior += llr
    return DecodeResult((posterior < 0).astype(np.uint8), max_iter, False)
