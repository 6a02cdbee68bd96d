"""Weight spectra and union bounds.

Small codes are enumerated exhaustively with Gray-coded incremental
encoding (one generator word XOR per step).  Component codes get a
meet-in-the-middle search over parity-check columns for the low-weight
terms, which is what drives minimum-distance and error-floor numbers
for sizes far beyond exhaustive reach.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from scipy.special import erfc

from .components import ComponentCode, encode_systematic
from .product import ProductCode

EXHAUSTIVE_K_LIMIT = 28
LOW_WEIGHT_MAX = 4


@dataclass
class WeightSpectrum:
    """Multiplicity of each codeword weight; complete or truncated."""

    n: int
    k: int
    counts: dict = field(default_factory=dict)
    complete: bool = False

    def __post_init__(self) -> None:
        if self.n < 1 or not 0 <= self.k <= self.n:
            raise ValueError(
                f"a spectrum needs n >= 1 and 0 <= k <= n, got n={self.n}, k={self.k}"
            )

    def multiplicity(self, w: int) -> int:
        return self.counts.get(w, 0)

    def min_distance(self) -> float:
        nonzero = [w for w, c in self.counts.items() if w > 0 and c > 0]
        return min(nonzero) if nonzero else math.inf

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "complete": self.complete,
            "counts": {str(w): c for w, c in sorted(self.counts.items())},
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "WeightSpectrum":
        return cls(
            n=int(doc["n"]),
            k=int(doc["k"]),
            counts={int(w): int(c) for w, c in doc["counts"].items()},
            complete=bool(doc["complete"]),
        )


def save_spectrum(spec: WeightSpectrum, path, meta: dict | None = None) -> None:
    doc = spec.to_json_dict()
    if meta:
        doc["meta"] = meta
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_spectrum(path) -> WeightSpectrum:
    with open(path) as fh:
        return WeightSpectrum.from_json_dict(json.load(fh))


def _pack_bits(bits: np.ndarray) -> int:
    return int.from_bytes(
        np.packbits(bits.astype(np.uint8), bitorder="little").tobytes(), "little"
    )


def _generator_words(code) -> list[int]:
    """Packed codewords of the k unit information words."""
    if isinstance(code, ProductCode):
        encode = code.encode
    elif isinstance(code, ComponentCode):
        encode = partial(encode_systematic, code)
    else:
        raise TypeError(f"cannot enumerate {type(code).__name__}")
    return [_pack_bits(encode(unit)) for unit in np.eye(code.k, dtype=np.uint8)]


def exhaustive_spectrum(code) -> WeightSpectrum:
    """Exact weight spectrum by enumerating all 2^k codewords.

    Accepts a ProductCode or a ComponentCode.  Information words are
    visited in Gray order so each step XORs a single generator word.
    """
    if code.k > EXHAUSTIVE_K_LIMIT:
        raise ValueError(
            f"k={code.k} exceeds the exhaustive limit of {EXHAUSTIVE_K_LIMIT}; "
            "use low_weight_search for large codes"
        )
    gens = _generator_words(code)
    counts = [0] * (code.n + 1)
    word = 0
    counts[0] += 1
    for i in range(1, 1 << code.k):
        word ^= gens[(i & -i).bit_length() - 1]
        counts[word.bit_count()] += 1
    return WeightSpectrum(
        n=code.n,
        k=code.k,
        counts={w: c for w, c in enumerate(counts) if c},
        complete=True,
    )


def low_weight_search(code: ComponentCode, w_max: int) -> WeightSpectrum:
    """Truncated spectrum A_1..A_{w_max} from parity-check column sums.

    A weight-w codeword is w columns of H adding to zero; pairs of
    column pairs with equal sums give the weight-4 count without
    touching the 2^k information space.
    """
    if not 1 <= w_max <= LOW_WEIGHT_MAX:
        raise ValueError(f"w_max must be in [1, {LOW_WEIGHT_MAX}], got {w_max}")
    H = code.H
    n = H.cols
    col_words = [0] * n
    for r, sup in enumerate(H.row_support):
        bit = 1 << r
        for c in sup:
            col_words[c] |= bit

    counts: dict[int, int] = {0: 1}
    if w_max >= 1:
        a1 = sum(1 for w in col_words if w == 0)
        if a1:
            counts[1] = a1
    by_value: dict[int, int] = {}
    for w in col_words:
        by_value[w] = by_value.get(w, 0) + 1
    dup_pairs = sum(c * (c - 1) // 2 for c in by_value.values())
    if w_max >= 2 and dup_pairs:
        counts[2] = dup_pairs

    if w_max >= 3:
        triples = 0
        for i in range(n):
            for j in range(i + 1, n):
                s = col_words[i] ^ col_words[j]
                matches = by_value.get(s, 0)
                if col_words[i] == s:
                    matches -= 1
                if col_words[j] == s:
                    matches -= 1
                triples += matches
        if triples:
            assert triples % 3 == 0
            counts[3] = triples // 3

    if w_max >= 4:
        pair_sums: dict[int, int] = {}
        for i in range(n):
            wi = col_words[i]
            for j in range(i + 1, n):
                s = wi ^ col_words[j]
                pair_sums[s] = pair_sums.get(s, 0) + 1
        raw = sum(c * (c - 1) // 2 for c in pair_sums.values())
        # Pairs of pairs sharing a column require two identical columns;
        # each such configuration pairs a duplicate with any third column.
        overlapping = dup_pairs * (n - 2)
        assert (raw - overlapping) % 3 == 0
        a4 = (raw - overlapping) // 3
        if a4:
            counts[4] = a4
    return WeightSpectrum(n=n, k=code.k, counts=counts, complete=False)


def qfunc(x) -> np.ndarray:
    """Tail probability of the standard normal distribution."""
    return 0.5 * erfc(np.asarray(x, dtype=np.float64) / math.sqrt(2.0))


def union_bound(spectrum: WeightSpectrum, rate: float, ebn0_db_list):
    """Per-point (FER_UB, BER_UB) over BPSK/AWGN for a weight spectrum.

    FER term per weight: A_w * Q(sqrt(2*R*w*EbN0)); the BER bound scales
    each term by w/n (all-zero-codeword convention, noted in any file
    output this feeds).
    """
    terms = [(w, c) for w, c in sorted(spectrum.counts.items()) if w > 0 and c > 0]
    if not terms:
        raise ValueError("spectrum has no nonzero-weight terms")
    if rate <= 0:
        raise ValueError("rate must be positive")
    ebn0_db = np.asarray(ebn0_db_list, dtype=np.float64)
    ebn0 = 10.0 ** (ebn0_db / 10.0)
    fer = np.zeros_like(ebn0)
    ber = np.zeros_like(ebn0)
    for w, c in terms:
        q = qfunc(np.sqrt(2.0 * rate * w * ebn0))
        fer += c * q
        ber += (w / spectrum.n) * c * q
    return fer, ber


def write_union_bound_csv(path, ebn0_db, fer, ber, meta: dict | None = None) -> None:
    with open(path, "w") as fh:
        if meta:
            for key, val in meta.items():
                fh.write(f"# {key}={val}\n")
        fh.write("# ber_ub uses the (w/n)*A_w all-zero-codeword weighting\n")
        fh.write("ebn0_db,fer_ub,ber_ub\n")
        for e, f, bb in zip(ebn0_db, fer, ber):
            fh.write(f"{e:.6g},{f:.10e},{bb:.10e}\n")
