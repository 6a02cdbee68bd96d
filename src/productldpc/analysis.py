"""Weight spectra and union bounds.

Small codes are enumerated exhaustively by meet in the middle: the
codewords spanned by the low and by the high half of the generator rows
are tabulated as packed 64-bit words, and every (high, low) pair is
XORed and weighed with a popcount, a block of pairs at a time.  The high
rows are dealt out to one lane per usable CPU (gf2._in_lanes), threads
whose blocks of the run size _in_lanes gives them together take what one
serial block takes, and the lanes' histograms are summed in lane order,
so the counts never depend on the number of CPUs.
The low-weight terms of any code come from one counting pass over the
pairs of its parity-check columns, which is what drives
minimum-distance and error-floor numbers for sizes far beyond
exhaustive reach.
"""

from __future__ import annotations

import json
import math
import numbers
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .gf2 import _in_lanes, check_int, parse_numbers

EXHAUSTIVE_K_LIMIT = 28
# (high, low) pairs weighed per block: fixes the block buffers at a few MB.
_PAIRS_PER_BLOCK = 1 << 18
LOW_WEIGHT_MAX = 4


@dataclass
class WeightSpectrum:
    """Multiplicity of each codeword weight; complete or truncated."""

    n: int
    k: int
    counts: dict = field(default_factory=dict)
    complete: bool = False

    def __post_init__(self) -> None:
        dims = f"a spectrum needs n >= 1 and 0 <= k <= n, got n={self.n}, k={self.k}"
        check_int("spectrum k", self.k, 0, small=dims)
        check_int("spectrum n", self.n, max(1, self.k), small=dims)
        for w, c in self.counts.items():
            outside = f"spectrum weight {w} is outside 0..{self.n}"
            check_int("spectrum weight", w, 0, small=outside)
            if w > self.n:
                raise ValueError(outside)
            check_int(f"spectrum A_{w}", c, 0, small=f"spectrum count A_{w}={c} is negative")

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
        if not isinstance(doc, dict) or not isinstance(doc.get("counts"), dict):
            raise ValueError("a spectrum must be a JSON object whose counts is an object")

        def number(name: str, value):
            if not isinstance(value, numbers.Number):
                raise ValueError(f"a spectrum entry is not a number: {name}={value!r}")
            return value

        for key in ("n", "k", "complete"):
            if key not in doc:
                raise ValueError(f"spectrum entry {key!r} is missing")
        if not isinstance(doc["complete"], bool):
            raise ValueError(f"spectrum complete must be true or false, got {doc['complete']!r}")
        counts = {}
        for w, c in doc["counts"].items():
            (weight,) = parse_numbers([w], int, "spectrum weight {!r} is not an integer")
            counts[weight] = number(f"A_{w}", c)
        return cls(n=number("n", doc["n"]), k=number("k", doc["k"]), counts=counts,
                   complete=doc["complete"])


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


def _generator_words(code) -> np.ndarray:
    """Codewords of the k unit information words as (k, W) uint64 words.

    Bit j of a codeword is bit j % 64 of word j // 64; W = ceil(n / 64)
    and the padding bits of the last word are zero.
    """
    n_words = -(-code.n // 64)
    packed = np.zeros((code.k, 8 * n_words), dtype=np.uint8)
    octets = np.packbits(code.encode(np.eye(code.k, dtype=np.uint8)), axis=-1, bitorder="little")
    packed[:, : octets.shape[1]] = octets
    return packed.view("<u8")


def _span(gens: np.ndarray) -> np.ndarray:
    """All 2^m XOR combinations of the m rows of gens.

    Row i of the table is the combination whose bit j selects row j.
    """
    table = np.zeros((1 << len(gens), gens.shape[1]), dtype=gens.dtype)
    for j, g in enumerate(gens):
        half = 1 << j
        np.bitwise_xor(table[:half], g, out=table[half : 2 * half])
    return table


def exhaustive_spectrum(code) -> WeightSpectrum:
    """Exact weight spectrum by enumerating all 2^k codewords.

    Accepts any code whose encode maps (..., k) info words to (..., n)
    codewords: product, component or uncoded.  Each codeword is the XOR
    of a combination of the low ceil(k/2) generator rows with a
    combination of the high floor(k/2) rows; blocks of high combinations
    are XORed against the whole low table one 64-bit word at a time,
    the per-word popcounts summed into weights and the weights
    histogrammed, in one lane per usable CPU.
    """
    if code.k > EXHAUSTIVE_K_LIMIT:
        raise ValueError(
            f"k={code.k} exceeds the exhaustive limit of {EXHAUSTIVE_K_LIMIT}; "
            "use low_weight_search for large codes"
        )
    gens = _generator_words(code)
    split = (code.k + 1) // 2
    low = np.ascontiguousarray(_span(gens[:split]).T)  # (W, 2^split)
    high = _span(gens[split:])
    rows = max(1, _PAIRS_PER_BLOCK // low.shape[1])

    def weigh(share: slice, size: int) -> np.ndarray:
        mine = high[share]
        counts = np.zeros(code.n + 1, dtype=np.int64)
        for start in range(0, len(mine), size):
            block = mine[start : start + size]
            # The weight reaches n, so the accumulator must hold n (uint8
            # would wrap for n > 255).
            weight = np.zeros((len(block), low.shape[1]), dtype=np.min_scalar_type(code.n))
            for word in range(low.shape[0]):
                weight += np.bitwise_count(block[:, word, None] ^ low[word])
            counts += np.bincount(weight.ravel(), minlength=code.n + 1)
        return counts

    counts = sum(_in_lanes(weigh, len(high), rows))
    return WeightSpectrum(
        n=code.n,
        k=code.k,
        counts={w: int(c) for w, c in enumerate(counts) if c},
        complete=True,
    )


def low_weight_search(code, w_max: int) -> WeightSpectrum:
    """Truncated spectrum A_1..A_{w_max} from parity-check column sums.

    Reads only `code.H` and `code.k`, so it takes any code of the one
    code protocol, or any object with those two fields.  A weight-w
    codeword is w columns of H adding to zero.  With single[s]
    columns equal to s and pairs[s] column pairs summing to s, A_1 is
    single[0] and A_2 sums C(single[s], 2).  Sums of pairs[s]*single[s]
    and of C(pairs[s], 2) count each weight-3 and weight-4 word three
    times, plus terms reusing a column, which only zero and equal
    columns make.  For w_max <= 2 the search is O(n); a larger w_max
    walks the column pairs once and keeps the pair table, so 3 costs
    what 4 does (about 21 MB for mscmpc:961:31,32).
    """
    in_range = f"w_max must be in [1, {LOW_WEIGHT_MAX}], got {w_max}"
    check_int("w_max", w_max, 1, small=in_range)
    if w_max > LOW_WEIGHT_MAX:
        raise ValueError(in_range)
    n = code.H.cols
    col_words = [sum(1 << r for r in sup.tolist()) for sup in code.H.col_support()]
    single = Counter(col_words)
    zeros = single[0]
    equal_pairs = sum(m * (m - 1) // 2 for m in single.values())
    terms = [1, zeros, equal_pairs]
    if w_max >= 3:
        pairs = Counter(a ^ b for a, b in combinations(col_words, 2))
        closing = sum(m * single[s] for s, m in pairs.items())
        split = sum(m * (m - 1) // 2 for m in pairs.values())
        terms += [(closing - zeros * (n - 1)) // 3, (split - equal_pairs * (n - 2)) // 3]
    counts = {w: a for w, a in enumerate(terms[: w_max + 1]) if a}
    return WeightSpectrum(n=n, k=code.k, counts=counts, complete=False)


_erfc = np.vectorize(math.erfc, otypes=[np.float64])


def qfunc(x) -> np.ndarray:
    """Tail probability of the standard normal distribution, elementwise."""
    return 0.5 * _erfc(np.asarray(x, dtype=np.float64) / math.sqrt(2.0))


def union_bound(spectrum: WeightSpectrum, rate: float, ebn0_db_list):
    """Per-point (FER_UB, BER_UB) over BPSK/AWGN for a weight spectrum.

    FER term per weight: A_w * Q(sqrt(2*R*w*EbN0)); the BER bound scales
    each term by w/n (all-zero-codeword convention, noted in any file
    output this feeds).
    """
    terms = [(w, c) for w, c in sorted(spectrum.counts.items()) if w > 0 and c > 0]
    if not terms:
        raise ValueError("spectrum has no nonzero-weight terms")
    if not isinstance(rate, numbers.Real) or isinstance(rate, bool):
        raise ValueError(f"rate must be a real number, got {rate!r}")
    if not (math.isfinite(rate) and 0 < rate <= 1):
        raise ValueError(f"rate must be finite and in (0, 1], got {rate}")
    for w, c in terms:
        try:
            float(c)
        except OverflowError:
            raise ValueError(f"spectrum count A_{w} is past the float range") from None
    ebn0_db = np.asarray(ebn0_db_list, dtype=np.float64)
    ebn0 = 10.0 ** (ebn0_db / 10.0)
    fer = np.zeros_like(ebn0)
    ber = np.zeros_like(ebn0)
    with np.errstate(over="ignore"):
        for w, c in terms:
            q = qfunc(np.sqrt(2.0 * rate * w * ebn0))
            fer += c * q
            ber += (w / spectrum.n) * c * q
    past = np.flatnonzero(np.isinf(fer) | np.isinf(ber))
    if past.size:
        raise ValueError(
            f"union bound at Eb/N0 = {ebn0_db[past[0]]:g} dB is past the float range"
        )
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
