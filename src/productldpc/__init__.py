"""Product LDPC codes with column interleavers.

Construction of direct and column-interleaved product codes from simple
systematic components, progressive-edge-growth interleaver design,
exact weight spectra, union bounds, and sum-product BER/FER simulation.
"""

__version__ = "0.1.0"

from .analysis import (
    WeightSpectrum,
    exhaustive_spectrum,
    low_weight_search,
    union_bound,
)
from .components import (
    ComponentCode,
    build_mscmpc,
    build_spc,
    build_uncoded,
    parse_component_spec,
)
from .decoder import DecodeResult, spa_decode
from .gf2 import (
    PermutationArray,
    SparseBinMatrix,
    density,
    kron,
    rank_gf2,
    syndrome,
    vec_kron,
)
from .peg import GirthReport, design_circulant, design_generic, local_girth
from .product import ProductCode, build_hp, build_hp_interleaved
from .simulate import SimConfig, SimResult, run_sweep

__all__ = [
    "ComponentCode",
    "DecodeResult",
    "GirthReport",
    "PermutationArray",
    "ProductCode",
    "SimConfig",
    "SimResult",
    "SparseBinMatrix",
    "WeightSpectrum",
    "build_hp",
    "build_hp_interleaved",
    "build_mscmpc",
    "build_spc",
    "build_uncoded",
    "density",
    "design_circulant",
    "design_generic",
    "exhaustive_spectrum",
    "kron",
    "local_girth",
    "low_weight_search",
    "parse_component_spec",
    "rank_gf2",
    "run_sweep",
    "spa_decode",
    "syndrome",
    "union_bound",
    "vec_kron",
]
