"""Exact-arithmetic toolkit for reverse plane partitions coupled through a
two-color five-vertex model: hook-product generating functions, Yang-Baxter
verification, the weight-preserving bijections, and the zero-interaction
sliding bijection."""

from .partitions import (
    Cell,
    conjugate,
    hook_table,
    maya,
    maya_mask,
)
from .qt_series import (
    QTSeries,
    hook_product,
)
from .rpp_core import (
    RPP,
    SliceSequence,
    enumerate_rpps,
    interaction_pattern,
    to_slices,
    validate,
    zero_rpp,
)
from .vertex_model import (
    A_lambda,
    Monomial,
    config_weight_q,
    cross_weight,
    gray_weight,
    row_weight_explicit,
    rpp_to_config,
    verify_ybe,
    white_weight,
)
from .coupling import (
    PairRPP,
    coupled_pairs,
    g_via_lozenges,
    g_via_vertex,
    make_pair,
    pair_config_weight,
    pair_genfun_bruteforce,
    pair_genfun_transfer,
)
from .sliding import (
    check_t0_constraints,
    slide,
    unslide,
    verify_t0_counting,
)

__version__ = "0.1.0"
