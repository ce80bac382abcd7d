"""Exact zeta functions of weighted and cuspidal graphs, with oracles and pole analysis."""

from cuspzeta.exact import (
    Poly,
    PolyMatrix,
    RatFunc,
    log_derivative_series,
    poly_det,
    poly_gcd,
    ratfunc_pow,
    ratfunc_reduce,
    series_expand,
)
from cuspzeta.graphs import (
    Cusp,
    CuspidalGraph,
    EdgeIndexedGraph,
    GraphFormatError,
    GraphOfGroups,
    OrientedEdge,
    ValidationReport,
    invariant_signature,
    relabel,
    truncate,
    validate,
    weights_from_groups,
)
from cuspzeta.families import chain, loop_family, pgl2, star
from cuspzeta.zeta import (
    CountingSeries,
    ZetaResult,
    bass_ihara_zeta,
    build_effective,
    counting_series,
)
from cuspzeta.oracle import (
    BudgetExceededError,
    CycleClass,
    enumerate_primitive_cycles,
    euler_product_series,
    trace_powers,
)
from cuspzeta.spectra import (
    GrowthEstimate,
    PoleReport,
    RamanujanVerdict,
    RootFindingError,
    complex_roots,
    growth_rate,
    pole_gap_sweep,
    pole_report,
    ramanujan_check,
)

__version__ = "0.1.0"
