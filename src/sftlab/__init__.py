"""Tools for automorphisms of edge shifts of finite type.

Build edge shifts from nonnegative integer matrices, define sliding block
codes and certified automorphisms on them, measure how far coding windows
propagate under iteration, push ray/beam classes through the induced action
on the eventual-range group, and run the spectral checks and verification
suites from the command line via ``sftlab``.
"""

import types

from .shifts import (
    DEFAULT_BUDGET,
    DEFAULT_TOL,
    EdgeShift,
    PerronData,
    DimensionData,
    build_edge_shift,
    count_words,
    dimension_data,
    kronecker_product,
    perron_data,
    resolve_budget,
    transpose_shift,
    window_budget,
)
from .codes import (
    Automorphism,
    SlidingBlockCode,
    automorphism_power,
    codes_equal,
    compose,
    compose_automorphisms,
    identity_code,
    infer_inverse,
    inverse_shift_code,
    pad_code,
    power,
    product_code,
    shift_code,
    verify_automorphism,
)
from .coding_range import (
    CodingRangeProfile,
    LyapunovBounds,
    coding_range_profile,
    lyapunov_bounds,
    reverse_automorphism,
    w_values,
)
from .dimension import (
    Beam,
    DimensionAction,
    Ray,
    canonical_zero_ray,
    dimension_matrix,
    distortion_spectrum_check,
    theta,
    unstable_measure,
    verify_entropy_bound,
    verify_main_bounds,
)
from .entropy import (
    ColumnCensus,
    c_phi_count,
    column_census,
    exact_entropy_of,
    restrict_to_subsystem,
)
from .spectra import (
    IntPolynomial,
    SpectralConditionsReport,
    check_conditions,
    net_trace,
    power_traces,
    search_primitive_realization,
    verify_eb_failure,
)
from .builtins import DEFAULT_SUITE, make_builtin
from .systems import SystemFile, load_system_file, save_system
from .records import CheckRecord
from .reports import (
    ACCEPTANCE_CRITERIA,
    Report,
    SUITE_NAMES,
    run_criterion,
    run_suite,
)
from .errors import (
    InconsistentSystem,
    InternalInvariantViolation,
    NonMonic,
    NotInverse,
    NotInvertibleWithin,
    NotPrimitive,
    ParseError,
    PreconditionFailed,
    SftlabError,
    UnknownBuiltin,
    WindowBudgetExceeded,
    ZeroConstantTerm,
)

__version__ = "0.1.0"

# every name imported above, so the list cannot drift from the imports
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
)
