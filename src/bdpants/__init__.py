"""Coordinates of the Fuchsian locus of the rank-n Hitchin component of
a hyperbolic pair of pants, computed two independent ways.

The boundary lengths (or the rational parameter triple behind them)
determine a Fuchsian representation; embedding it by the symmetric
power gives a point of the rank-n Hitchin component, whose
Bonahon-Dreyer coordinates this package evaluates both from the
definitions (wedge determinants of boundary flags) and from the
explicit closed form (one monomial per shearing factor, a constant
triangle factor), checking that the two agree exactly over
arbitrary-precision rationals.  Float lengths enter as the exact
dyadic rationals they are; floats come back out only when printed.
"""

from .coords import (
    CoordinateVector,
    PositivityViolationError,
    assemble_phi,
    boundary_sum_R,
    polytope_check,
    tau_index_tuples,
)
from .flags import (
    DegenerateFlagsError,
    Flag,
    double_ratios_exp,
    flags_equal,
    is_generic,
    triple_ratios_exp,
)
from .pants import (
    BOUNDARIES,
    BOUNDARY_LEAVES,
    LEAVES,
    TRIANGLES,
    DomainError,
    PantsLengths,
    PantsParams,
    PantsRep,
    ProjPoint,
    SL2Mat,
    boundary_matrix,
    build_rep,
    check_domain,
    eigenvalues,
    fixed_points,
    leaf_quadruple,
    lengths_from_params,
    mobius_apply,
    params_from_lengths,
    triangle_vertices,
    validate_params,
)
from .scalars import exact_sqrt, log_to_float
from .veronese import flag_curve, stable_flag, sym_power
from .verify import VerifyConfig, all_passed, run_verification

__version__ = "0.1.0"
