"""Symbolic calculus for Lefschetz categories over projective bundles.

The engine models categories by additive-invariant data (exact integer
polynomials), builds every supported semiorthogonal decomposition, and checks
homological-projective-duality identities symbolically.
"""

__version__ = "0.1.0"

from .checks import CheckResult, check_main_theorem
from .dsl import CHECK_NAMES, parse, print_canonical, run_check, validate
from .engine import (
    hpd_total,
    join_profile,
    n_hyperplane_sod,
    projective_bundle_sod,
    universal_hyperplane_sod,
)
from .errors import HpdcalcError, Underdetermined
from .model import LefschetzProfile, Workspace, build_profile
from .poly import InvariantExpr, Symbol, const, parse_expr, sym
from .prop import run_property, run_suite

__all__ = [
    "__version__",
    "InvariantExpr",
    "Symbol",
    "const",
    "sym",
    "parse_expr",
    "LefschetzProfile",
    "Workspace",
    "build_profile",
    "hpd_total",
    "join_profile",
    "n_hyperplane_sod",
    "projective_bundle_sod",
    "universal_hyperplane_sod",
    "CHECK_NAMES",
    "CheckResult",
    "check_main_theorem",
    "parse",
    "validate",
    "print_canonical",
    "run_check",
    "HpdcalcError",
    "Underdetermined",
    "run_property",
    "run_suite",
]
