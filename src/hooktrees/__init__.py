"""Exact hook-length statistics on complete m-ary trees and plane forests,
and exhaustive verification of the polynomial identities they satisfy.

Everything is exact rational arithmetic; there is no floating point in the
package.  See the module docstrings of :mod:`hooktrees.algebra`,
:mod:`hooktrees.trees`, :mod:`hooktrees.hooks`, and
:mod:`hooktrees.identities` for the pieces, and :mod:`hooktrees.cli` for
the command line front end.
"""

from .algebra import (
    ONE,
    Poly,
    PolySeries,
    X,
    ZERO,
    closed_omega,
    closed_phi,
    rhs_binomial_poly,
    rhs_product_poly,
    series_compose_scaled,
    solve_omega,
    solve_phi,
)
from .hooks import (
    compose,
    decompose,
    first_kind_hooks,
    forest_hooks,
    prune,
    second_kind_hooks,
    standard_hooks,
)
from .identities import (
    FAMILIES,
    IdentitySpec,
    SuiteResult,
    VerificationReport,
    check_gf_relations,
    check_identity,
    check_recurrence_thm1_1,
    default_grid,
    verify_suite,
)
from .trees import (
    DecodeError,
    MAryTree,
    PlaneForest,
    count_trees,
    decode,
    enumerate_forests,
    enumerate_trees,
    psi,
    psi_inverse,
)

__version__ = "0.1.0"

__all__ = [
    "ONE",
    "Poly",
    "PolySeries",
    "X",
    "ZERO",
    "closed_omega",
    "closed_phi",
    "rhs_binomial_poly",
    "rhs_product_poly",
    "series_compose_scaled",
    "solve_omega",
    "solve_phi",
    "compose",
    "decompose",
    "first_kind_hooks",
    "forest_hooks",
    "prune",
    "second_kind_hooks",
    "standard_hooks",
    "FAMILIES",
    "IdentitySpec",
    "SuiteResult",
    "VerificationReport",
    "check_gf_relations",
    "check_identity",
    "check_recurrence_thm1_1",
    "default_grid",
    "verify_suite",
    "DecodeError",
    "MAryTree",
    "PlaneForest",
    "count_trees",
    "decode",
    "enumerate_forests",
    "enumerate_trees",
    "psi",
    "psi_inverse",
]
