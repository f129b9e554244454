"""Exact combinatorics of real forms of compact semisimple groups.

Enumerates Kac 2-labelings of extended Dynkin diagrams, the action of the
coweight classes on them, and the resulting class sets of inner twisted
forms, with an independent brute-force torus verifier.  All arithmetic is
exact (ints and Fractions).
"""

from .cohomology import (
    H1Result,
    RootsResult,
    h1_adjoint,
    h1_inner_form,
    nth_root_classes,
    phi,
    real_form_table,
    z_from_q,
)
from .diagram import (
    ExtendedDiagram,
    FundamentalGroup,
    FundamentalGroupElement,
    fundamental_group,
    render_diagram,
)
from .labelings import (
    KacLabeling,
    LabelingOrbit,
    compact_labeling,
    enumerate_Kn,
    filter_for_central,
    filter_matching_q,
    format_labeling,
    orbit_decompose,
    parse_labeling,
)
from .lattice import (
    CentralElement,
    GroupSpec,
    all_intermediate_specs,
    dual_subgroup,
    enumerate_center,
    load_spec,
    preset_spec,
    validate_spec,
)
from .oracle import (
    CheckReport,
    CoweightLattice,
    TorusPoint,
    build_coweight_lattice,
    cross_check,
    enumerate_roots_of_z,
    weyl_orbit_count,
)
from .rootdata import (
    BudgetError,
    CartanData,
    InternalCheckError,
    LabelingError,
    SimpleType,
    SpecError,
    cartan_data,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
