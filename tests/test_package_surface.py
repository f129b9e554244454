"""The public names of ``kacoh`` and the references that live in the tests.

The Weyl-group, geometric and ``Fraction`` references that only tests call
are defined in ``tests/references.py`` and nowhere in the package.
"""

import ast
from pathlib import Path

import kacoh

import references

PUBLIC = {
    "BudgetError", "CartanData", "CentralElement", "CheckReport", "CoweightLattice",
    "ExtendedDiagram", "FundamentalGroup", "FundamentalGroupElement", "GroupSpec",
    "H1Result", "InternalCheckError", "KacLabeling", "LabelingError", "LabelingOrbit",
    "RootsResult", "SimpleType", "SpecError", "TorusPoint", "all_intermediate_specs",
    "build_coweight_lattice", "cartan_data", "cohomology", "compact_labeling",
    "cross_check", "diagram", "dual_subgroup", "enumerate_Kn", "enumerate_center",
    "enumerate_roots_of_z", "exactalg", "filter_for_central", "filter_matching_q",
    "format_labeling", "fundamental_group", "h1_adjoint", "h1_inner_form", "labelings",
    "lattice", "load_spec", "nth_root_classes", "oracle", "orbit_decompose",
    "parse_labeling", "phi", "preset_spec", "real_form_table", "render_diagram",
    "rootdata", "validate_spec", "weyl_orbit_count", "z_from_q",
}

# Module-level references, by the package module that held them.
MOVED = {
    "rootdata": (
        "WeylElement", "reflection_matrix", "fundamental_coweight", "longest_element",
        "reflect_root", "all_roots", "positive_roots", "highest_root",
    ),
    "diagram": ("sigma_geometric", "permuted_labels"),
    "labelings": ("labeling_weight", "act_on_labeling"),
    "lattice": ("pairing",),
    "exactalg": ("mat_mul", "vec_add", "identity"),
}
# Functions of a lattice here that CoweightLattice defines no method for.
MOVED_METHODS = ("contains", "canonical_point", "index_over_coroots")


def _defined(tree) -> set:
    """Names a module defines at its top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def test_public_names():
    assert set(kacoh.__all__) == PUBLIC


def test_references_live_in_the_tests():
    moved = {name for names in MOVED.values() for name in names}
    package = Path(kacoh.__file__).parent
    sources = sorted(package.glob("*.py"))
    assert {p.stem for p in sources} >= set(MOVED) | {"oracle"}
    for path in sources:
        tree = ast.parse(path.read_text())
        assert not _defined(tree) & moved, path.name
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and node.name == "CoweightLattice":
                assert not _defined(node) & set(MOVED_METHODS), path.name
    for name in moved | set(MOVED_METHODS):
        assert callable(getattr(references, name)), name
