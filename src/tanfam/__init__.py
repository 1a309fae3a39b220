"""Tangential families: exact jet calculus, singularity classification of the
associated Legendrian graphs, and numerical envelope geometry.

The package splits into an exact layer and a floating-point layer.  The
exact layer (jets, linalg, tangent, families) works over the rationals:
truncated polynomial arithmetic, fraction-free row reduction, tangent
spaces to equivalence orbits, and the classifier that sorts a family germ
into its singularity class.  The floating-point layer (geometry, emit)
rasterizes envelopes and criminants on a grid, counts cusps, and writes
SVG/OBJ artifacts.  The cli module exposes both through subcommands.

Importing the package loads the exact layer only.  ``tanfam.geometry``
and ``tanfam.emit`` are registered as lazy modules: their bodies, and
numpy with them, run on the first attribute access, whether through the
module or through a float-layer name on the package.  A name of
``__all__`` that the package has not imported resolves from geometry,
or else from emit; any other name raises AttributeError and loads
nothing.  So code that only classifies or verifies never imports numpy.
``tanfam.selfcheck`` is lazy in the same way, so only the self-check
suites load it.
"""

import importlib.util
import sys
from types import ModuleType

from tanfam.jets import (
    DEFAULT_CAP,
    MODE_BEAKS,
    MODE_VERSAL,
    SOURCE_VARS,
    TARGET_VARS,
    MapGerm,
    TruncatedPoly,
    compose,
    grlex_key,
    monomial_basis,
)
from tanfam.families import (
    BranchIndex,
    FamilyGerm,
    FamilyInvariants,
    NotTangentialError,
    SingularityLabel,
    classify,
    double_umbrella_form,
    extract_invariants,
    family_from_invariants,
    family_from_mapping,
    fold_form,
    invariant_a,
    legendrian_parameterization,
    probe_branch_index,
)
from tanfam.tangent import (
    BlockCheck,
    KIND_FIBERED,
    KIND_FULL,
    TangentSpaceBasis,
    build_extended_tangent_space,
    build_reduced_tangent_space,
    contains_ideal_block,
    jet_sufficiency_step,
    miniversality_check,
)


def _lazy_module(name: str) -> ModuleType:
    """Register a submodule whose body runs on its first attribute access."""
    spec = importlib.util.find_spec(name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module


# The float layer (and numpy with it) and the self-check suites load when
# one of their names is first used, so the exact commands never import
# numpy or run selfcheck's body.
geometry = _lazy_module("tanfam.geometry")
emit = _lazy_module("tanfam.emit")
selfcheck = _lazy_module("tanfam.selfcheck")


def __getattr__(name: str):
    """A float-layer name of __all__, taken from geometry or else from emit;
    any other name loads nothing."""
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(geometry if hasattr(geometry, name) else emit, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


__version__ = "0.1.0"

__all__ = [
    "DEFAULT_CAP",
    "KIND_FIBERED",
    "KIND_FULL",
    "MODE_BEAKS",
    "MODE_VERSAL",
    "SOURCE_VARS",
    "TARGET_VARS",
    "BlockCheck",
    "BranchIndex",
    "DeformationParams",
    "FamilyGerm",
    "FamilyInvariants",
    "GridSpec",
    "LiftedSurface",
    "MapGerm",
    "NotTangentialError",
    "PlanarMap",
    "PlaneCurveSet",
    "SingularityLabel",
    "SweepFrame",
    "TangentSpaceBasis",
    "TruncatedPoly",
    "analyze_deformation",
    "apply_deformation",
    "build_extended_tangent_space",
    "build_reduced_tangent_space",
    "classify",
    "compose",
    "contains_ideal_block",
    "count_cusps",
    "default_sweep_lambdas",
    "deformation_sweep",
    "double_umbrella_form",
    "emit_obj",
    "emit_svg",
    "emit_sweep",
    "envelope_curves",
    "extract_invariants",
    "family_from_invariants",
    "family_from_mapping",
    "fit_cubic_coefficient",
    "fold_form",
    "grlex_key",
    "invariant_a",
    "jacobian_det",
    "jet_sufficiency_step",
    "legendrian_lift",
    "legendrian_parameterization",
    "miniversality_check",
    "monomial_basis",
    "probe_branch_index",
    "trace_criminant",
]
