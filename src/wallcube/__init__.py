"""wallcube: finite wallspaces, dual cube complexes, and their diagnostics."""

from .complex import (
    Cube,
    CubeComplex,
    build_dual,
    canonical_cube,
    contract_loop,
    cube_distance,
    enumerate_all_orientations,
    maximal_cubes,
    verify_npc,
)
from .hemi import (
    Hemiwallspace,
    InducedVariant,
    dual_sub,
    induce_hemi,
    is_convex,
)
from .metric import Metric
from .wallspace import (
    Wall,
    Wallspace,
    max_transverse_families,
    separation_count,
    validate,
)

__version__ = "0.1.0"
