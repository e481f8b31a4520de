"""wallcube: finite wallspaces, dual cube complexes, and their diagnostics."""

from .complex import (
    Cube,
    CubeComplex,
    build_dual,
    canonical_cube,
    contract_loop,
    cube_distance,
    cube_from_family,
    enumerate_all_orientations,
    flippable,
    is_zero_cube,
    maximal_cubes,
    path_to_canonical,
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
    betwixt_set,
    from_geometric_walls,
    max_transverse_families,
    osculate,
    separation_count,
    subwallspace,
    transverse,
    validate,
    wall_separates_walls,
)

__version__ = "0.1.0"
