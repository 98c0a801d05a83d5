"""Exact combinatorics of geodesics in hypercube subgraphs.

Subgraphs of Q_n with bitmask vertices, the direction-sweep table of
longest increasing geodesics, set-family compression and shadows,
antipodal edge colourings, and a seeded verification harness with a CLI
(``cubegeo``).
"""

from .core import (
    CubeSubgraph,
    antipode,
    average_degree,
    induced_subgraph,
    make_subgraph,
    max_hamming_pair,
)
from .geodesics import (
    DirectionOrdering,
    GeodesicPath,
    IncreasingGeodesic,
    LTable,
    count_increasing_geodesics,
    enumerate_geodesics_of_length,
    extract_increasing_geodesic,
    greedy_geodesic,
    increasing_geodesic_table,
    longest_geodesic_lower_bound,
    random_ordering,
)
from .setfamilies import (
    SetFamily,
    UniformFamily,
    compress_element,
    feder_subi_intersecting_check,
    full_compress,
    is_downset,
    is_t_intersecting,
    iterated_shadow,
    level_profile,
    shadow,
)
from .colourings import (
    AntipodalWitness,
    EdgeColouring,
    derive_A_from_B,
    derive_B_from_A,
    find_monochromatic_antipodal_geodesic,
    find_monochromatic_antipodal_path,
    find_one_change_antipodal_geodesic,
    is_antipodal,
    lift_to_antipodal,
    min_colour_changes_antipodal,
    monochromatic_half_geodesic,
    random_antipodal_colouring,
    random_colouring,
    validate_witness,
)
from .rng import SplitMix64, derive

__version__ = "0.1.0"
