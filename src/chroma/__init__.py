"""Properly colored subgraph toolkit for edge-colored graphs.

Data model and metrics live in chroma.core; transforms between oriented and
edge-colored graphs in chroma.transforms; the saturation extraction and
orientation construction in chroma.extraction; bounded-exhaustive search
oracles in chroma.detectors; search-free checks of witnesses and
orientations in chroma.check; instance generators in chroma.constructions;
text formats in chroma.formats; verification suites in chroma.suites.
"""

from .core import (
    ColoredOrientation,
    EdgeColoredGraph,
    OrientedGraph,
    Witness,
    color_degree,
    color_set,
    is_properly_colored,
    is_rainbow,
    min_color_degree,
    mono_degree,
    mono_degree_max,
    total_color_degree,
)
from .transforms import blow_up, dual_graph, relabel, signature
from .extraction import (
    ExtractionResult,
    construct_orientation,
    construct_orientation_bipartite,
    default_x,
    saturation_extract,
    sigma,
)
from .detectors import (
    BUDGET_EXCEEDED,
    EXHAUSTED,
    FOUND,
    SearchBudget,
    SearchOutcome,
    check_total_degree_threshold,
    disjoint_pc_cycles,
    extract_rainbow_kst,
    find_pc_cycle_upto,
    find_pc_kst,
    find_rainbow_c4,
    find_rainbow_kst,
    pc_short_cycle_pipeline,
    shortest_directed_cycle,
)
from .check import verify_orientation, verify_witness
from .constructions import (
    RecolorError,
    RecolorParams,
    blowup_cycle_signature,
    circulant_tournament,
    directed_cycle,
    extremal_no_pc_c4,
    extremal_no_rainbow_c4_trianglefree,
    random_bipartite_edge_colored,
    random_edge_colored_graph,
    random_oriented_graph,
    random_proper_complete_bipartite,
    recolored_tournament,
    transitive_tournament,
    verify_recolored,
)
from .suites import SuiteReport, analyze, run_suite

__version__ = "0.1.0"
