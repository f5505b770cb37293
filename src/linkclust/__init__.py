"""Deciders for dense uniform hypergraphs via link-distance clustering.

The library decides freeness and (surjective) pattern colorability of dense
r-uniform hypergraphs by clustering vertices with similar links, computes
the simplex optimization quantities that calibrate those deciders, generates
reproducible instance corpora, and cross-checks everything against built-in
exhaustive oracles.

The ``linkclust`` logger is silent unless the application configures
logging; at DEBUG the optimizer reports one record per run.
"""

import logging

from .bench import SCENARIOS, bench
from .corpus import (
    CATALOG_NAMES,
    Seed,
    balanced_sizes,
    catalog,
    contiguous_classes,
    delete_random_edges,
    join_construction,
    pattern_blowup,
    plant_violation,
    rng_from_seed,
    turan_classes,
    turan_graph,
)
from .deciders import (
    DecideStats,
    Decision,
    DeciderConfig,
    PeelResult,
    Verdict,
    clique_avg_decide,
    decide_hom_minimal,
    decide_k_colorable,
    decide_shom_rigid,
    embed_min_decide,
    hamming_clustering,
    peel,
)
from .errors import (
    DuplicateEdge,
    IndexOutOfRange,
    InvalidInput,
    InvalidVertex,
    LinkclustError,
    NumericFailure,
    OracleTimeout,
    ParseError,
    PatternNotMinimal,
    PatternNotRigid,
)
from .formats import (
    TOOL_VERSION as __version__,
    build_report,
    parse_hypergraph,
    parse_pattern,
    serialize_hypergraph,
    serialize_pattern,
)
from .hypergraph import Hypergraph, Partition
from .lagrangian import (
    MinimalityReport,
    OptConfig,
    OptReport,
    RigidityReport,
    is_minimal,
    lagrangian,
    phi,
    rigidity_report,
)
from .oracles import (
    find_embedding,
    find_homomorphism,
    lagrangian_grid,
    phi_grid,
    turan_number,
)
from .patterns import (
    Pattern,
    SimplexPoint,
    has_twins,
    lagrange_eval,
    lagrange_grad,
)

logging.getLogger(__name__).addHandler(logging.NullHandler())

__all__ = [
    "__version__",
    # hypergraph core
    "Hypergraph",
    "Partition",
    # patterns and numerics
    "Pattern",
    "SimplexPoint",
    "lagrange_eval",
    "lagrange_grad",
    "has_twins",
    "OptConfig",
    "OptReport",
    "MinimalityReport",
    "RigidityReport",
    "lagrangian",
    "phi",
    "is_minimal",
    "rigidity_report",
    # deciders
    "Verdict",
    "Decision",
    "DecideStats",
    "DeciderConfig",
    "PeelResult",
    "hamming_clustering",
    "decide_k_colorable",
    "decide_hom_minimal",
    "decide_shom_rigid",
    "embed_min_decide",
    "peel",
    "clique_avg_decide",
    # oracles
    "find_embedding",
    "find_homomorphism",
    "turan_number",
    "lagrangian_grid",
    "phi_grid",
    # corpus
    "Seed",
    "rng_from_seed",
    "turan_graph",
    "turan_classes",
    "balanced_sizes",
    "contiguous_classes",
    "pattern_blowup",
    "delete_random_edges",
    "plant_violation",
    "join_construction",
    "catalog",
    "CATALOG_NAMES",
    # formats
    "parse_hypergraph",
    "serialize_hypergraph",
    "parse_pattern",
    "serialize_pattern",
    "build_report",
    # bench
    "bench",
    "SCENARIOS",
    # errors
    "LinkclustError",
    "InvalidInput",
    "InvalidVertex",
    "ParseError",
    "DuplicateEdge",
    "IndexOutOfRange",
    "NumericFailure",
    "PatternNotMinimal",
    "PatternNotRigid",
    "OracleTimeout",
]
