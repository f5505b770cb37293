"""The package surface: each public name is declared once, in its module's
``__all__``, ``linkclust`` re-exports exactly those names, ``deciders``
imports only public names from ``hypergraph``, and only ``errors`` spells
out the integer rule."""

import ast
import importlib
import types
from pathlib import Path

import linkclust
from linkclust import formats

PUBLIC = [
    "CATALOG_NAMES",
    "DecideStats",
    "DeciderConfig",
    "Decision",
    "DuplicateEdge",
    "Hypergraph",
    "IndexOutOfRange",
    "InvalidInput",
    "InvalidVertex",
    "LinkclustError",
    "MinimalityReport",
    "NumericFailure",
    "OptConfig",
    "OptReport",
    "OracleTimeout",
    "ParseError",
    "Partition",
    "Pattern",
    "PatternNotMinimal",
    "PatternNotRigid",
    "PeelResult",
    "RigidityReport",
    "SCENARIOS",
    "Seed",
    "SimplexPoint",
    "Verdict",
    "__version__",
    "balanced_sizes",
    "bench",
    "build_report",
    "catalog",
    "clique_avg_decide",
    "contiguous_classes",
    "decide_hom_minimal",
    "decide_k_colorable",
    "decide_shom_rigid",
    "delete_random_edges",
    "embed_min_decide",
    "find_embedding",
    "find_homomorphism",
    "hamming_clustering",
    "has_twins",
    "is_minimal",
    "join_construction",
    "lagrange_eval",
    "lagrange_grad",
    "lagrangian",
    "lagrangian_grid",
    "parse_hypergraph",
    "parse_pattern",
    "pattern_blowup",
    "peel",
    "phi",
    "phi_grid",
    "plant_violation",
    "rigidity_report",
    "rng_from_seed",
    "serialize_hypergraph",
    "serialize_pattern",
    "turan_classes",
    "turan_graph",
    "turan_number",
]

MODULES = (
    "bench",
    "corpus",
    "deciders",
    "errors",
    "formats",
    "hypergraph",
    "lagrangian",
    "oracles",
    "patterns",
)


def test_the_package_exports_the_pinned_names():
    assert sorted(linkclust.__all__) == PUBLIC
    assert len(set(linkclust.__all__)) == len(linkclust.__all__)


def test_a_wildcard_import_binds_exactly_the_exported_names():
    namespace = {}
    exec("from linkclust import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == PUBLIC
    for name, value in namespace.items():
        assert value is getattr(linkclust, name)


def test_the_public_attributes_are_the_exported_names():
    public = {
        name
        for name, value in vars(linkclust).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(public | {"__version__"}) == PUBLIC


def test_names_shared_with_a_submodule_are_the_functions():
    assert isinstance(linkclust.lagrangian, types.FunctionType)
    assert isinstance(linkclust.bench, types.FunctionType)
    assert linkclust.__version__ == formats.TOOL_VERSION


def test_no_name_is_declared_by_two_modules():
    # a later wildcard import would shadow the earlier module's name silently
    owner = {}
    for module_name in MODULES:
        module = importlib.import_module(f"linkclust.{module_name}")
        for name in module.__all__:
            assert name not in owner, f"{name} in {owner.get(name)} and {module_name}"
            assert hasattr(module, name), f"{module_name}.__all__ lists missing {name}"
            owner[name] = module_name
    assert sorted(owner) == [name for name in PUBLIC if name != "__version__"]


def test_the_deciders_read_no_private_hypergraph_names():
    # the link-row layout and the code format stay behind Hypergraph's queries
    tree = ast.parse(Path(importlib.import_module("linkclust.deciders").__file__).read_text())
    imported = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.module == "linkclust.hypergraph" or (node.level and node.module == "hypergraph"))
        for alias in node.names
    ]
    assert sorted(imported) == ["Hypergraph", "Partition"]


def test_only_errors_tests_for_a_numpy_integer():
    # every other module applies the integer rule through errors._integer,
    # errors._integers or errors._is_integer
    package = Path(linkclust.__file__).parent
    spelled = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance"
                and len(node.args) == 2
                and any(
                    isinstance(sub, ast.Attribute) and sub.attr == "integer"
                    for sub in ast.walk(node.args[1])
                )
            ):
                spelled.append(f"{path.name}:{node.lineno}")
    assert spelled and all(at.startswith("errors.py:") for at in spelled), spelled
