"""Deciders for dense uniform hypergraphs via link-distance clustering.

The library decides freeness and (surjective) pattern colorability of dense
r-uniform hypergraphs by clustering vertices with similar links, computes
the simplex optimization quantities that calibrate those deciders, generates
reproducible instance corpora, and cross-checks everything against built-in
exhaustive oracles.

A name is public when its module lists it in ``__all__``: the package
re-exports exactly those names, plus ``__version__``.  Names a module leaves
out of its ``__all__`` stay importable from that module.

The ``linkclust`` logger is silent unless the application configures
logging; at DEBUG the optimizer reports one record per run.
"""

import logging

# Bound before the wildcard imports, which rebind ``bench`` and
# ``lagrangian`` to the functions of those names.
from . import bench as _bench, corpus as _corpus, deciders as _deciders
from . import errors as _errors, formats as _formats, hypergraph as _hypergraph
from . import lagrangian as _lagrangian, oracles as _oracles, patterns as _patterns
from .bench import *
from .corpus import *
from .deciders import *
from .errors import *
from .formats import *
from .formats import TOOL_VERSION as __version__
from .hypergraph import *
from .lagrangian import *
from .oracles import *
from .patterns import *

logging.getLogger(__name__).addHandler(logging.NullHandler())

_MODULES = (
    _bench, _corpus, _deciders, _errors, _formats, _hypergraph, _lagrangian, _oracles, _patterns
)
__all__ = ["__version__", *(name for module in _MODULES for name in module.__all__)]
