"""Rank-budgeted tensor completion by greedy rank pursuit, with an edge-caching pipeline.

The package exports the names of the documented library example; everything
else is imported from its submodule (``tenscache.caching``,
``tenscache.completion``, ``tenscache.ingest``, ``tenscache.prediction``,
``tenscache.svd``, ``tenscache.tensors``).
"""

__version__ = "0.1.0"

from .completion import FwConfig, complete
from .ingest import synth_low_rank

__all__ = ["FwConfig", "complete", "synth_low_rank"]
