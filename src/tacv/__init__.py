"""tacv: timed-automata verification of Bitcoin contracts.

Networks of timed automata explore a symbolic block-chain world; safety
properties of the form `A[] <expr>` are checked with zone-based
reachability, with an independent discrete-time explorer available for
cross-checking on reduced constants.
"""

__version__ = "0.1.0"

from .zones import Zone
from .world import WorldConstants
from .kernel import VerificationResult, explore
from .oracle import explore_discrete
from .contracts import build_cs_model, build_newscs_model, instantiate
from .queries import parse_query, parse_query_file
from .modelio import load_model

__all__ = [
    "Zone",
    "WorldConstants",
    "VerificationResult",
    "explore",
    "explore_discrete",
    "build_cs_model",
    "build_newscs_model",
    "instantiate",
    "parse_query",
    "parse_query_file",
    "load_model",
    "__version__",
]
