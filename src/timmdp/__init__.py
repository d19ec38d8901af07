"""Exact solvers for transition-independent multi-agent MDPs.

Builds per-agent conditional return graphs over a reward partition, derives
admissible return bounds from them and runs a decoupling branch-and-bound
policy search, verified against a plain dynamic-programming oracle. Ships
benchmark generators, stable file formats and a batch CLI.

The top level exports the names of the README's library sketch; everything
else is imported from its module (``timmdp.crg``, ``timmdp.search``, ...).
"""

from .baselines import dp_solve
from .crg import build_crgs
from .domains import GeneratorParams, compile_mpp, gen_random_mpp
from .search import core_solve

__version__ = "0.1.0"
