"""Exact solvers for transition-independent multi-agent MDPs.

Builds per-agent conditional return graphs over a reward partition, derives
admissible return bounds from them and runs a decoupling branch-and-bound
policy search, verified against a plain dynamic-programming oracle. Ships
benchmark generators, stable file formats and a batch CLI.
"""

from .baselines import (
    DpResult,
    StateSpaceBudgetExceeded,
    dp_solve,
    evaluate_policy,
)
from .crg import (
    ConditionalReturnGraph,
    CrgError,
    InstanceIndex,
    RewardPartition,
    SizeAudit,
    build_crg,
    build_crgs,
    partition_rewards,
    size_audit,
)
from .domains import (
    GeneratorParams,
    MaintenanceTask,
    MppInstance,
    compile_mpp,
    example_two_agent,
    gen_coordint,
    gen_pyra,
    gen_random_mpp,
)
from .formats import (
    FormatError,
    ResultRow,
    export_dot,
    read_instance,
    write_instance,
    write_results,
)
from .model import (
    LocalAction,
    LocalMdp,
    LocalState,
    Policy,
    RewardFunction,
    TiMmdpInstance,
    TimeBudgetExceeded,
    Violation,
    enumerate_successors,
    total_reward,
    validate_instance,
)
from .search import (
    SearchConfig,
    SolveReport,
    core_solve,
)

__version__ = "0.1.0"
