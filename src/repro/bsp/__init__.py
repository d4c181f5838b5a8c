"""BSP substrate: machine parameters, superstep engine, cost accounting,
pluggable execution backends, and deterministic fault injection."""

from repro.bsp.cost import BspCost, SuperstepCost
from repro.bsp.executor import (
    BACKENDS,
    SequentialExecutor,
    ThreadExecutor,
    get_executor,
    shutdown_executors,
)
from repro.bsp.faults import (
    FAULT_KINDS,
    BackendUnavailableError,
    BrokenPool,
    BspFaultError,
    FaultPlan,
    FaultSpecError,
    MessageFault,
    ProcOutcome,
    RetryPolicy,
    SuperstepFault,
    TaskTimeout,
    TransientFault,
    WorkerCrash,
    parse_fault_spec,
)
from repro.bsp.machine import BspMachine
from repro.bsp.network import (
    HRelation,
    h_relation_of_matrix,
    h_relation_of_messages,
    one_relation,
)
from repro.bsp.params import PREDEFINED, BspParams

__all__ = [
    "BACKENDS",
    "BackendUnavailableError",
    "BrokenPool",
    "BspCost",
    "BspFaultError",
    "BspMachine",
    "BspParams",
    "FAULT_KINDS",
    "FaultPlan",
    "FaultSpecError",
    "HRelation",
    "MessageFault",
    "PREDEFINED",
    "ProcOutcome",
    "RetryPolicy",
    "SequentialExecutor",
    "SuperstepCost",
    "SuperstepFault",
    "TaskTimeout",
    "ThreadExecutor",
    "TransientFault",
    "WorkerCrash",
    "get_executor",
    "h_relation_of_matrix",
    "h_relation_of_messages",
    "one_relation",
    "parse_fault_spec",
    "shutdown_executors",
]
