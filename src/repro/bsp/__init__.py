"""BSP substrate: machine parameters, superstep engine, cost accounting
and pluggable execution backends."""

from repro.bsp.cost import BspCost, SuperstepCost
from repro.bsp.executor import (
    BACKENDS,
    BackendUnavailableError,
    SequentialExecutor,
    ThreadExecutor,
    get_executor,
    shutdown_executors,
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
    "BspCost",
    "BspMachine",
    "BspParams",
    "HRelation",
    "PREDEFINED",
    "SequentialExecutor",
    "SuperstepCost",
    "ThreadExecutor",
    "get_executor",
    "h_relation_of_matrix",
    "h_relation_of_messages",
    "one_relation",
    "shutdown_executors",
]
