"""BSP substrate: machine parameters, superstep engine and cost
accounting."""

from repro.bsp.cost import BspCost, SuperstepCost
from repro.bsp.machine import BspMachine
from repro.bsp.network import (
    HRelation,
    h_relation_of_matrix,
    h_relation_of_messages,
    one_relation,
)
from repro.bsp.params import PREDEFINED, BspParams

__all__ = [
    "BspCost",
    "BspMachine",
    "BspParams",
    "HRelation",
    "PREDEFINED",
    "SuperstepCost",
    "h_relation_of_matrix",
    "h_relation_of_messages",
    "one_relation",
]
