"""Declarative CRN front-end: reaction networks compiled onto every engine.

Specify a protocol as a chemical reaction network in three lines, compile
it, and run it on any engine::

    from repro.crn import CRN, compile_crn

    crn = CRN.from_spec(["L + L -> L + F"], name="leader", fractions={"L": 1.0})
    engine = compile_crn(crn).build("batched", 1_000_000, seed=0)
    engine.run_until(lambda sim: sim.count("L") == 1, max_parallel_time=4e6)

See :mod:`repro.crn.model` for the mass-action semantics,
:mod:`repro.crn.compile` for the two lowering modes (exact-time ``uniform``
and jump-chain ``thinned``), :mod:`repro.crn.ssa` for the exact Gillespie
reference, and :mod:`repro.crn.library` for the shipped networks
(``CRN_WORKLOADS``).
"""

from repro.crn.compile import CRN_MODES, CompiledCRN, CRNProtocol, compile_crn
from repro.crn.library import (
    CRN_WORKLOADS,
    NetworkWorkload,
    get_crn_workload,
    register_crn_workload,
)
from repro.crn.model import CRN, Reaction, parse_reaction, parse_reactions
from repro.crn.ssa import SSAResult, simulate_ssa

__all__ = [
    "CRN",
    "CRN_MODES",
    "CRN_WORKLOADS",
    "CRNProtocol",
    "CompiledCRN",
    "NetworkWorkload",
    "Reaction",
    "SSAResult",
    "compile_crn",
    "get_crn_workload",
    "parse_reaction",
    "parse_reactions",
    "register_crn_workload",
    "simulate_ssa",
]
