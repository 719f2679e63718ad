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

from repro._lazy import lazy_exports

# Each name imports its module on first access (see repro._lazy).
__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "compile": ["CRN_MODES", "CompiledCRN", "CRNProtocol", "compile_crn"],
    "library": [
        "CRN_WORKLOADS",
        "NetworkWorkload",
        "get_crn_workload",
        "register_crn_workload",
    ],
    "model": ["CRN", "Reaction", "parse_reaction", "parse_reactions"],
    "ssa": ["SSAResult", "simulate_ssa"],
})
