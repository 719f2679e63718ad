"""Reproduction of Doty & Eftekhari, "Efficient Size Estimation and
Impossibility of Termination in Uniform Dense Population Protocols" (PODC 2019).

The package provides:

* a population-protocol simulation substrate (:mod:`repro.engine`,
  :mod:`repro.protocols`, :mod:`repro.rng`),
* the paper's main contribution — the uniform leaderless
  ``Log-Size-Estimation`` protocol — and its variants (:mod:`repro.core`),
* the Section 4 termination theory made executable (:mod:`repro.termination`),
* the probability-theory substrate of the appendices (:mod:`repro.analysis`),
* the harness that regenerates the paper's Figure 2 and the theorem-level
  tables, and the size lists its sweeps read (:mod:`repro.harness`,
  :mod:`repro.workloads`),
* a command-line interface (:mod:`repro.cli`).

Quickstart
----------
>>> from repro import LogSizeEstimationProtocol, ProtocolParameters, Simulation
>>> from repro.core import all_agents_done
>>> protocol = LogSizeEstimationProtocol(ProtocolParameters.fast_test())
>>> simulation = Simulation(protocol, population_size=64, seed=1)
>>> _ = simulation.run_until(all_agents_done, max_parallel_time=5000)
>>> outputs = simulation.outputs()   # per-agent estimates of log2(64) = 6
"""

from repro._lazy import lazy_exports

# Each name imports its module on first access (see repro._lazy).
__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "_version": ["__version__"],
    "core.leader_terminating": ["LeaderTerminatingSizeEstimation"],
    "core.log_size_estimation": ["LogSizeEstimationProtocol"],
    "core.parameters": ["ProtocolParameters"],
    "core.probability_one": ["ProbabilityOneUpperBoundProtocol"],
    "core.synthetic_coin": ["SyntheticCoinLogSizeEstimation"],
    "engine.count_simulator": ["CountSimulator"],
    "engine.simulator": ["Simulation"],
    "exceptions": ["ReproError"],
    "harness.figures": ["reproduce_figure2"],
    "rng": ["RandomSource"],
})
