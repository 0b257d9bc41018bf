"""Simulation composition and experiment runners."""

from repro.simulator.runner import TechniqueComparison, compare_techniques
from repro.simulator.sampling import (SampledResult, SampleIntervalJob,
                                      SampleIntervalResult, functional_pass,
                                      sample_workload, simulate_sampled)
from repro.simulator.simulation import (ALL_TECHNIQUES, SimulationResult,
                                        Simulator, TECHNIQUES, simulate)
from repro.simulator.snapshot import SimSnapshot

__all__ = ["TechniqueComparison", "compare_techniques", "ALL_TECHNIQUES",
           "SimulationResult", "Simulator", "TECHNIQUES", "simulate",
           "SampledResult", "SampleIntervalJob", "SampleIntervalResult",
           "SimSnapshot", "functional_pass", "sample_workload",
           "simulate_sampled"]
