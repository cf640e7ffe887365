"""Solver and verification lab for congestion-constrained optimal-exit
mean field games on discretized metric domains."""

from .domain import (ExitCost, GraphDomain, Grid2dDomain, IntervalDomain,
                     validate_hypotheses)
from .congestion import Chi, CongestionKernel, Eta, Kappa
from .measures import ParticleMeasure, TrajectoryEnsemble, wasserstein
from .ocp import (SpeedField, ValueField, check_dpp, horizon_bound, solve_value,
                  trajectory_bound)
from .equilibrium import (EquilibriumConfig, EquilibriumReport, exploitability,
                          solve_equilibrium)
from .asymptotics import (ConvergenceCurve, RateFit, convergence_curve,
                          fit_decay_rate, limit_measure, settling_time,
                          theorem_bound)
from .scenarios import load_scenario, scenario_registry
from . import runner

__version__ = "0.1.0"

__all__ = [
    "ExitCost", "GraphDomain", "Grid2dDomain", "IntervalDomain",
    "validate_hypotheses", "Chi", "CongestionKernel", "Eta", "Kappa",
    "ParticleMeasure", "TrajectoryEnsemble", "wasserstein",
    "SpeedField", "ValueField", "check_dpp", "horizon_bound", "solve_value",
    "trajectory_bound",
    "EquilibriumConfig", "EquilibriumReport",
    "exploitability", "solve_equilibrium",
    "ConvergenceCurve", "RateFit", "convergence_curve", "fit_decay_rate",
    "limit_measure", "settling_time", "theorem_bound",
    "load_scenario", "scenario_registry", "runner",
]
