"""Synthetic scenario lab: data-generating processes, exact population
limits, instrumented estimators, and the Monte Carlo driver."""

from ..estimators import oracle_fit
from .dgp import (
    CompositionConfig,
    ScenarioConfig,
    SimulatedData,
    composition_att,
    composition_event_prob,
    simulate,
    simulate_composition,
    simulate_did,
    simulate_iv,
    stream_rng,
)
from .montecarlo import (
    ESTIMATOR_TAGS,
    McSummary,
    default_spec,
    run_monte_carlo,
    run_replications,
    selection_bound_audit,
    summarize_draws,
    true_coefficients,
)
from .plim import (
    composition_truth,
    did_gmm_scenario,
    did_selection_scenario,
    iv_pooled_tsls_bias,
)
from .presets import ScenarioPreset, available_presets, load_preset
from .tsls import tsls_group, tsls_pooled, tsls_pooled_arrays

__all__ = [
    "CompositionConfig",
    "ScenarioConfig",
    "SimulatedData",
    "ScenarioPreset",
    "McSummary",
    "ESTIMATOR_TAGS",
    "available_presets",
    "composition_att",
    "composition_event_prob",
    "composition_truth",
    "default_spec",
    "did_gmm_scenario",
    "did_selection_scenario",
    "iv_pooled_tsls_bias",
    "load_preset",
    "oracle_fit",
    "run_monte_carlo",
    "run_replications",
    "selection_bound_audit",
    "simulate",
    "simulate_composition",
    "simulate_did",
    "simulate_iv",
    "stream_rng",
    "summarize_draws",
    "true_coefficients",
    "tsls_group",
    "tsls_pooled",
    "tsls_pooled_arrays",
]
