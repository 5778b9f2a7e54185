"""Size-biased Bayesian estimation of eventual bug sizes from phase-wise
testing logs, a predictive density for the next phase's total, and the
stop-testing decision rule.

The public names below are loaded lazily (PEP 562): `import bugsize`
imports no submodule, and `bugsize.run_chain`, `from bugsize import
run_chain` or `bugsize.sampler` imports only the submodule that defines
the name.  Each CLI command thus loads only what it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "baseline": (
        "BaselineState",
        "ComparisonConfig",
        "ComparisonReport",
        "PhaseDetection",
        "baseline_stopping_phase",
        "baseline_update",
        "compare_models",
        "initial_state",
        "posterior_remaining",
    ),
    "decision": ("StopDecision", "decide_stop"),
    "ingest": (
        "PhaseSummary",
        "TestLogRecord",
        "parse_input_log",
        "parse_test_log",
        "summarize_phases",
    ),
    "model": (
        "ChainState",
        "HyperConfig",
        "Hyperparams",
        "build_hyperparams",
        "flat_hyperparams",
        "log_likelihood",
        "log_posterior_S_kernel",
        "sample_hyper",
        "sample_n_trials",
        "solve_beta_hyper",
    ),
    "predictor": (
        "KdeConfig",
        "PhaseEvent",
        "Prediction",
        "events_from_totals",
        "kde_density",
        "predict_next_total",
        "select_bandwidth",
        "temporal_weights",
    ),
    "sampler": (
        "PosteriorSummary",
        "SamplerConfig",
        "diagnostics",
        "gibbs_update_p",
        "gibbs_update_t",
        "mh_update_S",
        "run_chain",
    ),
    "simulator": (
        "DiscretePmf",
        "GroundTruth",
        "ScenarioConfig",
        "TestLog",
        "default_scenario",
        "generate",
        "size_biased_pmf",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _EXPORTS:
        # a submodule, which the import binds as a package attribute
        return import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted([*globals(), *__all__])
