"""The package's records: validated NamedTuples keep their messages and
refuse assignment, and the places that build one record from another
validate the new one."""

import re

import pytest

from bugsize import ingest, simulator
from bugsize.baseline import BaselineState, PhaseDetection, compare_models
from bugsize.ingest import PhaseSummary
from bugsize.model import HyperConfig, flat_hyperparams, resolve_for_data
from bugsize.predictor import KdeConfig, PhaseEvent
from bugsize.sampler import SamplerConfig
from bugsize.simulator import ScenarioConfig, default_scenario, generate, oracle_hyperparams

SCENARIO = dict(
    phases=2, bugs_per_phase=(3, 3), n_trials_range=(6, 14), t_range=(0.35, 0.85),
    p_true=(0.7, 0.7), seed=0,
)

# (record, valid keyword arguments, one invalid override, its message)
CASES = [
    (ingest.TestLogRecord, dict(cycle=1, defect_header=0, defect_id=7, size=3), dict(cycle=0),
     "cycle must be >= 1, got 0"),
    (PhaseSummary, dict(phase=1, runs_cumulative=4, sizes_by_defect={7: 3}), dict(sizes_by_defect={7: -1}),
     "negative size for defect 7"),
    (HyperConfig, dict(hyper_seed=3), dict(hyper_seed=-1),
     "config 'hyper_seed' must be a non-negative integer, got -1"),
    (SamplerConfig, dict(chains=2, iterations=20, burn_in=5), dict(burn_in=20),
     "burn_in must satisfy 0 <= burn_in < iterations"),
    (PhaseEvent, dict(phase=2, total_size=5.0, window_start=1.0, window_end=2.0), dict(window_end=1.0),
     "phase 2: window [1.0, 1.0] is empty"),
    (KdeConfig, dict(bandwidth=2.0), dict(bandwidth="wide"),
     "bandwidth must be a positive number or 'auto'"),
    (ScenarioConfig, SCENARIO, dict(t_range=(0.35,)),
     "t_range must list two values, low and high"),
    (PhaseDetection, dict(counts=(1, 2), q_detect=(0.2, 0.3), q_none=0.5), dict(q_none=0.4),
     "q_none plus class detection probabilities must sum to 1"),
    (BaselineState, dict(n_total=5, p=0.4, q=0.6, detected_cum=2, phase=1), dict(detected_cum=6),
     "detected_cum must lie in [0, n_total]"),
]


@pytest.mark.parametrize("record, valid, invalid, message", CASES, ids=[c[0].__name__ for c in CASES])
def test_validated_record(record, valid, invalid, message):
    value = record(**valid)
    assert value._asdict() == {**dict.fromkeys(record._fields), **record._field_defaults, **valid}
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        record(**{**valid, **invalid})
    # frozen: a field cannot be assigned
    name = next(iter(invalid))
    with pytest.raises(AttributeError):
        setattr(value, name, invalid[name])
    assert getattr(value, name) == valid[name]


def test_resolve_for_data_validates_the_resolved_hyperparameters():
    # Hyperparams is mutable, so its phase parameters can go bad after it is
    # built; the resolved copy is built anew and checks them again
    data = [PhaseSummary(1, 5, {1: 3})]
    hyper = flat_hyperparams(1)
    resolved = resolve_for_data(hyper, data)
    assert resolved is not hyper
    assert (resolved.a, resolved.b, resolved.m_weights) == ([[1.0]], [[1.0]], [[[3, 6, 9, 12]]])
    hyper.alpha_hat = [0.0]
    with pytest.raises(ValueError, match="^alpha_hat and beta_hat must be positive$"):
        resolve_for_data(hyper, data)


def test_oracle_hyperparams_validates_its_hyperparameters(monkeypatch):
    # the oracle's record is built anew from the flat priors, not altered
    _, truth = generate(default_scenario(3))

    def bad_flat(num_phases):
        hyper = flat_hyperparams(num_phases)
        hyper.beta_hat[0] = -1.0
        return hyper

    monkeypatch.setattr(simulator, "flat_hyperparams", bad_flat)
    with pytest.raises(ValueError, match="^alpha_hat and beta_hat must be positive$"):
        oracle_hyperparams(truth, (0.35, 0.85))


def test_compare_models_validates_each_trial_scenario():
    # `_replace` skips the validation; each trial's scenario, the given one
    # with the trial's seed, is built anew and so refuses the bad value
    bad = default_scenario(0)._replace(phases=0)
    with pytest.raises(ValueError, match="^phases must be >= 1$"):
        compare_models(bad, 1, 0)
