"""Tests of the benchmark itself.  Run with ``python3 -m pytest bench``."""

from __future__ import annotations

import subprocess
import sys
import threading
import types
from pathlib import Path

import numpy as np

import checks
import inputs
import tracer

HERE = Path(__file__).resolve().parent


def test_self_check_runs_every_workload_at_toy_size():
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--self-check"],
        capture_output=True, text=True, timeout=900,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().endswith("self-check passed")


def test_generators_depend_on_the_seed_only():
    for make in (inputs.wide_log, lambda s: inputs.paper_log(s, toy=True)):
        assert make(5) == make(5)
        assert make(5).text != make(6).text


def test_generated_logs_start_feasible():
    """Every phase logs a defect and the observed totals keep each r_k > 0."""
    for seed in range(20):
        for log in (inputs.wide_log(seed), inputs.paper_log(seed, toy=True)):
            totals = [sum(phase.values()) for phase in log.sizes]
            assert all(len(phase) > 0 for phase in log.sizes)
            assert np.all(checks.nb_sizes(totals) > 0)


def test_paper_log_counts_match_its_rows():
    log = inputs.paper_log(4, toy=True)
    rows = [line.split(",") for line in log.text.splitlines()[1:]]
    assert len(rows) == sum(log.runs)
    for phase, sizes in enumerate(log.sizes, start=1):
        ids = [int(d) for c, d in rows if int(c) == phase and d]
        assert {d: ids.count(d) for d in dict.fromkeys(ids)} == sizes


def test_lscv_score_matches_the_direct_formula():
    x = np.random.default_rng(0).normal(size=40)
    h = 0.7
    n = x.size
    d = x[:, None] - x[None, :]
    gauss = lambda u, s: np.exp(-0.5 * (u / s) ** 2) / (s * np.sqrt(2 * np.pi))
    direct = gauss(d, h * np.sqrt(2)).sum() / n**2 - 2 / n * (
        (gauss(d, h).sum() - n * gauss(0.0, h)) / (n - 1)
    )
    assert np.isclose(checks.lscv_score(x, h, block=7), direct, rtol=1e-12)


def test_self_time_subtracts_the_union_of_children():
    # parent 0..100, children 10..40 and 30..60 on two threads overlap
    spans = [
        (1, 0, "a", "x", 1, 0, 100, None),
        (2, 1, "b", "x", 1, 10, 40, None),
        (3, 1, "c", "x", 2, 30, 60, None),
    ]
    assert tracer.self_times(spans) == {1: 50, 2: 30, 3: 30}


def test_pool_thread_spans_hang_under_the_calling_span():
    ns = types.ModuleType("pkg.ns")

    def inner():
        return 1

    def outer():
        worker = threading.Thread(target=ns.inner)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()

    inner.__module__ = outer.__module__ = "pkg.layer"
    ns.inner, ns.outer = inner, outer
    t = tracer.Tracer()
    t.wrap(ns, "inner")
    t.wrap(ns, "outer")
    try:
        ns.outer()
    finally:
        t.remove()
    spans = {s[tracer.NAME]: s for s in t.take()}
    assert spans["ns.inner"][tracer.PARENT] == spans["ns.outer"][tracer.ID]
    assert spans["ns.inner"][tracer.THREAD] != spans["ns.outer"][tracer.THREAD]
    assert spans["ns.inner"][tracer.LAYER] == "layer"
    assert ns.inner is inner and ns.outer is outer
