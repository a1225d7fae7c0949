"""Tests of the benchmark's own correctness checks, tracer and metric names."""

import json
import os

import numpy as np
import pytest

import checks
import report
from tracing import Tracer, summarize
from workloads import run_op

HERE = os.path.dirname(os.path.abspath(__file__))
STEP, LEVELS = 0.125, 16


def declared(kind):
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def lattice_run(n=512, seed=0):
    """Undithered-style output on the mid-rise lattice with |q| <= step/2."""
    rng = np.random.default_rng(seed)
    v = rng.uniform(-0.7, 0.7, n)
    y = (np.floor(v / STEP) + 0.5) * STEP
    return y, y - v


def test_power_residual_gate():
    assert checks.power_residual(1e-12) == []
    assert checks.power_residual(-1e-10) == []
    assert checks.power_residual(1e-6)
    assert checks.power_residual(float("nan"))


def test_undithered_gate():
    y, q = lattice_run()
    assert checks.undithered_run(True, y, q, STEP, LEVELS) == []
    off = y.copy()
    off[100] += 1e-3
    assert checks.undithered_run(True, off, q, STEP, LEVELS)
    big = q.copy()
    big[np.argmin(np.abs(y))] = 0.6 * STEP
    assert checks.undithered_run(True, y, big, STEP, LEVELS)
    assert checks.undithered_run(False, y, q, STEP, LEVELS)


def test_dithered_gate():
    assert checks.dithered_run(True, 2.0) == []
    assert checks.dithered_run(True, 3.5)
    assert checks.dithered_run(True, float("nan"))
    assert checks.dithered_run(False, 1.0)


def test_numerical_and_equal_power_gates():
    assert checks.numerical_shaping(True, 0.1) == []
    assert checks.numerical_shaping(False, 0.1)
    assert checks.numerical_shaping(True, 0.6)
    sq = np.linspace(1.0, 2.0, 8)
    assert checks.equal_power_plan([1.0, 1.0], sq, sq) == []
    assert checks.equal_power_plan([1.0, 1.0 + 1e-5], sq, sq)
    assert checks.equal_power_plan([1.0, 1.0], sq * (1 + 1e-8), sq)


def test_ntf_gate():
    zeros = np.array([0.99 * np.exp(0.1j), 0.99 * np.exp(-0.1j)])
    poles = np.array([0.5 * np.exp(0.3j), 0.5 * np.exp(-0.3j)])
    assert checks.ntf_design(zeros, poles, 1.0, 2.0, 2.0) == []
    assert checks.ntf_design(zeros, poles, 1.0, 2.0, 6.5)
    assert checks.ntf_design(zeros, poles, 1.0, 1.5, 2.0)
    assert checks.ntf_design(zeros, poles * 2.1, 1.0, 100.0, 2.0)


def test_bad_results_count_as_failed():
    tally = checks.Tally()
    assert run_op(tally, "ok", lambda: 1e-12, checks.power_residual) >= 0.0
    run_op(tally, "residual", lambda: 1e-6, checks.power_residual)
    run_op(tally, "tracking", lambda: (True, 3.5), lambda r: checks.dithered_run(*r))
    y, q = lattice_run()
    y[7] += 1e-3
    run_op(tally, "lattice", lambda: (y, q),
           lambda r: checks.undithered_run(True, *r, STEP, LEVELS))
    run_op(tally, "raises", lambda: 1 / 0, checks.power_residual)
    run_op(tally, "check raises", lambda: None, checks.power_residual)
    assert (tally.attempted, tally.failed) == (6, 5)


def test_integer_ratio_oracle_matches_package():
    q = pytest.importorskip("qnshape")
    g = q.make_grid(0.0, 1.0, 128)
    noise = q.Psd(g, np.where(g.centers < 0.5, 1.0, 8.0))
    for n in (2, 3):
        plan = q.partition_constrained(noise, q.PowerBudget(300.0), n, mode="integer-ratio")
        edges, _ = checks.integer_ratio_oracle(noise.values, 0.0, 1.0, 300.0, n)
        assert checks.integer_ratio_plan(plan.edges, edges) == []
        assert checks.integer_ratio_plan(plan.edges[::-1], edges)


def test_tracer_wraps_names_bound_at_import():
    q = pytest.importorskip("qnshape")
    from qnshape import _kernels, deltasigma, multichannel, shaping

    originals = (shaping.optimal_sq, multichannel.optimal_sq, deltasigma.modulator_core)
    tracer = Tracer()
    tracer.install()
    try:
        assert multichannel.optimal_sq is shaping.optimal_sq is not originals[0]
        assert deltasigma.modulator_core is _kernels.modulator_core is not originals[2]
        g = q.make_grid(0.0, 1.0, 16)
        multichannel.partition_equal_power(q.Psd(g, np.linspace(1.0, 2.0, 16)),
                                           q.PowerBudget(100.0), 2)
    finally:
        tracer.uninstall()
    assert (shaping.optimal_sq, multichannel.optimal_sq, deltasigma.modulator_core) == originals
    spans = tracer.take()
    by_name = {s["name"]: s for s in spans}
    parent = by_name["shaping.optimal_sq"]["parent"]
    assert spans[parent]["name"] == "multichannel.partition_equal_power"
    summary = summarize(spans)
    assert summary["layer_calls"]["multichannel"] == 1
    assert summary["self"]["multichannel"] <= summary["total"]["multichannel.partition_equal_power"]


def test_printed_metrics_are_declared():
    passes = [{"ops": [2.0, 1.0], "ref": [1.0, 1.0, 1.0]},
              {"ops": [3.0, 1.0], "ref": [1.0, 3.0, 1.0]}]
    e2e = report.end_to_end(1.0, passes, 100.0, 10, 1)
    assert {k: v["unit"] for k, v in e2e.items()} == declared("end_to_end")
    # passes cost 3 and 1.5 + 0.5 reference blocks
    assert e2e["wall_ref"]["value"] == pytest.approx(2.5)
    assert report.pass_time(passes) == pytest.approx(3.5)
    assert e2e["success_ratio"]["value"] == pytest.approx(0.9)
    empty = summarize([])
    one = dict(empty, ops=[1.0], ref=[1.0, 1.0], cli={}, bytes=0)
    layers = report.per_layer([one], [one], empty, {})
    assert {k: v["unit"] for k, v in layers.items()} == declared("per_layer")
