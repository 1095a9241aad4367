"""Tests of the benchmark harness: span arithmetic, tracer install/remove, smoke runs."""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import bandchol  # noqa: E402
from bandchol import bandwidth, bayes, competitors, linalg, mcd  # noqa: E402

import harness  # noqa: E402
import spans  # noqa: E402
from spans import END, NAME, OP, PARENT, RAISED, START, WORK_FIELD  # noqa: E402


def span(name, start, end, parent=-1, op=0, work=0.0, raised=False):
    return [name, start, end, parent, op, work, raised]


def test_self_times_on_a_synthetic_tree():
    tree = [
        span("simulate.run_experiment", 0.0, 10.0),       # 0
        span("stats.gram_matrix", 1.0, 4.0, parent=0),    # 1
        span("stats.as_data_matrix", 2.0, 3.0, parent=1), # 2
        span("bayes.fit_posterior", 5.0, 9.0, parent=0),  # 3
        span("stats.banded_regression", 5.0, 7.0, parent=3),  # 4
        span("linalg.check_finite", 6.0, 8.0, parent=3),  # 5, overlaps 4
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 1.0, 1.0, 2.0, 2.0])


def test_layer_metrics_are_per_op_medians():
    tree = [
        span("bandwidth.select_k_resampling", 0.0, 10.0, op=1, work=2.0),
        span("competitors.bl_banded_estimator", 1.0, 2.0, parent=0, op=1, work=1.0),
        span("competitors.bl_banded_estimator", 3.0, 4.0, parent=0, op=1, work=1.0,
             raised=True),
        span("competitors.bl_banded_estimator", 5.0, 6.0, parent=0, op=1, work=1.0),
        span("competitors.bl_banded_estimator", 7.0, 8.0, parent=0, op=1, work=0.0),
        span("stats.gram_matrix", 20.0, 21.0, op=2, work=0.5),
        span("stats.gram_matrix", 22.0, 25.0, op=3, work=0.5),
        span("stats.gram_matrix", 30.0, 31.0, op=99),  # not among the ops asked for
    ]
    out = spans.layer_metrics(tree, [1, 2, 3])
    assert set(out) == set(spans.metric_names())
    assert out["bandwidth.self_s"] == 0.0  # median of 6, 0, 0
    assert out["competitors.calls"] == 0.0
    assert out["stats.gram_matrix.calls"] == 1
    assert out["stats.gram_matrix.self_s"] == 1.0
    assert out["stats.gram_matrix.gflop"] == 0.5
    # 2 splits requested, 3 attempts (reference fits), one of which raised
    assert out["bandwidth.resampling.split_yield"] == pytest.approx(2.0 / 3.0)
    one = spans.layer_metrics(tree, [1])
    assert one["competitors.errors"] == 1
    assert one["competitors.bl_banded_estimator.calls"] == 4
    assert one["bandwidth.self_s"] == 6.0


def _bindings():
    """Identity of every name, table entry, hook and default the tracer may rebind."""
    out = {}
    for modname, module in sys.modules.items():
        if modname == "bandchol" or modname.startswith("bandchol."):
            for key, value in vars(module).items():
                out[(modname, key)] = id(value)
                if isinstance(value, dict):
                    for k, v in value.items():
                        out[(modname, key, k)] = id(v)
                if callable(value) and getattr(value, "__defaults__", None):
                    out[(modname, key, "__defaults__")] = tuple(map(id, value.__defaults__))
                if isinstance(value, type) and "__post_init__" in vars(value):
                    out[(modname, key, "__post_init__")] = id(vars(value)["__post_init__"])
    return out


def test_install_then_remove_restores_every_binding():
    before = _bindings()
    bare_l1 = linalg.norm_l1
    bare_hook = mcd.CholeskyFactor.__post_init__
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert linalg.NORMS_BY_NAME["l1"].__wrapped__ is bare_l1
        assert bandwidth.norm_l1.__wrapped__ is bare_l1
        assert bandchol.compose is mcd.compose is competitors.compose
        assert mcd.CholeskyFactor.__post_init__.__wrapped__ is bare_hook
        assert _bindings() != before
    finally:
        tracer.remove()
    assert _bindings() == before
    assert linalg.NORMS_BY_NAME["l1"] is bandwidth.norm_l1 is bare_l1
    assert mcd.CholeskyFactor.__post_init__ is bare_hook


def test_traced_calls_reach_imported_copies_and_tables():
    x = bandchol.sample_gaussian(bandchol.make_ar1_cov(0.3, 12), 30, np.random.default_rng(0))
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.op = 7
        bandchol.select_k_resampling(x, kmax=3, splits=2, ref_bandwidth=5, rng=0)
        bandwidth.select_k_posterior_mode(x, kmax=2)
        model = bayes.fit_posterior(x, bayes.PriorConfig(k=1))
        bayes.estimate_p_loss(model, np.eye(12), draws=2, norm="spectral", rng=0)
    finally:
        tracer.remove()
    names = [s[NAME] for s in tracer.spans]
    assert all(s[OP] == 7 and s[END] >= s[START] and not s[RAISED] for s in tracer.spans)
    assert names.count("competitors.bl_banded_estimator") == 2 * (1 + 3)
    assert names.count("linalg.norm_l1") == 2 * 3
    assert names.count("mcd.CholeskyFactor") == 2 * (1 + 3) + 2
    # estimate_p_loss reaches the spectral norm through NORMS_BY_NAME
    spectral = [s for s in tracer.spans if s[NAME] == "linalg.norm_spectral"]
    assert len(spectral) == 2
    assert tracer.spans[spectral[0][PARENT]][NAME] == "bayes.estimate_p_loss"
    # the bandwidth prior is reached through a default argument
    assert names.count("bandwidth.default_log_k_prior") == 2
    out = spans.layer_metrics(tracer.spans, [7])
    assert out["bandwidth.resampling.split_yield"] == 1.0
    assert sum(s[WORK_FIELD] for s in tracer.spans if s[NAME] == "mcd.compose") == pytest.approx(
        (2 * 4 + 2) * 12 * 12 * 8 / 1e6)


@pytest.mark.parametrize("name", sorted(harness.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run(name, trace, tmp_path):
    before = _bindings()
    record = harness.run_workload(name, seed=0, seconds=0.05, trace=trace,
                                  results_dir=tmp_path, smoke=True)
    assert _bindings() == before
    line = harness.result_line(record)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 2
    expected = harness.per_layer_units() if trace else harness.END_TO_END_UNITS
    assert {k: m["unit"] for k, m in line["metrics"].items()} == expected
    assert all(np.isfinite(m["value"]) for m in line["metrics"].values())
    assert record["environment"]["numpy"] == np.__version__
