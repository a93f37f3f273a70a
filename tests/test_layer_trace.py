"""The benchmark's layer trace (perfbench/layers.py) still finds the
attributes it patches, records spans through them, leaves the metrics
as an untraced run has them, and puts each attribute back; its
micro-cases (perfbench/micro.py) still run against the package."""

import importlib.util
import json
from pathlib import Path

from dtaudit import cli, unicycle

ROOT = Path(__file__).resolve().parents[1]


def _load(stem):
    spec = importlib.util.spec_from_file_location(f"perfbench_{stem}",
                                                  ROOT / "perfbench" / f"{stem}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_layers():
    return _load("layers")


def test_layer_trace_patches_and_restores_every_attribute():
    tracer = _load_layers().Tracer()
    tracer.install()  # raises AttributeError if a patched name is gone
    try:
        saved = list(tracer._saved)
        assert {"euler_map", "closed_loop_euler_cascade"} <= {
            attr for module, attr, _ in saved if module is unicycle}
        assert all(getattr(module, attr) is not orig for module, attr, orig in saved)
        result = cli.run_named("unicycle-compare", None)
    finally:
        tracer.remove()
    assert result.name == "unicycle-compare"
    summary = tracer.summary()
    assert summary["unicycle.compare"][0] > 0
    assert summary["cascade.f"][0] > 0
    assert all(getattr(module, attr) is orig for module, attr, orig in saved)


def test_layer_trace_theorem_demo_records_fit_and_summability():
    """The theorem workload's config under the tracer: the envelope-fit and
    summability wrappers see the rollout records and change no metric."""
    config = {"T_list": [0.01, 0.02], "horizon_s": 20.0, "n_ball": 17, "grid_n": 21}
    untraced = cli.run_named("cascade-theorem-demo", dict(config))
    tracer = _load_layers().Tracer()
    tracer.install()
    try:
        traced = cli.run_named("cascade-theorem-demo", dict(config))
    finally:
        tracer.remove()
    summary = tracer.summary()
    assert summary["numerics.fit_kl_envelope"][0] == 3
    assert summary["stability.summability"][0] == 1
    assert tracer.counts["numerics.fit_kl_envelope.samples"] > 0
    assert traced.status == untraced.status == 0
    assert traced.metrics == untraced.metrics


def test_micro_cases_run_against_the_package(monkeypatch):
    """Every micro metric the benchmark declares comes out as a positive
    time; each case is timed for a moment only, since no time is checked."""
    micro = _load("micro")
    monkeypatch.setattr(micro, "MIN_SECONDS", 0.0)
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
                if m["name"].startswith("micro.")}
    out = micro.micro_metrics(0)
    assert set(out) == declared
    assert all(unit == "us" and value > 0.0 for value, unit in out.values())
