"""The benchmark's layer trace (perfbench/layers.py) still finds the
attributes it patches, records spans through them, leaves the metrics
as an untraced run has them, and puts each attribute back."""

import importlib.util
from pathlib import Path

from dtaudit import cli, unicycle

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
