"""Outside-in layer trace for the traced benchmark pass.

`Tracer.install` replaces the public functions of each dtaudit module,
as their callers see them, with wrappers that record one span per call
(name, start, end, parent span, pass id) in memory and bump counters at
the same boundary. Maps and cascades are wrapped on the `step`, `f` and
`g` of the objects their builders return. Nothing under `src/` changes;
`Tracer.remove` puts every original back.

Module `_integrate` reports under the prefix `integrate` and `_sampling`
under `sampling`, because metric names start with a letter.
"""

from __future__ import annotations

import dataclasses
import time
from collections import Counter
from pathlib import Path


def _rows(x) -> int:
    shape = getattr(x, "shape", None)
    return shape[0] if shape is not None and len(shape) > 1 else 1


class Tracer:
    """In-memory spans and counters for one traced run."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1, pass id, rows)
        self.counts = Counter()
        self.pass_id = 0
        self._stack = [-1]
        self._saved = []

    # -- wrappers ------------------------------------------------------

    def span(self, name, fn, rows_arg=None):
        """Wrap `fn` so each call records a span named `name`.

        With `rows_arg`, the batch size of that positional argument is
        stored in the span and added to the counter `<name>.rows`.
        """
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter
        rows_key = name + ".rows"

        def wrapper(*args, **kwargs):
            rows = 0
            if rows_arg is not None:
                rows = _rows(args[rows_arg])
                counts[rows_key] += rows
            parent = stack[-1]
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (name, t0, t1, parent, self.pass_id, rows)

        return wrapper

    def counted(self, key, fn):
        """Wrap `fn` so each call adds one to the counter `key`; no span."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, module, attr, wrapper):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def install(self):
        """Put the wrappers in place on the imported dtaudit modules."""
        from dtaudit import (cascade, cli, discretize, experiments, numerics,
                             stability, unicycle)

        self._patch(cli, "run_named", self.span("experiments.run_named", cli.run_named))
        orig_emit = cli.emit_report
        emit_span = self.span("cli.emit_report", orig_emit)

        def emit_report(*args, **kwargs):
            written = emit_span(*args, **kwargs)
            self.counts["cli.emit_report.bytes"] += sum(Path(p).stat().st_size for p in written)
            return written

        self._patch(cli, "emit_report", emit_report)

        # _integrate: discretize and numerics import the integrators by name.
        rk45 = self.span("integrate.rk45", discretize.rk45_integrate)

        def rk45_integrate(rhs, *args, **kwargs):
            return rk45(self.counted("integrate.rk45.rhs_evals", rhs), *args, **kwargs)

        self._patch(discretize, "rk45_integrate", rk45_integrate)
        for module in (discretize, numerics):
            simpson = self.span("integrate.simpson", module.adaptive_simpson)

            def adaptive_simpson(f, *args, _simpson=simpson, **kwargs):
                return _simpson(self.counted("integrate.simpson.integrand_evals", f),
                                *args, **kwargs)

            self._patch(module, "adaptive_simpson", adaptive_simpson)

        # discretize: the step of every map the three builders return.
        for module, names in ((experiments, ("euler_map", "modified_euler_map",
                                             "exact_proxy_map")),
                              (unicycle, ("euler_map", "exact_proxy_map"))):
            for attr in names:
                self._patch(module, attr, self._map_builder(getattr(module, attr)))

        # cascade: f and g of every closed loop the builder returns.
        for module in (experiments, unicycle):
            self._patch(module, "closed_loop_euler_cascade",
                        self._cascade_builder(module.closed_loop_euler_cascade))
        self._patch(cascade, "simulate_driven",
                    self.span("cascade.simulate_driven", cascade.simulate_driven))
        self._patch(experiments, "usc_probe", self.span("cascade.usc_probe", experiments.usc_probe))
        self._patch(experiments, "check_interconnection_bound",
                    self.span("cascade.interconnection", experiments.check_interconnection_bound))

        # stability: the sweeps step through `_system_stepper`'s batched step.
        for attr in ("falsify_spuas", "check_boundedness"):
            self._patch(experiments, attr, self.span("stability.sweep", getattr(experiments, attr)))
        orig_stepper = stability._system_stepper

        def _system_stepper(system):
            step, dim, T_max = orig_stepper(system)

            def counted_step(T, k, Y):
                self.counts["stability.sweep.row_steps"] += len(Y)
                return step(T, k, Y)

            return counted_step, dim, T_max

        self._patch(stability, "_system_stepper", _system_stepper)
        for attr, name in (("audit_lyapunov", "stability.audit_lyapunov"),
                           ("build_ugb_certificate", "stability.certificate"),
                           ("check_summability", "stability.summability"),
                           ("compute_case_constants", "unicycle.chain"),
                           ("audit_lyapunov_chain", "unicycle.chain"),
                           ("run_comparison_experiment", "unicycle.compare")):
            self._patch(experiments, attr, self.span(name, getattr(experiments, attr)))

        # numerics
        fit = self.span("numerics.fit_kl_envelope", experiments.fit_kl_envelope)

        def fit_kl_envelope(trajectories, *args, **kwargs):
            trajs = list(trajectories)
            self.counts["numerics.fit_kl_envelope.samples"] += sum(len(t.norms) for t in trajs)
            return fit(trajs, *args, **kwargs)

        self._patch(experiments, "fit_kl_envelope", fit_kl_envelope)

        # _sampling, wherever another module imported it by name.
        for module in (experiments, cascade, stability, discretize):
            for attr in ("sample_box", "sample_ball", "sample_pairs"):
                if hasattr(module, attr):
                    self._patch(module, attr, self.span("sampling", getattr(module, attr)))

    def _map_builder(self, build):
        def builder(*args, **kwargs):
            pmap = build(*args, **kwargs)
            return dataclasses.replace(pmap, step=self.span("discretize.step", pmap.step, 2))
        return builder

    def _cascade_builder(self, build):
        def builder(*args, **kwargs):
            sysm = build(*args, **kwargs)
            return dataclasses.replace(sysm, f=self.span("cascade.f", sysm.f, 2),
                                       g=self.span("cascade.g", sysm.g))
        return builder

    def remove(self):
        """Restore every patched attribute, newest first."""
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- reduction -------------------------------------------------------

    def summary(self) -> dict:
        """Per-name call counts, inclusive seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {}
        for i, (name, t0, t1, _, _, _) in enumerate(self.spans):
            calls, total, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + (t1 - t0), own + (t1 - t0 - child[i]))
        return out

    def write_spans(self, path: Path):
        """Write every span as CSV: id, name, start, end, parent, pass, rows."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("id,name,start,end,parent,pass,rows\n")
            for i, (name, t0, t1, parent, pass_id, rows) in enumerate(self.spans):
                fh.write(f"{i},{name},{t0!r},{t1!r},{parent},{pass_id},{rows}\n")


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metrics of one traced pass, as {name: (value, unit)}."""
    s = tracer.summary()
    c = tracer.counts

    def calls(name):
        return s.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return s.get(name, (0, 0.0, 0.0))[1]

    def own(*names):
        return sum(s.get(n, (0, 0.0, 0.0))[2] for n in names)

    def ratio(num, den):
        return num / den if den else 0.0

    rk45_calls = calls("integrate.rk45")
    f_calls = calls("cascade.f")
    return {
        "integrate.rk45.calls": (rk45_calls, "count"),
        "integrate.rk45.rhs_evals": (c["integrate.rk45.rhs_evals"], "count"),
        "integrate.rk45.rhs_per_call": (ratio(c["integrate.rk45.rhs_evals"], rk45_calls),
                                        "evals/call"),
        "integrate.rk45.self_s": (own("integrate.rk45"), "s"),
        "integrate.simpson.calls": (calls("integrate.simpson"), "count"),
        "integrate.simpson.integrand_evals": (c["integrate.simpson.integrand_evals"], "count"),
        "integrate.simpson.self_s": (own("integrate.simpson"), "s"),
        "discretize.step.calls": (calls("discretize.step"), "count"),
        "discretize.step.rows": (c["discretize.step.rows"], "count"),
        "discretize.step.self_s": (own("discretize.step"), "s"),
        "cascade.f.calls": (f_calls, "count"),
        "cascade.f.rows_per_call": (ratio(c["cascade.f.rows"], f_calls), "rows/call"),
        "cascade.g.calls": (calls("cascade.g"), "count"),
        "cascade.step.self_s": (own("cascade.f", "cascade.g"), "s"),
        "cascade.simulate_driven.calls": (calls("cascade.simulate_driven"), "count"),
        "cascade.usc_probe.s": (total("cascade.usc_probe"), "s"),
        "cascade.interconnection.s": (total("cascade.interconnection"), "s"),
        "stability.sweep.s": (total("stability.sweep"), "s"),
        "stability.sweep.row_steps": (c["stability.sweep.row_steps"], "count"),
        "stability.audit_lyapunov.s": (total("stability.audit_lyapunov"), "s"),
        "stability.certificate.s": (total("stability.certificate"), "s"),
        "stability.summability.s": (total("stability.summability"), "s"),
        "numerics.fit_kl_envelope.calls": (calls("numerics.fit_kl_envelope"), "count"),
        "numerics.fit_kl_envelope.samples": (c["numerics.fit_kl_envelope.samples"], "count"),
        "numerics.fit_kl_envelope.self_s": (own("numerics.fit_kl_envelope"), "s"),
        "unicycle.chain.s": (total("unicycle.chain"), "s"),
        "unicycle.compare.s": (total("unicycle.compare"), "s"),
        "sampling.calls": (calls("sampling"), "count"),
        "sampling.self_s": (own("sampling"), "s"),
        "cli.emit_report.s": (total("cli.emit_report"), "s"),
        "cli.emit_report.bytes": (c["cli.emit_report.bytes"], "bytes"),
        "experiments.self_s": (own("experiments.run_named"), "s"),
    }
