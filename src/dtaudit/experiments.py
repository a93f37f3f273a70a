"""Named, reproducible audit experiments.

Each experiment maps a parameter dictionary plus a seed to an
`ExperimentResult`: an exit status (0 when every audited claim held, 1
when at least one claim was falsified), scalar metrics, and tabular
series destined for CSV and gnuplot files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._sampling import Box, sample_ball, sample_box
from .cascade import (CascadeSystem, Trajectory, _k_probes, _stacked_step,
                      check_interconnection_bound, grid_rollouts, rollout,
                      usc_probe)
from .discretize import (VectorField, consistency_order, euler_map,
                         exact_proxy_map, linear_exact_map, modified_euler_map,
                         ParameterizedMap)
from .numerics import (ClassKFunction, fit_kl_envelope, horizon_index,
                       kl_compose)
from .stability import (CertificateParams, LyapunovCandidate, audit_lyapunov,
                        boundedness_escape, build_ugb_certificate,
                        check_summability, spuas_escape)
# perfbench/layers.py wraps the sweeps under these names on this module
from .stability import check_boundedness, falsify_spuas  # noqa: F401
from .unicycle import (ControllerGains, ReferenceSignal, _chain_grid, _chain_pass,
                       _score_variant, _simulate_variant, audit_lyapunov_chain,
                       check_pe, closed_loop_euler_cascade, compute_case_constants,
                       demo_gains, demo_references, error_dynamics_field,
                       lyap_U, pe_window_sums, validated_gains, validated_references)


class ConfigError(ValueError):
    """An experiment configuration is malformed or names unknown options."""


@dataclass(frozen=True)
class ExperimentResult:
    """Status plus report payload of one experiment run.

    `tables` and `plots` map file stems to (column names, row array)
    pairs; the CLI serializes them as CSV and whitespace-separated data
    files respectively.
    """

    name: str
    status: int
    metrics: dict
    tables: dict
    plots: dict


_KINDS = {dict: "an object", tuple: "a list", bool: "true or false", float: "a number",
          int: "an integer", str: "a string"}


def _with_defaults(params, defaults: dict, name: str) -> dict:
    """`params` merged over `defaults`, every given value typed like its default.

    `name` is the dotted path of `params`; an unknown key at any depth is
    an error that names it. A dict default is merged key by key. A float
    default takes an int or a float, an int, bool or str default only its
    own type (a bool is never a number), and a tuple default a list whose
    elements are typed like its first element. A None default passes the
    value through; the runner types it where it reads it.
    """
    params = params or {}
    unknown = sorted(set(params) - set(defaults))
    if unknown:
        raise ConfigError(f"unknown option(s) for {name}: {', '.join(unknown)}")
    return {key: _typed(params[key], val, f"{name}.{key}") if key in params else val
            for key, val in defaults.items()}


def _typed(value, default, path: str):
    """`value` checked against the type of `default`; see `_with_defaults`."""
    if default is None:
        return value
    if isinstance(default, dict):
        if isinstance(value, dict):
            return _with_defaults(value, default, path)
    elif isinstance(default, tuple):
        if isinstance(value, (list, tuple)):
            return tuple(_typed(v, default[0], f"{path}[{i}]") for i, v in enumerate(value))
    elif isinstance(value, bool) or isinstance(default, bool):
        if type(value) is type(default):
            return value
    elif isinstance(default, float):
        if isinstance(value, (int, float)):
            return float(value)
    elif isinstance(value, type(default)):
        return value
    raise ConfigError(f"{path} must be {_KINDS[type(default)]}, got {value!r}")


def _rows(array) -> np.ndarray:
    return np.atleast_2d(np.asarray(array, dtype=float))


def _periods(values, name: str) -> list[float]:
    """Sampling periods of a config; there must be one, all positive."""
    Ts = list(values)
    if not Ts or not all(t > 0.0 for t in Ts):
        raise ConfigError(f"{name}: sampling periods must be positive")
    return Ts


# --- double integrator under period-scaled feedback ------------------


def double_integrator_field() -> VectorField:
    """Position/velocity chain driven by a scalar force."""

    def rhs(t, s, u):
        s = np.asarray(s, dtype=float)
        u = np.asarray(u, dtype=float)
        vel = s[..., 1]
        # the integrator may add a batch axis after the held input was formed
        return np.stack([vel, vel * 0.0 + u[..., 0]], axis=-1)

    return VectorField(2, 1, rhs)


def period_scaled_feedback():
    """u = -(x1 + 2 x2)/T; the gain grows as the period shrinks."""

    def ctrl(T, k, s):
        s = np.asarray(s, dtype=float)
        return (-(s[..., 0] + 2.0 * s[..., 1]) / T)[..., None]

    return ctrl


def _map_matrix(pmap: ParameterizedMap, T: float, k: int, dim: int) -> np.ndarray:
    """Matrix of a linear one-step map, column by column."""
    base = np.asarray(pmap.step(T, k, np.zeros(dim)), dtype=float)
    eye = np.eye(dim)
    cols = [np.asarray(pmap.step(T, k, eye[i]), dtype=float) - base for i in range(dim)]
    return np.column_stack(cols)


_EXAMPLE1_DEFAULTS = {
    "T": None,
    "T_values": (0.01, 0.1, 0.19, 0.3),
    "n_random_T": 6,
    "n_states": 100,
    "decay_horizon_s": 20.0,
    "decay_rate": 0.5,
    "nonconv_steps": 10000,
    "nonconv_floor": 0.1,
    "table_T": 0.19,
    "table_steps": 300,
}


def _run_example1(params: dict, seed: int) -> ExperimentResult:
    p = _with_defaults(params, _EXAMPLE1_DEFAULTS, "example1")
    if p["T"] is not None:  # scalar shorthand for a single-period run
        T = _typed(p["T"], 0.0, "example1.T")
        p.update(T_values=(T,), table_T=T)
    T_values = list(p["T_values"])
    if not T_values or any(not 0.0 < T < 0.5 for T in T_values):
        raise ConfigError("example1 needs periods strictly inside (0, 0.5)")
    field = double_integrator_field()
    ctrl = period_scaled_feedback()
    emap = euler_map(field, ctrl)
    # the plant is x1' = x2, x2' = u and the feedback is linear, so the
    # sampled map has a closed form; its gain is the feedback on the basis
    xmap = linear_exact_map([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]],
                            lambda T: ctrl(T, 0, np.eye(2)).T)

    def spectrum(T):
        A = _map_matrix(emap, T, 0, 2)
        ev = np.sort_complex(np.linalg.eigvals(A))
        expect = np.array([-math.sqrt(1.0 - T), math.sqrt(1.0 - T)])
        dev = float(np.max(np.abs(ev - expect)))
        radius = float(np.max(np.abs(np.linalg.eigvals(_map_matrix(xmap, T, 0, 2)))))
        return T, dev, radius, float(ev[0].real), float(ev[1].real)

    spectra = [spectrum(T) for T in T_values]
    eig_dev = max(row[1] for row in spectra)
    radius_dev = max(abs(row[2] - 1.0) for row in spectra)

    # decay envelope of the first-order closed loop, one b for all draws
    rng = np.random.default_rng(seed)
    T_decay = T_values + [float(t) for t in rng.uniform(0.02, 0.49, p["n_random_T"])]
    x0 = rng.standard_normal((p["n_states"], 2))
    x0 = x0 * rng.uniform(0.1, 10.0, size=(len(x0), 1))

    horizon = p["decay_horizon_s"]
    batches = [rollout(emap.step, T, 0, x0, min(horizon_index(horizon, T), 2000))[0]
               for T in T_decay]
    trajs = [Trajectory(T, 0, states[:, j]) for T, states in zip(T_decay, batches)
             for j in range(len(x0))]
    lam = p["decay_rate"]
    beta = fit_kl_envelope(trajs, lam_grid=[lam])
    b = float(beta.params["M"])
    worst = 0.0
    for traj in trajs:
        if traj.norms[0] <= 0.0:
            continue
        bound = traj.norms[0] * np.exp(-lam * np.arange(len(traj.norms)) * traj.T)
        worst = max(worst, float(np.max(traj.norms / bound)))

    # the integrated plant keeps a unit-circle mode: generic states stall
    x0_nc = np.array([[1.0, 0.3], [0.0, 1.0], [1.0, 1.0], [1.0, 0.0]])

    def stalled_fraction(T):
        states = rollout(xmap.step, T, 0, x0_nc, p["nonconv_steps"])[0]
        norms = np.linalg.norm(states, axis=2)
        return np.min(norms, axis=0) / norms[0]

    ratios = np.array([stalled_fraction(T) for T in T_values])
    min_ratio = float(np.min(ratios))
    nonconv_floor = p["nonconv_floor"]

    T_tab, ks = p["table_T"], np.arange(p["table_steps"] + 1)
    tabs = {}
    for label, pmap in (("euler", emap), ("exact", xmap)):
        y = rollout(pmap.step, T_tab, 0, [1.0, 0.3], p["table_steps"])[0][:, 0]
        norms = [np.linalg.norm(row) for row in y]  # axis=1 differs in the last bit
        tabs[f"trajectory_{label}"] = (["k", "t", "x1", "x2", "norm"],
                                       np.column_stack([ks, ks * T_tab, y, norms]))

    status = 0 if (eig_dev <= 1e-10 and radius_dev <= 1e-6
                   and worst <= b * (1.0 + 1e-6) and min_ratio >= nonconv_floor) else 1
    metrics = {
        "euler_eig_deviation": eig_dev,
        "exact_unit_circle_deviation": radius_dev,
        "envelope_b": b,
        "envelope_rate": lam,
        "measured_sup_ratio": worst,
        "n_trajectories": len(trajs),
        "nonconvergence_min_ratio": min_ratio,
        "nonconvergence_floor": nonconv_floor,
        "spectra": [{"T": r[0], "euler_eig_deviation": r[1], "exact_spectral_radius": r[2]}
                    for r in spectra],
    }
    plots = {"eigenvalues": (["T", "eig_lo", "eig_hi", "exact_spectral_radius"],
                             _rows([(r[0], r[3], r[4], r[2]) for r in spectra]))}
    return ExperimentResult("example1", status, metrics, tabs, plots)


# --- correction-variant comparison ------------------------------------


_COMPARE_DEFAULTS = {
    "T": 0.01,
    "horizon_s": 10.0,
    "initial_error": (1.0, 1.0, 0.5),
    "plant": "euler",
    "variants": ("none", "scaled", "full"),
    "refs": {"vr": 1.0, "wr": {"kind": "sin", "amplitude": 20.0, "frequency": 1.0}},
    "gains": {"a1": 10.0, "a2": 70.0, "alpha_y": None, "scaled_factor": 0.5},
    "divergence_norm": 1e6,
}


def _refs_from_config(r: dict, T: float) -> ReferenceSignal:
    """The reference signal of a typed `refs` config.

    The uniform bound w_M dominates |v_r|, |omega_r| and the difference
    quotient of omega_r: the amplitude times max(1, frequency) for `sin`.
    """
    vr0, wr = r["vr"], r["wr"]
    amp, freq = wr["amplitude"], wr["frequency"]
    if wr["kind"] == "sin":
        if not freq > 0.0:
            raise ConfigError(f"bad reference: frequency must be positive, got {freq}")
        omega_r = lambda t: amp * np.sin(freq * np.asarray(t))
        w_M, period = max(abs(vr0), abs(amp) * max(1.0, freq)), math.tau / freq
    elif wr["kind"] == "const":
        omega_r = lambda t: amp + 0.0 * np.asarray(t)
        w_M, period = max(abs(vr0), abs(amp)), math.tau
    else:
        raise ConfigError(f"bad reference kind {wr['kind']!r}")
    return ReferenceSignal(lambda t: vr0 + 0.0 * np.asarray(t), omega_r, T, w_M, period)


def run_comparison_experiment(config: dict | None = None) -> dict:
    """Simulate the correction variants from one initial error and score them.

    Returns a dict with the merged config and one entry per variant:
    trajectory rows (k, t, x_e, y_e, theta_e, v, omega, correction) and
    metrics (integrated squared position error, peak |v|, control energy,
    settling step of the position errors into 0.01, settling step of the
    full error norm, divergence flag). The plant is either the
    first-order closed loop or the integrated plant under held inputs.
    A config it cannot run, such as T above the closed loop's T_max,
    raises ConfigError.
    """
    cfg = _with_defaults(config, _COMPARE_DEFAULTS, "unicycle-compare")
    T, g = cfg["T"], cfg["gains"]
    if not T > 0.0:
        raise ConfigError(f"T must be positive, got {T}")
    if cfg["plant"] not in ("euler", "exact-proxy"):
        raise ConfigError("plant must be 'euler' or 'exact-proxy'")
    if not cfg["variants"]:
        raise ConfigError("unicycle-compare needs at least one correction variant")
    x0 = np.asarray(cfg["initial_error"])
    if x0.shape != (3,):
        raise ConfigError("unicycle-compare.initial_error must be three numbers "
                          "(x_e, y_e, theta_e)")
    refs = _refs_from_config(cfg["refs"], T)
    alpha_y = 2.0 - T if g["alpha_y"] is None else _typed(g["alpha_y"], 0.0,
                                                          "unicycle-compare.gains.alpha_y")
    try:  # a gain that is not positive or an unknown variant
        gains = [ControllerGains(g["a1"], g["a2"], alpha_y, variant, g["scaled_factor"])
                 for variant in cfg["variants"]]
    except ValueError as err:
        raise ConfigError(str(err)) from err
    T_max = closed_loop_euler_cascade(refs, gains[0]).T_max
    if T > T_max:
        raise ConfigError(f"T exceeds the admissible T_max {T_max}")
    steps = horizon_index(cfg["horizon_s"], T)

    out = {"config": cfg, "variants": {}}
    for gain in gains:
        states, diverged, first_bad = _simulate_variant(refs, gain, T, x0, steps,
                                                        cfg["plant"], cfg["divergence_norm"])
        rows, metrics = _score_variant(states, refs, gain, T, diverged, first_bad)
        out["variants"][gain.use_correction] = {"rows": rows, "metrics": metrics}
    return out


def _run_unicycle_compare(params: dict, seed: int) -> ExperimentResult:
    # through the module global, which perfbench/layers.py wraps
    out = run_comparison_experiment(params)

    tables, plots, per_variant = {}, {}, {}
    cols = ["k", "t", "x_e", "y_e", "theta_e", "v", "omega", "correction"]
    for name, payload in out["variants"].items():
        rows = _rows(payload["rows"])
        tables[f"trajectory_{name}"] = (cols, rows)
        pos = np.hypot(rows[:, 2], rows[:, 3])
        full = np.linalg.norm(rows[:, 2:5], axis=1)
        plots[f"errors_{name}"] = (["t", "position_error", "full_error"],
                                   np.column_stack([rows[:, 1], pos, full]))
        per_variant[name] = payload["metrics"]

    diverged = {name: per_variant[name]["diverged"] for name in per_variant}
    settled = {name: per_variant[name]["settle_step_full"] is not None
               for name in per_variant}
    ise = {name: per_variant[name]["ise_position"] for name in per_variant}
    ordering = {}
    if "none" in ise:
        for name in per_variant:
            if name != "none":
                ordering[f"ise_{name}_below_none"] = bool(ise[name] <= ise["none"])
    status = 0 if (not any(diverged.values()) and all(settled.values())) else 1
    metrics = {
        "config": out["config"],
        "variants": per_variant,
        "any_diverged": any(diverged.values()),
        "all_settled": all(settled.values()),
        **ordering,
    }
    return ExperimentResult("unicycle-compare", status, metrics, tables, plots)


# --- one-step consistency sweep ---------------------------------------


_CONSISTENCY_DEFAULTS = {
    "plant": "unicycle",
    "regime": "validated",
    "held_input": (0.5, 0.3),
    "T_list": tuple(float(t) for t in np.logspace(-3.0, -1.0, 9)),
    "k_set": (0, 7, 50, 157),
    "n_samples": 64,
    "box_halfwidth": 1.0,
    "proxy_tol": 1e-10,
    "euler_slope_window": (1.85, 2.15),
    "modified_slope_min": 1.9,
}


def _run_consistency(params: dict, seed: int) -> ExperimentResult:
    p = _with_defaults(params, _CONSISTENCY_DEFAULTS, "consistency-sweep")
    if p["plant"] != "unicycle":
        raise ConfigError("only the unicycle tracking-error plant is wired in")
    refs = _regime(p["regime"])[0]()
    held = np.asarray(p["held_input"])
    if held.shape != (2,):
        raise ConfigError("consistency-sweep.held_input must be a pair (v, omega)")
    if len(p["euler_slope_window"]) != 2:
        raise ConfigError("consistency-sweep.euler_slope_window must be a pair (lo, hi)")
    field = error_dynamics_field(refs)
    ref_map = exact_proxy_map(field, held, tol=p["proxy_tol"])
    box = Box.centered(p["box_halfwidth"], 3)

    reports = {label: consistency_order(ref_map, make(field, held), box, k_set=list(p["k_set"]),
                                        T_list=list(p["T_list"]), n_samples=p["n_samples"])
               for label, make in (("euler", euler_map), ("modified-euler", modified_euler_map))}
    lo, hi = p["euler_slope_window"]
    e_slope = reports["euler"].slope
    m_slope = reports["modified-euler"].slope
    status = 0 if (e_slope is not None and lo <= e_slope <= hi
                   and m_slope is not None and m_slope >= p["modified_slope_min"]) else 1

    tables, plots = {}, {}
    for label, rep in reports.items():
        stem = label.replace("-", "_")
        Ts = np.asarray(rep.T_samples)
        errs = np.asarray(rep.max_errors)
        data = np.column_stack([Ts, errs, errs / Ts, errs / Ts ** 2])
        tables[f"consistency_{stem}"] = (["T", "max_error", "error_over_T", "error_over_T2"], data)
        plots[f"consistency_{stem}"] = (["T", "max_error"], np.column_stack([Ts, errs]))
    metrics = {
        "regime": p["regime"],
        "held_input": [float(v) for v in held],
        "euler_slope": e_slope,
        "modified_euler_slope": m_slope,
        "euler_max_error_smallest_T": float(reports["euler"].max_errors[-1]),
        "modified_euler_max_error_smallest_T": float(reports["modified-euler"].max_errors[-1]),
    }
    return ExperimentResult("consistency-sweep", status, metrics, tables, plots)


# --- tracking regimes --------------------------------------------------


_REGIMES = {
    "validated": (validated_references, lambda T: validated_gains("full")),
    "demo": (demo_references, lambda T: demo_gains(T, "full")),
}


def _regime(name: str):
    """Builders, as functions of T, of the references and the
    full-correction gains of a named regime."""
    if name not in _REGIMES:
        raise ConfigError("regime must be 'validated' or 'demo'")
    return _REGIMES[name]


_LYAP_DEFAULTS = {
    "regime": "validated",
    "T": 0.01,
    "L_pe": 2.0,
    "grid_n": 41,
    "radius": 5.0,
    "margin_rows": True,
}


def _lyap_U_candidate(refs, gains, consts) -> LyapunovCandidate:
    """The combined function U = V + eps_small W with the comparison
    functions its constant chain gives."""
    return LyapunovCandidate(
        eval=lambda TT, k, x: np.asarray(lyap_U(int(k), x, refs, gains, consts, TT),
                                         dtype=float),
        alpha1=ClassKFunction.power(consts.c1 / 2.0, 2.0),
        alpha2=ClassKFunction.power(consts.c2, 2.0),
        alpha3=ClassKFunction.power(consts.c3_tilde, 2.0),
        L_mod=ClassKFunction.linear(2.0 * (consts.c2 + consts.eps_small * consts.c3)),
    )


def _run_lyapunov_audit(params: dict, seed: int) -> ExperimentResult:
    p = _with_defaults(params, _LYAP_DEFAULTS, "lyapunov-audit")
    T = _periods([p["T"]], "T")[0]
    refs, gains = (build(T) for build in _regime(p["regime"]))
    grid_n, radius = p["grid_n"], p["radius"]
    consts = compute_case_constants(refs, gains, T, p["L_pe"], grid_n=grid_n, radius=radius)
    metrics = {"regime": p["regime"], "T": T, "constants": consts.to_json()}
    if not consts.all_valid:
        metrics["violated_flag"] = consts.first_violated()
        return ExperimentResult("lyapunov-audit", 1, metrics, {}, {})

    chain = audit_lyapunov_chain(refs, gains, consts, T, grid_n=grid_n, radius=radius)
    metrics["chain"] = chain.to_json()

    # the same function, audited against the definition-style conditions
    sysm = closed_loop_euler_cascade(refs, gains)

    def unforced(TT, k, x):
        x = np.asarray(x, dtype=float)
        return sysm.f(TT, k, x, np.zeros(x.shape[:-1] + (1,)))

    F = ParameterizedMap(2, sysm.T_max, unforced, "custom")
    cand = _lyap_U_candidate(refs, gains, consts)
    X, Y = _chain_grid(grid_n, radius)
    pts = np.stack([X, Y], axis=-1)
    k_hi = refs.period_steps(T)
    Delta = radius * math.sqrt(2.0) + 1.0

    definition = audit_lyapunov(cand, F, Delta, 0.0, [T], pts, k_set=range(k_hi + 1))
    metrics["definition_audit"] = definition.to_json()

    tables, plots = {}, {}
    if p["margin_rows"]:
        probe = audit_lyapunov(cand, F, Delta, 0.0, [T], pts,
                               k_set=_k_probes(T), collect_margins=True)
        rows = probe.margins.get("rows", [])
        tables["decrease_margins"] = (["sample_id", "norm", "bound", "measured", "margin"],
                                      _rows(rows))
    # U = V + eps_small W at k and k + 1, every seventh k of the period
    n2 = np.sum(pts ** 2, axis=-1)
    eps = consts.eps_small
    prof = []
    for k, V, Vn, _, W, Wn in _chain_pass(refs, gains, T, X, Y, k_hi, stride=7):
        dU = ((Vn + eps * Wn) - (V + eps * W)) / T
        prof.append((k, k * T, float(np.min(-consts.c3_tilde * n2 - dU))))
    plots["decrease_profile"] = (["k", "t", "min_margin"], _rows(prof))

    status = 0 if (chain.kind == "pass" and definition.kind == "pass") else 1
    return ExperimentResult("lyapunov-audit", status, metrics, tables, plots)


# --- sliding-window excitation ----------------------------------------


_PE_DEFAULTS = {
    "regime": "demo",
    "refs": None,
    "wr": None,
    "L": math.pi,
    "mu": 600.0,
    "T_list": (0.01,),
}


def _run_pe_check(params: dict, seed: int) -> ExperimentResult:
    p = _with_defaults(params, _PE_DEFAULTS, "pe-check")
    T_list = _periods(p["T_list"], "T_list")
    T0, schema = T_list[0], _COMPARE_DEFAULTS["refs"]
    if p["refs"] is not None:
        refs = _refs_from_config(_typed(p["refs"], schema, "pe-check.refs"), T0)
    elif p["wr"] is not None:
        # shorthand: give just the turning-rate signal, constant if a number
        wr = p["wr"] if isinstance(p["wr"], dict) else {"kind": "const", "amplitude": p["wr"]}
        refs = _refs_from_config(dict(schema, wr=_typed(wr, schema["wr"], "pe-check.wr")), T0)
    else:
        refs = _regime(p["regime"])[0](T0)
    L, mu = p["L"], p["mu"]

    verdict = check_pe(refs, L, mu, T_list)
    sums = pe_window_sums(refs, T0, L, refs.period_steps(T0))
    js = np.arange(len(sums))
    plots = {"window_sums": (["j", "t", "window_sum"],
                             np.column_stack([js, js * T0, sums]))}
    metrics = {
        "L": L,
        "mu": mu,
        "T_list": T_list,
        "verdict": verdict.to_json(),
        "min_window_sum": float(np.min(sums)),
    }
    return ExperimentResult("pe-check", 0 if verdict.kind == "pass" else 1,
                            metrics, {}, plots)


# --- cascade theorem walkthrough --------------------------------------


_THEOREM_DEFAULTS = {
    "T": 0.01,
    "T_list": (0.01, 0.02, 0.05),
    "L_pe": 2.0,
    "Delta": 5.0,
    "Delta_z": 2.0,
    "eta": 2.0,
    "eps": 0.5,
    "usc_L": 2.0,
    "mu_grid": (0.2, 0.1, 0.05, 0.02, 0.01),
    "horizon_s": 40.0,
    "grid_n": 41,
    "radius": 5.0,
    "theta_values": (-0.5, -0.25, 0.0, 0.25, 0.5),
    "k_stride": 7,
    "n_ball": 33,
    "usc_x0_count": 8,
}


def _run_trajs(runs):
    return [Trajectory(T, k0, states[:, j]) for T, k0, states in runs
            for j in range(states.shape[1])]


def _run_theorem_demo(params: dict, seed: int) -> ExperimentResult:
    p = _with_defaults(params, _THEOREM_DEFAULTS, "cascade-theorem-demo")
    T = _periods([p["T"]], "T")[0]
    T_list = sorted(_periods(p["T_list"], "T_list"))
    horizon_s, Delta, Delta_z = p["horizon_s"], p["Delta"], p["Delta_z"]
    refs, gains = validated_references(T), validated_gains("full")
    sysm = closed_loop_euler_cascade(refs, gains)
    if T_list[-1] > sysm.T_max:
        raise ConfigError(f"T_list exceeds the admissible T_max {sysm.T_max}")
    consts = compute_case_constants(refs, gains, T, p["L_pe"], grid_n=p["grid_n"],
                                    radius=p["radius"])
    if not consts.all_valid:
        return ExperimentResult("cascade-theorem-demo", 1,
                                {"violated_flag": consts.first_violated(),
                                 "constants": consts.to_json()}, {}, {})

    def xstep(TT, k, x):
        return sysm.f(TT, k, x, np.zeros((len(x), 1)))

    n_ball = p["n_ball"]
    metrics = {"T": T, "T_list": T_list, "constants": consts.to_json()}

    def decay(name, step, grid):
        runs = list(grid_rollouts(step, grid, T_list, horizon_s))
        trajs = _run_trajs(runs)
        beta = fit_kl_envelope(trajs)
        verdict = spuas_escape(runs, beta, 0.0)
        metrics[name] = {"beta": beta.to_json(), "verdict": verdict.to_json()}
        return runs, trajs, beta, verdict

    # [2:] drops the rollouts at once, so they do not stay alive to the end
    beta_z, z_verdict = decay("driving_decay", sysm.g, sample_ball(Delta_z, 1, 17))[2:]
    beta_x, x_verdict = decay("unforced_decay", xstep, sample_ball(Delta, 2, n_ball))[2:]

    mu_star = usc_probe(sysm, Delta, p["eta"], p["eps"], p["usc_L"], [T], list(p["mu_grid"]),
                        x0_count=p["usc_x0_count"])
    metrics["small_inputs"] = {"mu_star": mu_star}

    def interconnection():
        dom = Box((-Delta, -Delta, -Delta_z), (Delta, Delta, Delta_z))
        pts = sample_box(dom, 2048)
        X, Z = pts[:, :2], pts[:, 2:]
        xi = np.linalg.norm(pts, axis=1)
        xn = np.linalg.norm(X, axis=1)
        zn = np.linalg.norm(Z, axis=1)
        Z0 = np.zeros_like(Z)

        def fit(system):
            g1 = c = 0.0
            for TT in T_list:
                for k in _k_probes(TT):
                    F = np.asarray(system.f(TT, k, X, Z), dtype=float)
                    F0 = np.asarray(system.f(TT, k, X, Z0), dtype=float)
                    keep = xi > 0
                    g1 = max(g1, float(np.max(np.linalg.norm(F, axis=1)[keep] / xi[keep])))
                    keep = zn > 1e-15
                    gap = np.linalg.norm(F - F0, axis=1)[keep]
                    c = max(c, float(np.max(gap / (TT * (xn[keep] + 1.0) * zn[keep]))))
            return g1 * (1.0 + 1e-9), c * (1.0 + 1e-9)

        g1, c = fit(sysm)
        gamma2 = ClassKFunction.affine_capped(c, c)
        gamma3 = ClassKFunction.identity()
        ok = check_interconnection_bound(sysm, ClassKFunction.linear(g1), gamma2,
                                         gamma3, dom, T_list, n_samples=2048)

        def inflated(TT, k, XX, ZZ):
            base = np.asarray(sysm.f(TT, k, XX, np.zeros_like(np.atleast_2d(ZZ))), dtype=float)
            return base + (np.asarray(sysm.f(TT, k, XX, ZZ), dtype=float) - base) / TT

        doctored = CascadeSystem(2, 1, inflated, sysm.g, sysm.T_max)
        g1d, _ = fit(doctored)
        bad = check_interconnection_bound(doctored, ClassKFunction.linear(g1d), gamma2,
                                          gamma3, dom, T_list, n_samples=2048)
        metrics["interconnection"] = {"gamma1_gain": g1, "gamma2_gain": c,
                                      "verdict": ok.to_json(), "doctored_verdict": bad.to_json()}
        return ok, bad, c

    ok_inter, bad_inter, c_gain = interconnection()

    def growth_certificate():
        X, Y = _chain_grid(p["grid_n"], p["radius"])
        base = np.stack([X, Y], axis=-1)
        pts = np.concatenate([np.column_stack([base, np.full(len(base), th)])
                              for th in p["theta_values"]])
        k_hi = refs.period_steps(T)
        k_cert = sorted(set(range(0, k_hi + 1, p["k_stride"])) | {k_hi})

        cand = _lyap_U_candidate(refs, gains, consts)
        Xs, Zs = pts[:, :2], pts[:, 2:]
        zn = np.linalg.norm(Zs, axis=1)
        keep = zn > 1e-15
        d = 0.0
        for k in k_cert:
            v = np.asarray(lyap_U(k, Xs, refs, gains, consts, T), dtype=float)
            Fz = np.asarray(sysm.f(T, k, Xs, Zs), dtype=float)
            F0 = np.asarray(sysm.f(T, k, Xs, np.zeros_like(Zs)), dtype=float)
            drift = (np.asarray(lyap_U(k + 1, Fz, refs, gains, consts, T), dtype=float)
                     - np.asarray(lyap_U(k + 1, F0, refs, gains, consts, T), dtype=float))
            d = max(d, float(np.max(drift[keep] / (T * zn[keep] * (v[keep] + 1.0)))))
        d *= 1.0 + 1e-9

        cert_params = CertificateParams(
            alpha1=ClassKFunction.power(consts.c1 / 2.0, 2.0),
            alpha2=ClassKFunction.power(consts.c2, 2.0),
            c=0.0,
            gamma1=ClassKFunction.linear(d),
            gamma2=ClassKFunction.linear(d),
            phi=ClassKFunction.identity(),
        )
        cert, verdict = build_ugb_certificate(cand, sysm, cert_params, pts, [T],
                                              k_set=k_cert)

        z_grid = sample_ball(Delta_z, 1, 17)
        z_trajs = _run_trajs(grid_rollouts(sysm.g, z_grid, [T], horizon_s, k0_set=[0]))
        budget = 0.0
        for traj in z_trajs:
            if traj.norms[0] <= 0.0:
                continue
            total = T * float(np.sum(np.asarray(cert.mu_fn(traj.norms), dtype=float)))
            budget = max(budget, total / traj.norms[0])
        summable = check_summability(z_trajs, cert.mu_fn,
                                     ClassKFunction.linear(budget * 1.05), T)
        metrics["growth_certificate"] = {
            "drift_gain": d, "mu_gain": float(cert.mu_fn.params["gain"]),
            "summability_budget_gain": budget * 1.05,
            "rho_at_half": float(cert.rho_built(0.5)),
            "rho_at_e": float(cert.rho_built(math.e)),
            "verdict": verdict.to_json(), "summability": summable.to_json()}
        return verdict, summable

    cert_verdict, summable = growth_certificate()

    runs, trajs, beta_c, cascade_verdict = decay("cascade", _stacked_step(sysm),
                                                 sample_ball(Delta, 3, n_ball))
    kappa = max((float(np.max(t.norms)) / t.norms[0] for t in trajs if t.norms[0] > 0.0),
                default=0.0)
    bounded = boundedness_escape(runs, ClassKFunction.linear(kappa * (1.0 + 1e-9)), 0.0)
    metrics["cascade"].update(kappa_gain=kappa * (1.0 + 1e-9), bounded=bounded.to_json())

    composed = kl_compose(beta_x, beta_z, beta_c, ClassKFunction.linear(c_gain))
    t_grid = np.linspace(0.0, horizon_s, 81)
    plots = {"envelopes": (["t", "fitted_cascade", "composed"],
                           np.column_stack([t_grid,
                                            np.asarray(beta_c(Delta, t_grid), dtype=float),
                                            np.asarray(composed(Delta, t_grid), dtype=float)]))}
    metrics["composed_bound_at_0"] = float(composed(Delta, 0.0))

    hypotheses = (z_verdict.kind == "pass"
                  and x_verdict.kind == "pass"
                  and mu_star > 0.0
                  and ok_inter.kind == "pass"
                  and cert_verdict.kind == "pass"
                  and summable.kind == "pass")
    conclusions = cascade_verdict.kind == "pass" and bounded.kind == "pass"
    metrics["hypotheses_hold"] = bool(hypotheses)
    metrics["conclusions_hold"] = bool(conclusions)
    metrics["doctored_falsified"] = bad_inter.kind == "falsified"
    status = 0 if (hypotheses and conclusions and bad_inter.kind == "falsified") else 1
    return ExperimentResult("cascade-theorem-demo", status, metrics, {}, plots)


EXPERIMENTS = {
    "example1": _run_example1,
    "unicycle-compare": _run_unicycle_compare,
    "consistency-sweep": _run_consistency,
    "lyapunov-audit": _run_lyapunov_audit,
    "pe-check": _run_pe_check,
    "cascade-theorem-demo": _run_theorem_demo,
}


def list_experiments() -> list[str]:
    return sorted(EXPERIMENTS)


def run_named(name: str, params: dict | None, seed: int = 0) -> ExperimentResult:
    """Run a registered experiment; unknown names are configuration errors."""
    if name not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {name!r}; choose from "
                          + ", ".join(list_experiments()))
    params = dict(params or {})
    inline = params.pop("name", None)  # configs may restate the experiment
    if inline is not None and inline != name:
        raise ConfigError(f"config names experiment {inline!r} but {name!r} was requested")
    return EXPERIMENTS[name](params, int(seed))
