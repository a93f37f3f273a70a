"""Named, reproducible audit experiments.

Each experiment maps a parameter dictionary plus a seed to an
`ExperimentResult`: an exit status (0 when every audited claim held, 1
when at least one claim was falsified), scalar metrics, and tabular
series destined for CSV and gnuplot files.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from ._sampling import Box, sample_ball, sample_box
from .cascade import (Trajectory, _interconnection_terms, _interconnection_verdict,
                      _rollout_chunks, _stacked_step, grid_rollouts, usc_probe)
from .discretize import (VectorField, consistency_order, euler_map,
                         exact_proxy_map, linear_exact_map, modified_euler_map,
                         ParameterizedMap)
from .numerics import (_CHUNK, ClassKFunction, _norm, fit_kl_envelope, horizon_index,
                       kl_compose)
from .stability import (CertificateParams, _certificate_terms, _certificate_verdict,
                        boundedness_escape, check_summability, spuas_escape)
# perfbench/layers.py wraps the sweeps, the Lyapunov audits and the public
# forms of the theorem demo's two audits under these names on this module
from .cascade import check_interconnection_bound  # noqa: F401
from .stability import (audit_lyapunov, build_ugb_certificate,  # noqa: F401
                        check_boundedness, falsify_spuas)
from .unicycle import audit_lyapunov_chain  # noqa: F401
from .unicycle import (_PRESETS, _audit_pass, _chain_grid, _gains_from_spec,
                       _lyap_U_candidate, _preset, _refs_from_spec, _score_variant,
                       _simulate_variant, check_pe,
                       closed_loop_euler_cascade, compute_case_constants,
                       error_dynamics_field, pe_window_sums)


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


_KINDS = {dict: "an object", tuple: "a list", bool: "true or false", float: "a finite number",
          int: "an integer", str: "a string", type(None): "null or a finite number"}


_LIMITS = {"positive": lambda v: v > 0.0, "nonnegative": lambda v: v >= 0.0,
           "at least 1": lambda v: v >= 1, "'demo' or 'validated'": lambda v: v in _PRESETS,
           "'euler' or 'exact-proxy'": lambda v: v in ("euler", "exact-proxy"), "nonempty": len,
           "a pair": lambda v: len(v) == 2, "three numbers": lambda v: len(v) == 3}
_WHOLE = ("nonempty", "a pair", "three numbers")

# option name -> its range, in every experiment that has the option
_RANGES = {
    "T": "positive", "T_list": "nonempty, positive", "table_T": "positive", "L": "positive",
    "T_values": "nonempty", "mu_grid": "nonempty, positive", "theta_values": "nonempty",
    "variants": "nonempty", "horizon_s": "positive", "decay_horizon_s": "positive",
    "L_pe": "positive", "usc_L": "positive", "decay_rate": "positive", "mu": "positive",
    "divergence_norm": "positive", "proxy_tol": "positive", "radius": "positive",
    "Delta": "positive", "Delta_z": "positive", "eta": "positive", "eps": "positive",
    "n_random_T": "nonnegative", "nonconv_steps": "nonnegative", "table_steps": "nonnegative",
    "n_samples": "nonnegative", "box_halfwidth": "nonnegative", "k_set": "nonnegative",
    "n_ball": "nonnegative", "usc_x0_count": "nonnegative", "n_states": "at least 1",
    "grid_n": "at least 1", "k_stride": "at least 1", "regime": "'demo' or 'validated'",
    "plant": "'euler' or 'exact-proxy'", "held_input": "a pair",
    "euler_slope_window": "a pair", "initial_error": "three numbers",
}


def _with_defaults(params, defaults: dict, name: str) -> dict:
    """`params` merged over `defaults`, every given value typed like its default
    and within its range in `_RANGES`.

    `name` is the dotted path of `params`; an unknown key at any depth, a
    value of the wrong type and a value out of range are errors that name
    it. A dict default is merged key by key. A float default takes a finite
    int or float, an int, bool or str default only its own type (a bool is
    never a number), and a tuple default a list whose elements are typed
    like its first element. A None default takes null or a finite number,
    read as a float.

    A range is one word of `_LIMITS` or several joined by ", ". It tests a
    typed value that is not null; on a list the words in `_WHOLE` test the
    list and every other word each element.
    """
    params = params or {}
    unknown = sorted(set(params) - set(defaults))
    if unknown:
        raise ConfigError(f"unknown option(s) for {name}: {', '.join(unknown)}")
    # a default is parsed like a given value, so no default object leaks out
    merged = {key: _typed(params.get(key, val), val, f"{name}.{key}")
              for key, val in defaults.items()}
    for key, value in merged.items():
        path = f"{name}.{key}"
        for word in _RANGES[key].split(", ") if key in _RANGES and value is not None else ():
            if isinstance(value, tuple) and word not in _WHOLE:
                items = [(f"{path}[{i}]", v) for i, v in enumerate(value)]
            else:
                items = [(path, value)]
            for where, v in items:
                if not _LIMITS[word](v):
                    raise ConfigError(f"{where} must be {word}, got {v!r}")
    return merged


def _typed(value, default, path: str):
    """`value` checked against the type of `default`; see `_with_defaults`."""
    if value is None and default is None:
        return None
    if isinstance(default, dict):
        if isinstance(value, dict):
            return _with_defaults(value, default, path)
    elif isinstance(default, tuple):
        if isinstance(value, (list, tuple)):
            return tuple(_typed(v, default[0], f"{path}[{i}]") for i, v in enumerate(value))
    elif isinstance(value, bool) or isinstance(default, bool):
        if type(value) is type(default):
            return value
    elif isinstance(default, (float, type(None))):
        # a finite float, or an int a float holds: not JSON Infinity or NaN,
        # nor an int beyond the largest float
        if isinstance(value, (int, float)) and abs(value) <= sys.float_info.max:
            return float(value)
    elif isinstance(value, type(default)):
        return value
    raise ConfigError(f"{path} must be {_KINDS[type(default)]}, got {value!r}")


def _rows(array) -> np.ndarray:
    return np.atleast_2d(np.asarray(array, dtype=float))


def _largest_ratio(runs, rate: float) -> float:
    """Largest |phi(k)| / (|phi(k0)| exp(-rate (k - k0) T)) with |phi(k0)| > 0."""
    worst = 0.0
    for run in runs:
        keep = run.norms[0] > 0.0
        for i0 in range(0, len(run.norms), _CHUNK):
            block = run.norms[i0:i0 + _CHUNK, keep]
            decay = np.exp(-rate * np.arange(i0, i0 + len(block)) * run.T)[:, None]
            worst = float(np.max(block / (run.norms[0, keep] * decay), initial=worst))
    return worst


# --- double integrator under period-scaled feedback ------------------


def double_integrator_field() -> VectorField:
    """Position/velocity chain driven by a scalar force."""

    def rhs(t, s, u):
        s = np.asarray(s, dtype=float)
        u = np.asarray(u, dtype=float)
        vel = s[..., 1]
        # the integrator may add a batch axis after the held input was formed
        acc = vel * 0.0 + u[..., 0]
        out = np.empty(acc.shape + (2,))
        out[..., 0] = vel
        out[..., 1] = acc
        return out

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
        p.update(T_values=(p["T"],), table_T=p["T"])
    T_values = list(p["T_values"])
    if any(not 0.0 < T < 0.5 for T in T_values):
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
    n, T_tab, steps_tab = len(x0), p["table_T"], p["table_steps"]
    y = np.full((2, steps_tab + 1, 2), np.nan)  # the Euler and exact tables' states

    def chunks(pmap, Y0, T, counts):  # Y0's rows, then the tables' row, in one rollout
        return _rollout_chunks(pmap.step, np.append(T, T_tab), 0, np.vstack([Y0, [1.0, 0.3]]),
                               np.append(counts, steps_tab))

    # every period's draws in one rollout, each row its own T and at most
    # 2,000 steps (horizon_index(2000 T, T) is 2000); each record's norms
    # are written as the chunks come, so no whole-horizon states are held
    steps = [horizon_index(min(p["decay_horizon_s"], 2000 * T), T) for T in T_decay]
    runs = [Trajectory(T, 0, x0.copy(), np.full((s + 1, n), np.nan))
            for T, s in zip(T_decay, steps)]
    for i0, states, rows, _ in chunks(emap, np.tile(x0, (len(runs), 1)), np.repeat(T_decay, n),
                                      np.repeat(steps, n)):
        for j, run in enumerate(runs):
            lo, hi = np.searchsorted(rows, (j * n, j * n + n))
            if lo < hi:
                run.norms[i0:i0 + len(states), rows[lo:hi] - j * n] = _norm(states[:, lo:hi])
        if rows[-1] == len(runs) * n:
            y[0, i0:i0 + len(states)] = states[:, -1]
    lam = p["decay_rate"]
    beta = fit_kl_envelope(runs, lam_grid=[lam])
    b = float(beta.params["M"])
    worst = _largest_ratio(runs, lam)
    del runs  # the records are not needed again; the stall check reuses their memory

    # the integrated plant keeps a unit-circle mode: generic states stall;
    # every period's stall states share the exact model's rollout, and each
    # keeps its smallest norm (the ratio is NaN once one of them died)
    x0_nc = np.tile([[1.0, 0.3], [0.0, 1.0], [1.0, 1.0], [1.0, 0.0]], (len(T_values), 1))
    norms0 = np.linalg.norm(x0_nc, axis=1)
    smallest = np.append(norms0, np.inf)  # the last, the tables' row, is not read
    for i0, states, rows, first_bad in chunks(xmap, x0_nc, np.repeat(T_values, 4),
                                              np.full(len(x0_nc), p["nonconv_steps"])):
        smallest[rows] = np.minimum(smallest[rows], _norm(states).min(axis=0))
        if rows[-1] == len(x0_nc):
            y[1, i0:i0 + len(states)] = states[:, -1]
    died = (first_bad[:-1] >= 0).any()
    min_ratio = math.nan if died else float(np.min(smallest[:-1] / norms0))
    nonconv_floor = p["nonconv_floor"]

    ks, tabs = np.arange(steps_tab + 1), {}
    for label, states in zip(("euler", "exact"), y):
        norms = [np.linalg.norm(row) for row in states]  # axis=1 differs in the last bit
        tabs[f"trajectory_{label}"] = (["k", "t", "x1", "x2", "norm"],
                                       np.column_stack([ks, ks * T_tab, states, norms]))

    status = 0 if (eig_dev <= 1e-10 and radius_dev <= 1e-6
                   and worst <= b * (1.0 + 1e-6) and min_ratio >= nonconv_floor) else 1
    metrics = {
        "euler_eig_deviation": eig_dev,
        "exact_unit_circle_deviation": radius_dev,
        "envelope_b": b,
        "envelope_rate": lam,
        "measured_sup_ratio": worst,
        "n_trajectories": len(T_decay) * len(x0),
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
    "refs": _PRESETS["demo"][0],
    "gains": _PRESETS["demo"][1],
    "divergence_norm": 1e6,
}


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
    try:  # a bad reference, a gain that is not positive or an unknown variant
        refs = _refs_from_spec(cfg["refs"])
        gains = [_gains_from_spec(g, T, variant) for variant in cfg["variants"]]
    except ValueError as err:
        raise ConfigError(str(err)) from err
    T_max = closed_loop_euler_cascade(refs, gains[0]).T_max
    if T > T_max:
        raise ConfigError(f"T exceeds the admissible T_max {T_max}")
    steps = horizon_index(cfg["horizon_s"], T)

    out = {"config": cfg, "variants": {}}
    for gain in gains:
        states, diverged, first_bad = _simulate_variant(refs, gain, T, cfg["initial_error"], steps,
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
    # a variant that diverged at its initial error has no scored rows to compare
    scored = {name for name, payload in out["variants"].items() if len(payload["rows"])}
    ordering = {f"ise_{name}_below_none": bool(ise[name] <= ise["none"])
                for name in per_variant if name != "none" and {name, "none"} <= scored}
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
    if len(set(p["T_list"])) != len(p["T_list"]):
        raise ConfigError("consistency-sweep.T_list must hold distinct periods, "
                          f"got {p['T_list']!r}")
    refs = _refs_from_spec(_PRESETS[p["regime"]][0])
    held = np.asarray(p["held_input"])
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


# --- Lyapunov chain audit ----------------------------------------------


_LYAP_DEFAULTS = {
    "regime": "validated",
    "T": 0.01,
    "L_pe": 2.0,
    "grid_n": 41,
    "radius": 5.0,
    "margin_rows": True,
}


def _run_lyapunov_audit(params: dict, seed: int) -> ExperimentResult:
    p = _with_defaults(params, _LYAP_DEFAULTS, "lyapunov-audit")
    T = p["T"]
    refs, gains = _preset(p["regime"], T)
    if T > (T_max := closed_loop_euler_cascade(refs, gains).T_max):
        raise ConfigError(f"T exceeds the admissible T_max {T_max}")
    grid_n, radius = p["grid_n"], p["radius"]
    consts = compute_case_constants(refs, gains, T, p["L_pe"], grid_n=grid_n, radius=radius)
    metrics = {"regime": p["regime"], "T": T, "constants": consts.to_json()}
    if not consts.all_valid:
        metrics["violated_flag"] = consts.first_violated()
        return ExperimentResult("lyapunov-audit", 1, metrics, {}, {})

    chain, definition, rows, prof = _audit_pass(refs, gains, consts, T, grid_n, radius,
                                                p["margin_rows"])
    metrics["chain"] = chain.to_json()
    metrics["definition_audit"] = definition.to_json()
    tables = ({"decrease_margins": (["sample_id", "norm", "bound", "measured", "margin"],
                                    _rows(rows))} if p["margin_rows"] else {})
    plots = {"decrease_profile": (["k", "t", "min_margin"], _rows(prof))}

    status = 0 if (chain.kind == "pass" and definition.kind == "pass") else 1
    return ExperimentResult("lyapunov-audit", status, metrics, tables, plots)


# --- sliding-window excitation ----------------------------------------


_PE_DEFAULTS = {
    "refs": _PRESETS["demo"][0],
    "L": math.pi,
    "mu": 600.0,
    "T_list": (0.01,),
}


def _run_pe_check(params: dict, seed: int) -> ExperimentResult:
    p = _with_defaults(params, _PE_DEFAULTS, "pe-check")
    T_list = list(p["T_list"])
    T0, L, mu = T_list[0], p["L"], p["mu"]
    try:
        refs = _refs_from_spec(p["refs"])
    except ValueError as err:  # a bad reference
        raise ConfigError(str(err)) from err

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


def _decay_records(sysm, z_grid, x_grid, grid, T_list, horizon_s):
    """Records of the driving grid, the unforced grid and the cascade grid,
    all from one stacked rollout per period.

    The rows are (0, z) for the driving grid, (x, 0) for the unforced grid
    and the cascade grid as given. g reads only z, so each (0, z) row's z
    runs as g alone would run it; g maps z = 0 to exactly 0, so each (x, 0)
    row's x runs as f at z = 0. The step treats rows independently, so
    every record has the bits of a rollout of its grid alone.
    """
    dx, nz, nx = sysm.dim_x, len(z_grid), len(x_grid)
    rows = np.concatenate([np.column_stack([np.zeros((nz, dx)), z_grid]),
                           np.column_stack([x_grid, np.zeros((nx, sysm.dim_z))]), grid])
    parts = ((slice(nz), slice(dx, None)), (slice(nz, nz + nx), slice(dx)),
             (slice(nz + nx, None), slice(None)))
    records = list(grid_rollouts(_stacked_step(sysm), rows, T_list, horizon_s,
                                 period=sysm.period, parts=parts))
    return records[0::3], records[1::3], records[2::3]


def _run_theorem_demo(params: dict, seed: int) -> ExperimentResult:
    p = _with_defaults(params, _THEOREM_DEFAULTS, "cascade-theorem-demo")
    if not p["eta"] < p["Delta"]:  # usc_probe needs eta in (0, Delta)
        raise ConfigError("cascade-theorem-demo.eta must be below cascade-theorem-demo.Delta, "
                          f"got eta={p['eta']!r} and Delta={p['Delta']!r}")
    T, T_list = p["T"], sorted(p["T_list"])
    horizon_s, Delta, Delta_z = p["horizon_s"], p["Delta"], p["Delta_z"]
    refs, gains = _preset("validated", T)
    sysm = closed_loop_euler_cascade(refs, gains)
    if max(T, T_list[-1]) > sysm.T_max:
        raise ConfigError(f"T or T_list exceeds the admissible T_max {sysm.T_max}")
    consts = compute_case_constants(refs, gains, T, p["L_pe"], grid_n=p["grid_n"],
                                    radius=p["radius"])
    if not consts.all_valid:
        return ExperimentResult("cascade-theorem-demo", 1,
                                {"violated_flag": consts.first_violated(),
                                 "constants": consts.to_json()}, {}, {})

    n_ball = p["n_ball"]
    metrics = {"T": T, "T_list": T_list, "constants": consts.to_json()}

    def decay(name, runs):
        beta = fit_kl_envelope(runs)
        verdict = spuas_escape(runs, beta, 0.0)
        metrics[name] = {"beta": beta.to_json(), "verdict": verdict.to_json()}
        return beta, verdict

    z_grid = sample_ball(Delta_z, 1, 17)
    z_runs, x_runs, runs = _decay_records(sysm, z_grid, sample_ball(Delta, 2, n_ball),
                                          sample_ball(Delta, 3, n_ball), T_list, horizon_s)
    beta_z, z_verdict = decay("driving_decay", z_runs)
    beta_x, x_verdict = decay("unforced_decay", x_runs)
    del x_runs

    mu_star = usc_probe(sysm, Delta, p["eta"], p["eps"], p["usc_L"], [T], list(p["mu_grid"]),
                        x0_count=p["usc_x0_count"])
    metrics["small_inputs"] = {"mu_star": mu_star}

    def interconnection():
        pts = sample_box(Box((-Delta, -Delta, -Delta_z), (Delta, Delta, Delta_z)), 2048)
        xi, xn, zn = _norm(pts), _norm(pts[:, :2]), _norm(pts[:, 2:])
        keep_x, keep_z = xi > 0, zn > 1e-15
        plain = list(_interconnection_terms(sysm, pts, T_list))
        # the coupling inflated by 1/T: f(k,x,0) + (f(k,x,z) - f(k,x,0)) / T
        doctored = [(TT, k, F0 + (F - F0) / TT, F0 + (F0 - F0) / TT) for TT, k, F, F0 in plain]

        def fit(terms):
            g1 = c = 0.0
            for TT, _, F, F0 in terms:
                g1 = max(g1, float(np.max(_norm(F)[keep_x] / xi[keep_x])))
                gap = _norm(F - F0)[keep_z]
                c = max(c, float(np.max(gap / (TT * (xn[keep_z] + 1.0) * zn[keep_z]))))
            return g1 * (1.0 + 1e-9), c * (1.0 + 1e-9)

        g1, c = fit(plain)
        gamma2 = ClassKFunction.affine_capped(c, c)
        gamma3 = ClassKFunction.identity()
        ok = _interconnection_verdict(plain, pts, 2, ClassKFunction.linear(g1), gamma2, gamma3)
        g1d, _ = fit(doctored)
        bad = _interconnection_verdict(doctored, pts, 2, ClassKFunction.linear(g1d), gamma2,
                                       gamma3)
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
        # each step's terms are made once: the fit keeps them for the audit
        cert_terms = list(_certificate_terms(cand, sysm, pts, [T], k_cert))
        zn = np.linalg.norm(pts[:, 2:], axis=1)
        keep = zn > 1e-15
        d = 0.0
        for _, _, v, step in cert_terms:
            v_next_z, v_next_0 = step()
            drift = v_next_z - v_next_0
            d = max(d, float(np.max(drift[keep] / (T * zn[keep] * (v[keep] + 1.0)))))
        d *= 1.0 + 1e-9

        cert_params = CertificateParams(
            alpha1=cand.alpha1,
            alpha2=cand.alpha2,
            c=0.0,
            gamma1=ClassKFunction.linear(d),
            gamma2=ClassKFunction.linear(d),
            phi=ClassKFunction.identity(),
        )
        cert, verdict = _certificate_verdict(cert_params, pts, 2, cert_terms)

        # the driving record at (T, 0) when T is a decay period, else a run of its own
        z_run = next((run for run in z_runs if run.T == T and run.k0 == 0), None)
        if z_run is None:
            (z_run,) = grid_rollouts(sysm.g, z_grid, [T], horizon_s, k0_set=[0])
        s0 = z_run.norms[0]
        # one contiguous row per trajectory: an axis-0 sum would add in another order
        terms = np.ascontiguousarray(np.asarray(cert.mu_fn(z_run.norms), dtype=float).T)
        budget = float(np.max(T * np.sum(terms[s0 > 0.0], axis=1) / s0[s0 > 0.0], initial=0.0))
        summable = check_summability([z_run], cert.mu_fn,
                                     ClassKFunction.linear(budget * 1.05), T)
        metrics["growth_certificate"] = {
            "drift_gain": d, "mu_gain": float(cert.mu_fn.params["gain"]),
            "summability_budget_gain": budget * 1.05,
            "rho_at_half": float(cert.rho_built(0.5)),
            "rho_at_e": float(cert.rho_built(math.e)),
            "verdict": verdict.to_json(), "summability": summable.to_json()}
        return verdict, summable

    cert_verdict, summable = growth_certificate()

    beta_c, cascade_verdict = decay("cascade", runs)
    kappa = _largest_ratio(runs, 0.0)
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
