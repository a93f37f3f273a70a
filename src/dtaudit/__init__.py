"""Numerical audits for sampled-data control designs.

The package builds parameterized discrete-time models of continuous
plants, simulates time-varying cascades, audits stability and
consistency claims on deterministic grids, and ships the reference
case studies behind the `dtaudit` command line tool.
"""

from ._integrate import IntegrationError, QuadratureError
from ._sampling import Box, sample_ball, sample_box
from .cascade import (CascadeSystem, DivergenceError, InputSequence,
                      Trajectory, check_interconnection_bound,
                      estimate_usc_constants, simulate_cascade,
                      simulate_driven, usc_probe)
from .discretize import (ConsistencyReport, EstimateFailure,
                         ParameterizedMap, VectorField, consistency_order,
                         euler_map, exact_proxy_map,
                         linear_exact_map, lipschitz_growth_estimate,
                         modified_euler_map)
from .experiments import (ConfigError, ExperimentResult, EXPERIMENTS,
                          double_integrator_field, list_experiments,
                          period_scaled_feedback, run_comparison_experiment,
                          run_named)
from .numerics import (ClassKFunction, EnvelopeFalsified, KLBound,
                       fit_kl_envelope, horizon_index, kl_compose, kl_shift)
from .stability import (CertificateParams, LyapunovCandidate,
                        PreconditionError, UGBCertificate, audit_lyapunov,
                        build_ugb_certificate, check_boundedness,
                        check_iisns, check_summability, falsify_spuas)
from .unicycle import (CaseStudyConstants, ControllerGains,
                       CorrectionDomainError, ReferenceSignal,
                       TrackingErrorState, audit_lyapunov_chain, check_pe,
                       closed_loop_display_parts, closed_loop_euler_cascade,
                       compute_case_constants, correction_bound,
                       controller_callable, demo_gains, demo_references,
                       error_dynamics_field, lyap_U, lyap_V, lyap_V_bounds,
                       lyap_W, lyap_W_bounds, pe_window_sums,
                       redesign_correction, tracking_controller,
                       validated_gains, validated_references)
from .verdict import StabilityVerdict, Witness

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
