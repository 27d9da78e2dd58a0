"""Adaptive classification of nonlinearly parameterized temporal signals.

A bank of small fixed-weight dynamical subsystems (one per candidate signal
family) watches a measured signal; each subsystem couples a filter copy to a
unit-circle rotator that sweeps the family's parameter range and stalls
where the filter mismatch vanishes. The package provides the subsystem
dynamics with explicit tuning formulas, a deterministic fixed-step
integrator, verification tools for the underlying excitation and winding
arguments, a sigmoid-network realization of the same dynamics, the decision
read-outs, and a config-driven command line runner.
"""

from .analysis import (
    ConvergenceReport,
    PEReport,
    check_state_bounds,
    convergence_report,
    verify_filtered_pe,
)
from .classify import DecisionReport, decide
from .config import VERSION as __version__
from .config import ExperimentConfig, config_hash, load_config
from .integrator import Trajectory, integrate_system, rk4_step
from .plant import PlantSpec, make_noise
from .prototype import (
    PrototypeConfig,
    TuningReport,
    bank_kernel,
    choose_winding,
    compute_L,
    compute_c,
    error_bound,
    prototype_rhs,
    theta_hat,
    tune_gamma,
    tune_hstar,
)
from .rnn import (
    SigmoidNetwork,
    divergence_check,
    domain_box,
    estimate_rhs_lipschitz,
    fit_network,
    sample_rhs,
)
from .signals import (
    InputSignal,
    RhoEnvelope,
    SignalClass,
    builtin_class,
    degenerate_xi,
    persistency_envelope,
    sin_input,
)
