"""Solution machinery and stability certificates for linear time-varying
Caputo fractional systems with point delays."""

__version__ = "0.1.0"

from .certificates import (CertificateReport, DelayFreeBounds, cert_g_f,
                           cert_g_h, cert_g_hat_f, cert_g_hat_h, certify,
                           delay_free_certify, gain_bound_l2,
                           gain_bound_uniform, high_order_check)
from .kernels import (DecayEnvelope, Kernels, fit_decay_envelope, phi_alpha,
                      phi_alpha_j, phi_alpha_l1, phi_alpha_l2sq,
                      verify_lemma22)
from .mlf import gamma_fn, ml_matrix, ml_scalar, ml_scalar_array
from .solver import (SimulationGrid, Trajectory, align_grid, picard_map,
                     solve_delay_free, solve_oracle, solve_trajectory)
from .spectral import (BetaWeights, SpectralDecomposition,
                       composite_block_norm, condition_number, decompose,
                       frac_power_measure, matrix_measure, matrix_norm,
                       optimize_beta, theorem34_certify)
from .system import (ControlInput, FractionalDelaySystem, InitialConditionSet,
                     ValidatedProblem, load_problem, problem_from_dict,
                     problem_to_dict, validate_system)
from .tables import TimeFunctionTable, l2_window_norm, sup_norm_bound

__all__ = [name for name in dir() if not name.startswith("_")]
