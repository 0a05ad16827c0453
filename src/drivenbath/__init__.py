"""Work statistics of cyclically driven Ohmic baths with qubit coupling.

The package computes characteristic functions and work distributions for
a Gaussian-driven quasiparticle channel of a thermal bath, alone or
coupled to a spin, fermionic or topological two-level system, and derives
work extraction, entropy production and heat-engine/refrigerator figures
of merit, plus 2-D parameter sweeps with zero-contour extraction.
"""

from .green import green_pair, green_pure_bath, green_qubit
from .model import (Coupling, DrivenSource, FrequencyGrid, OhmicSpectrum,
                    QubitSpec, Rule, SystemSpec, beta_q, validate, with_param)
from .quadrature import (InversionPlan, QuadratureError, default_plan,
                         integrate_lambda, invert_samples, lambda_weight,
                         oscillatory_pair)
from .spectral import (bose_occupation, bosonic_wightman,
                       damped_wightman_pair, fermi_occupation, ohmic_density,
                       wightman_pair)
from .sweep import (Axis, Quantity, SweepError, SweepPlan, beta_q_marker,
                    extract_zero_contour, run_sweep)
from .thermo import EngineMode, engine_report, entropy_production, heat_flows
from .workstats import (ConstraintError, InversionError,
                        PerturbativeBreakdownError, atom_weight2,
                        channel_sum_integral, chi2, chi2_at_i_beta,
                        chi2_field, chi_nonperturbative, correction_field,
                        crooks_ratio, default_w_grid, invert_characteristic,
                        mean_work_finite_difference, positivity_check, w_ext2,
                        wdf2, wdf_nonperturbative)

__version__ = "0.1.0"

__all__ = [
    "Axis", "ConstraintError", "Coupling", "DrivenSource", "EngineMode",
    "FrequencyGrid", "InversionError", "InversionPlan", "OhmicSpectrum",
    "PerturbativeBreakdownError", "Quantity", "QuadratureError", "QubitSpec",
    "Rule", "SweepError", "SweepPlan", "SystemSpec", "atom_weight2", "beta_q",
    "beta_q_marker", "bose_occupation", "bosonic_wightman",
    "channel_sum_integral", "chi2", "chi2_at_i_beta", "chi2_field",
    "chi_nonperturbative", "correction_field", "crooks_ratio",
    "damped_wightman_pair", "default_plan", "default_w_grid",
    "engine_report", "entropy_production", "extract_zero_contour",
    "fermi_occupation", "green_pair", "green_pure_bath", "green_qubit",
    "heat_flows", "integrate_lambda", "invert_characteristic",
    "invert_samples", "lambda_weight", "mean_work_finite_difference",
    "ohmic_density", "oscillatory_pair", "positivity_check", "run_sweep",
    "validate", "w_ext2", "wdf2", "wdf_nonperturbative", "wightman_pair",
    "with_param",
]
