"""Work statistics of cyclically driven Ohmic baths with qubit coupling.

The package computes characteristic functions and work distributions for
a Gaussian-driven quasiparticle channel of a thermal bath, alone or
coupled to a spin, fermionic or topological two-level system, and derives
work extraction, entropy production and heat-engine/refrigerator figures
of merit, plus 2-D parameter sweeps with zero-contour extraction.
"""

from .model import (Coupling, DrivenSource, FrequencyGrid, OhmicSpectrum,
                    QubitSpec, Rule, SystemSpec, beta_q, validate, with_param)
from .quadrature import (InversionPlan, QuadratureError, default_plan,
                         invert_samples, lambda_weight, oscillatory_pair)
from .sweep import (Axis, Quantity, SweepError, SweepPlan, beta_q_marker,
                    extract_zero_contour, run_sweep)
from .thermo import EngineMode, engine_report, entropy_production, heat_flows
from .workstats import (ConstraintError, InversionError,
                        PerturbativeBreakdownError, atom_weight2,
                        channel_sum_integral, chi2, chi2_at_i_beta,
                        chi2_field, correction_field, crooks_ratio,
                        default_w_grid, mean_work_finite_difference,
                        positivity_check, w_ext2, wdf2, wdf_nonperturbative)

__version__ = "0.1.0"

__all__ = [
    "Axis", "ConstraintError", "Coupling", "DrivenSource", "EngineMode",
    "FrequencyGrid", "InversionError", "InversionPlan", "OhmicSpectrum",
    "PerturbativeBreakdownError", "Quantity", "QuadratureError", "QubitSpec",
    "Rule", "SweepError", "SweepPlan", "SystemSpec", "atom_weight2", "beta_q",
    "beta_q_marker", "channel_sum_integral", "chi2", "chi2_at_i_beta",
    "chi2_field", "correction_field", "crooks_ratio", "default_plan",
    "default_w_grid", "engine_report", "entropy_production",
    "extract_zero_contour", "heat_flows", "invert_samples", "lambda_weight",
    "mean_work_finite_difference", "oscillatory_pair", "positivity_check",
    "run_sweep", "validate", "w_ext2", "wdf2", "wdf_nonperturbative",
    "with_param",
]
