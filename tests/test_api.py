import beamstab

# The package's public names: merging internals must not drop one silently,
# so a name leaves this list only on purpose.
PUBLIC = [
    "AdmissibilityError", "AdmissibilityReport", "BeamCoefficients",
    "BeamstabError", "DecayFit", "DetCheck", "DissipationInfo", "DomainError",
    "EXPONENTIAL", "FitError", "GrowthFit", "InfeasibleError",
    "LowerBoundSequence", "MODELS", "Masses", "MemoryGrid", "MemoryKernel",
    "ModalState", "ModeSystem", "NumericError", "POLY_SQRT", "ResolventSample",
    "SingularWeightError", "SpecError", "SpectralAbscissa",
    "SpectralPointError", "StabilityReport", "SystemSpec", "Trajectory",
    "UnsupportedMapError", "assemble", "cg_mix", "check_admissibility",
    "check_physical", "classify", "decay_fit", "det_check", "dissipation_rate",
    "dynamics", "errors", "exponential_kernel", "fit_growth", "fourier_mu",
    "kernel_from_config", "kernels", "lambda_lift", "lambda_map",
    "lower_bound", "make_grid", "masses", "mc_twin", "mn_matrix", "modal",
    "mode_condition", "mode_resolvent_norm", "model", "mu_at", "normalized",
    "omega", "prony_kernel", "propagate", "rescaled", "resolvent", "rl_defect",
    "semiuniform_norm", "semiuniform_series", "singular_limit",
    "spectral_abscissa", "stability_numbers", "sweep", "tabulated_kernel",
    "tune_chi_zero", "weight_matrix",
]


def test_public_names_unchanged():
    assert sorted(beamstab.__all__) == PUBLIC
