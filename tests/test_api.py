import numpy as np
import pytest

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


@pytest.mark.parametrize("call", [
    lambda spec: beamstab.sweep(spec, [np.nan], 8),
    lambda spec: beamstab.sweep(spec, [np.inf], 8),
    lambda spec: beamstab.sweep(spec, [0.0], 0),
    lambda spec: beamstab.mode_resolvent_norm(beamstab.assemble(spec, 1), np.nan),
    lambda spec: beamstab.semiuniform_series(spec, [np.nan], 8),
    lambda spec: beamstab.spectral_abscissa(spec, 0),
], ids=["sweep-nan", "sweep-inf", "sweep-n_max-0", "mode_resolvent_norm-nan",
        "semiuniform_series-nan", "spectral_abscissa-0"])
def test_bad_input_raises_domain_error(ref1, call):
    with pytest.raises(beamstab.DomainError):
        call(ref1["BGP"])


@pytest.mark.parametrize("call", [
    lambda spec: beamstab.semiuniform_series(spec, [1.0], 0),
    lambda spec: beamstab.semiuniform_norm(spec, 1.0, 0),
    lambda spec: beamstab.decay_fit(np.arange(1.0, 10.0), [1.0] * 8 + [np.nan], "algebraic"),
    lambda spec: beamstab.propagate(beamstab.assemble(spec, 1),
                                    np.ones(10, dtype=complex), [0.0, np.nan]),
    lambda spec: beamstab.sweep(spec, [[10.0, 20.0], [30.0, 40.0]], 8),
    lambda spec: beamstab.propagate(beamstab.assemble(spec, 1),
                                    np.ones(10, dtype=complex), [[0.0, 1.0]]),
    lambda spec: beamstab.sweep(spec, [[1.0], [2.0, 3.0]], 8),
    lambda spec: beamstab.sweep(spec, "abc", 8),
    lambda spec: beamstab.propagate(beamstab.assemble(spec, 1),
                                    np.ones(10, dtype=complex), [[1.0], [2.0, 3.0]]),
    lambda spec: beamstab.semiuniform_series(spec, "abc", 8),
], ids=["semiuniform_series-n_max-0", "semiuniform_norm-n_max-0", "decay_fit-nan",
        "propagate-nan", "sweep-2d-grid", "propagate-2d-times", "sweep-ragged-grid",
        "sweep-string-grid", "propagate-ragged-times", "semiuniform_series-string-times"])
def test_empty_or_malformed_input_raises_domain_error(ref1, call):
    with pytest.raises(beamstab.DomainError):
        call(ref1["BGP"])


def _samples(values):
    return [beamstab.ResolventSample(lam=lam, value=v, argmax_n=1)
            for lam, v in zip(np.geomspace(10.0, 1e3, len(values)), values)]


@pytest.mark.parametrize("call", [
    lambda spec: beamstab.sweep(spec, [10.0], np.nan),
    lambda spec: beamstab.sweep(spec, [10.0], 2.5),
    lambda spec: beamstab.sweep(spec, [10.0], True),
    lambda spec: beamstab.spectral_abscissa(spec, 2.5),
    lambda spec: beamstab.spectral_abscissa(spec, np.nan),
    lambda spec: beamstab.semiuniform_series(spec, [1.0], 2.5),
    lambda spec: beamstab.semiuniform_series(spec, [1.0], np.nan),
    lambda spec: beamstab.semiuniform_norm(spec, 1.0, 2.5),
    lambda spec: beamstab.semiuniform_norm(spec, 1.0, np.nan),
    lambda spec: beamstab.semiuniform_series(spec, [[1.0, 2.0], [3.0, 4.0]], 8),
    lambda spec: beamstab.decay_fit([1.0] * 8 + [np.nan], np.ones(9), "algebraic"),
    lambda spec: beamstab.decay_fit(np.ones((3, 3)), np.ones((3, 3)), "exponential"),
    lambda spec: beamstab.fit_growth(_samples([1.0] * 8 + [np.nan])),
    lambda spec: beamstab.mn_matrix(spec, 1, np.nan),
    lambda spec: beamstab.make_grid(spec.kernel_g, 8.5),
], ids=["sweep-n_max-nan", "sweep-n_max-2.5", "sweep-n_max-bool",
        "spectral_abscissa-n_max-2.5", "spectral_abscissa-n_max-nan",
        "semiuniform_series-n_max-2.5", "semiuniform_series-n_max-nan",
        "semiuniform_norm-n_max-2.5", "semiuniform_norm-n_max-nan",
        "semiuniform_series-2d-times", "decay_fit-nan-time", "decay_fit-2d",
        "fit_growth-nan-value", "mn_matrix-nan-lambda", "make_grid-fractional-nodes"])
def test_bad_count_or_value_raises_domain_error(ref1, call):
    # a count (n_max, grid nodes) is an integer and not a bool; times,
    # values and lambda are finite, and times and values 1-d
    with pytest.raises(beamstab.DomainError):
        call(ref1["BGP"])
