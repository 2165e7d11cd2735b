import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import beamstab as bs
from conftest import ref1_coeffs


class TestStabilityNumbers:
    def test_ref1_bgp(self, ref1):
        rep = bs.stability_numbers(ref1["BGP"])
        assert rep.chi_g == pytest.approx(1.0, abs=1e-12)
        assert rep.chi_h == pytest.approx(1.0, abs=1e-12)
        assert rep.sigma_g == pytest.approx(0.0, abs=1e-12)
        assert rep.sigma_h == pytest.approx(0.0, abs=1e-12)
        assert rep.chi0 == pytest.approx(1.0, abs=1e-12)
        assert rep.chi1 == pytest.approx(1.0, abs=1e-12)

    def test_refexp_bgp(self, refexp):
        rep = bs.stability_numbers(refexp)
        assert rep.chi_g == pytest.approx(0.0, abs=1e-12)
        assert rep.chi_h == pytest.approx(0.0, abs=1e-12)

    def test_ref1_bmc(self, ref1):
        rep = bs.stability_numbers(ref1["BMC"])
        assert rep.chi_sigma == pytest.approx(1.0, abs=1e-12)
        assert rep.chi_tau == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("varpi", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
    def test_relaxed_equals_memory_with_exponential_kernel(self, varpi, sigma):
        # the relaxed-flux number equals the memory number computed from the
        # matching exponential kernel, exactly
        c = ref1_coeffs(varpi=varpi, sigma=sigma)
        mc = bs.stability_numbers(bs.SystemSpec("TMC", c))
        k = bs.exponential_kernel(varpi, sigma)
        gp = bs.stability_numbers(bs.SystemSpec("TGP", c, kernel_g=k))
        assert mc.chi_sigma == gp.chi_g


class TestClassify:
    def test_ref1_polynomial(self, ref1):
        assert bs.stability_numbers(ref1["BGP"]).classification == bs.POLY_SQRT

    def test_refexp_exponential(self, refexp):
        assert bs.stability_numbers(refexp).classification == bs.EXPONENTIAL

    def test_product_rule_single_zero_factor(self, unit_exp):
        # chi_g = 0 but chi_h = 1: the product still vanishes
        c = ref1_coeffs(varpi=2.0)
        kg = unit_exp                          # varpi*g(0) = 2 -> chi_g = 0
        kh = bs.exponential_kernel(2.0, 1.0)   # varpi*h(0) = 1 -> chi_h = 1
        rep = bs.stability_numbers(bs.SystemSpec("BGP", c, kernel_g=kg, kernel_h=kh))
        assert rep.chi_g == pytest.approx(0.0, abs=1e-12)
        assert rep.chi_h == pytest.approx(1.0, abs=1e-12)
        assert rep.classification == bs.EXPONENTIAL

    def test_fourier_models(self, ref1):
        assert bs.stability_numbers(ref1["BF"]).classification == bs.POLY_SQRT
        assert bs.stability_numbers(ref1["TF"]).classification == bs.POLY_SQRT


class TestCheckPhysical:
    def test_ref1_constraints_hold(self, ref1):
        rep = bs.stability_numbers(ref1["BF"])
        phydef, compatible = bs.check_physical(ref1["BF"].coeffs, rep)
        assert phydef == (True, True)
        # classical law: constraints force chi0, chi1 > 0
        assert not compatible

    def test_refexp_compatible(self, refexp):
        rep = bs.stability_numbers(refexp)
        phydef, compatible = bs.check_physical(refexp.coeffs, rep)
        assert phydef == (True, True)
        assert compatible


class TestModeCondition:
    def test_ref1_clean(self):
        assert bs.mode_condition(ref1_coeffs(), 100) == []

    def test_l_one(self):
        assert bs.mode_condition(ref1_coeffs(l=1.0), 100) == [1]

    def test_l_two(self):
        assert bs.mode_condition(ref1_coeffs(l=2.0), 100) == [2]

    def test_needs_positive_n(self):
        with pytest.raises(bs.DomainError):
            bs.mode_condition(ref1_coeffs(), 0)


class TestTuneChiZero:
    def test_memory_target(self):
        x = bs.tune_chi_zero(ref1_coeffs(), "chi_g")
        assert x == pytest.approx(2.0, abs=1e-14)

    def test_relaxation_target(self):
        s = bs.tune_chi_zero(ref1_coeffs(), "chi_sigma")
        assert s == pytest.approx(0.5, abs=1e-14)

    def test_roundtrip_memory(self):
        c = ref1_coeffs(rho3=1.3, b=2.7, varpi=1.7)
        x = bs.tune_chi_zero(c, "chi_g")
        # realize varpi*g(0) = x: g(0) = 1/(varpi*s), so s = 1/x
        kernel = bs.exponential_kernel(c.varpi, 1.0 / x)
        spec = bs.SystemSpec("TGP", c, kernel_g=kernel)
        rep = bs.stability_numbers(spec)
        assert abs(rep.chi_g) < 1e-12

    def test_roundtrip_relaxation(self):
        c0 = ref1_coeffs(rho3=0.9, k0=3.1)
        tau = bs.tune_chi_zero(c0, "chi_tau")
        c = ref1_coeffs(rho3=0.9, k0=3.1, tau=tau)
        rep = bs.stability_numbers(bs.SystemSpec("BMC", c))
        assert abs(rep.chi_tau) < 1e-12

    def test_infeasible_when_wave_speeds_match(self):
        # b = k rho2 / rho1 kills the first factor; gamma^2/x > 0 remains
        c = ref1_coeffs(b=1.0, k0=1.0)
        with pytest.raises(bs.InfeasibleError):
            bs.tune_chi_zero(c, "chi_g")


class TestSpecValidation:
    def test_missing_kernel_h(self, unit_exp):
        with pytest.raises(bs.SpecError, match="kernel_h"):
            bs.SystemSpec("BGP", ref1_coeffs(), kernel_g=unit_exp)

    def test_missing_relaxation_time(self):
        c = ref1_coeffs(sigma=None, tau=None)
        with pytest.raises(bs.SpecError, match="sigma"):
            bs.SystemSpec("TMC", c)

    def test_non_unit_mass_rejected(self):
        heavy = bs.prony_kernel([(2.0, 1.0)])
        with pytest.raises(bs.SpecError, match="mass"):
            bs.SystemSpec("TGP", ref1_coeffs(), kernel_g=heavy)

    def test_unknown_model(self, unit_exp):
        with pytest.raises(bs.SpecError):
            bs.SystemSpec("XXX", ref1_coeffs())

    def test_nonpositive_coefficient(self):
        with pytest.raises(bs.SpecError, match="rho1"):
            bs.BeamCoefficients(rho1=0.0, rho2=1, rho3=1, k=1, k0=2, b=2,
                                varpi=1, gamma=1, l=0.5, ell=np.pi)


@settings(max_examples=100, deadline=None)
@given(rho1=st.floats(0.1, 10), rho2=st.floats(0.1, 10),
       k=st.floats(0.1, 10), margin=st.floats(0.01, 10))
def test_physical_constraints_exclude_classical_exponential(rho1, rho2, k, margin):
    # under both constraints, chi0 > 0 and chi1 > 0, so chi0*chi1 never vanishes
    b = k * rho2 / rho1 + margin
    k0 = b * rho1 / rho2
    c = bs.BeamCoefficients(rho1=rho1, rho2=rho2, rho3=1.0, k=k, k0=k0, b=b,
                            varpi=1.0, gamma=1.0, l=0.5, ell=np.pi)
    rep = bs.stability_numbers(bs.SystemSpec("BF", c))
    phydef, compatible = bs.check_physical(c, rep)
    assert phydef == (True, True)
    assert rep.chi0 > 0 and rep.chi1 > 0
    assert not compatible
