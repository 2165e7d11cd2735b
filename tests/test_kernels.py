import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import beamstab as bs
from beamstab import kernels as kmod


def tabulated_exp(n_nodes=4001, s_last=23.0):
    s = np.linspace(0.0, s_last, n_nodes)
    return bs.tabulated_kernel(s, np.exp(-s), delta_tail=1.0, delta=1.0)


class TestMuAt:
    def test_prony_at_zero_and_infinity(self, unit_exp):
        assert bs.mu_at(unit_exp, 0.0) == 1.0
        assert bs.mu_at(unit_exp, 80.0) < 1e-30

    def test_closed_form_exp_minus_one(self):
        k = bs.exponential_kernel(1.0, 1.0)
        assert bs.mu_at(k, 1.0) == pytest.approx(np.exp(-1.0), abs=1e-15)

    def test_negative_s_rejected(self, unit_exp):
        with pytest.raises(bs.DomainError):
            bs.mu_at(unit_exp, -0.5)

    def test_tabulated_interpolation_and_tail(self):
        k = bs.tabulated_kernel([0.0, 1.0, 2.0], [1.0, 0.5, 0.25],
                                delta_tail=0.7, delta=0.1)
        assert bs.mu_at(k, 0.5) == pytest.approx(0.75)
        assert bs.mu_at(k, 3.0) == pytest.approx(0.25 * np.exp(-0.7))


class TestMasses:
    def test_unit_exponential(self, unit_exp):
        m = bs.masses(unit_exp)
        assert (m.g_total, m.g0, m.mu0) == (1.0, 1.0, 1.0)

    def test_exponential_kernel_varpi1_sigma2(self):
        # prony{(1/4, 2)}: g_total = a th^2 = 1, g0 = a th = 1/2, mu0 = 1/4
        m = bs.masses(bs.exponential_kernel(1.0, 2.0))
        assert m.g_total == pytest.approx(1.0, abs=1e-15)
        assert m.g0 == pytest.approx(0.5, abs=1e-15)
        assert m.mu0 == pytest.approx(0.25, abs=1e-15)

    def test_tabulated_exp_matches_closed_form(self):
        m = bs.masses(tabulated_exp(n_nodes=12001))
        assert m.g_total == pytest.approx(1.0, abs=1e-6)
        assert m.g0 == pytest.approx(1.0, abs=1e-6)
        assert m.mu0 == pytest.approx(1.0, abs=0)

    def test_g0_against_fine_trapezoid_oracle(self):
        k = bs.prony_kernel([(0.7, 0.8), (0.3, 2.0)])
        s = np.linspace(0.0, 120.0, 2_000_001)
        oracle = np.trapezoid(bs.mu_at(k, s), s)
        assert bs.masses(k).g0 == pytest.approx(oracle, rel=1e-8)

    def test_non_summable_tail_rejected(self):
        k = bs.tabulated_kernel([0.0, 1.0], [1.0, 0.5], delta_tail=-1.0, delta=0.1)
        with pytest.raises(bs.AdmissibilityError):
            bs.masses(k)


class TestAdmissibility:
    def test_unit_exp_all_pass(self, unit_exp):
        rep = bs.check_admissibility(unit_exp)
        assert rep.admissible
        assert all(c.passed for c in rep.checks)

    def test_envelope_rate_too_large_fails(self):
        k = bs.prony_kernel([(1.0, 1.0)], delta=2.0)
        rep = bs.check_admissibility(k)
        assert not rep.admissible
        assert not rep["envelope"].passed
        assert rep["envelope"].margin == pytest.approx(-1.0)

    def test_tabulated_monotonicity_violation(self):
        k = bs.tabulated_kernel([0.0, 1.0, 2.0], [1.0, 1.2, 0.5],
                                delta_tail=1.0, delta=0.1)
        rep = bs.check_admissibility(k)
        assert not rep["nonincreasing"].passed

    def test_unit_mass_entry_is_informational(self):
        k = bs.prony_kernel([(2.0, 1.0)])  # mass 2
        rep = bs.check_admissibility(k)
        assert rep.admissible
        assert not rep["unit_mass"].passed
        assert rep["unit_mass"].margin == pytest.approx(1.0)


class TestFourier:
    def test_at_zero_gives_total_mass(self, unit_exp):
        assert bs.fourier_mu(unit_exp, 0.0) == pytest.approx(1.0)

    def test_unit_exp_closed_form(self, unit_exp):
        got = bs.fourier_mu(unit_exp, 1.0)
        assert got == pytest.approx(0.5 - 0.5j, abs=1e-15)

    @pytest.mark.parametrize("lam", [10.0, 100.0, 1000.0])
    def test_tabulated_matches_closed_form(self, lam):
        k = tabulated_exp(n_nodes=12001)
        exact = 1.0 / (1.0 + 1j * lam)
        assert abs(bs.fourier_mu(k, lam) - exact) <= 1e-6 * abs(exact)

    def test_exponential_kernel_transform_identity(self):
        # for the relaxed-flux equivalent kernel:
        # muhat(lam) = 1 / (varpi sigma (i lam sigma varpi + 1))
        for varpi, sigma in [(1.0, 1.0), (2.0, 0.5), (0.5, 2.0)]:
            k = bs.exponential_kernel(varpi, sigma)
            for lam in (0.3, 3.0, 30.0):
                expected = 1.0 / (varpi * sigma * (1j * lam * sigma * varpi + 1.0))
                assert bs.fourier_mu(k, lam) == pytest.approx(expected, rel=1e-14)

    def test_negative_lambda_conjugate_symmetry(self, unit_exp):
        k = tabulated_exp()
        for kern in (unit_exp, k):
            z1 = bs.fourier_mu(kern, 7.0)
            z2 = bs.fourier_mu(kern, -7.0)
            assert z2 == pytest.approx(np.conj(z1), rel=1e-12)


class TestRlDefect:
    def test_unit_exp_closed_form(self, unit_exp):
        for lam in (10.0, 1000.0):
            assert bs.rl_defect(unit_exp, lam) == pytest.approx(
                1.0 / np.sqrt(1.0 + lam * lam), abs=1e-10)

    def test_decreasing_along_decades(self, unit_exp):
        kernels = [unit_exp,
                   bs.prony_kernel([(0.5, 0.5), (0.25, 1.5)]),
                   tabulated_exp()]
        for k in kernels:
            vals = [bs.rl_defect(k, 10.0**p) for p in range(1, 5)]
            assert all(np.isfinite(vals))
            assert all(a > b for a, b in zip(vals, vals[1:]))
            assert vals[-1] < vals[0]


class TestExponentialKernel:
    def test_unit_case(self):
        k = bs.exponential_kernel(1.0, 1.0)
        m = bs.masses(k)
        assert (m.g0, m.mu0) == (1.0, 1.0)

    def test_varpi2(self):
        m = bs.masses(bs.exponential_kernel(2.0, 1.0))
        assert m.g0 == pytest.approx(0.5)
        assert m.mu0 == pytest.approx(0.25)
        assert m.g_total == pytest.approx(1.0)

    @pytest.mark.parametrize("varpi", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
    def test_admissible_with_default_rate(self, varpi, sigma):
        k = bs.exponential_kernel(varpi, sigma)
        assert k.delta == pytest.approx(1.0 / (varpi * sigma))
        assert bs.check_admissibility(k).admissible

    def test_rejects_nonpositive(self):
        with pytest.raises(bs.DomainError):
            bs.exponential_kernel(0.0, 1.0)


class TestRescaled:
    def test_term_mapping(self, unit_exp):
        k = bs.rescaled(unit_exp, 0.5)
        assert k.terms == ((4.0, 0.5),)

    def test_mass_invariant(self):
        k = bs.prony_kernel([(0.7, 0.8), (0.3, 2.0)])
        for eps in (0.1, 0.5, 3.0):
            assert bs.masses(bs.rescaled(k, eps)).g_total == pytest.approx(
                bs.masses(k).g_total, abs=1e-15)

    def test_g0_scales_inversely(self, unit_exp):
        assert bs.masses(bs.rescaled(unit_exp, 0.1)).g0 == pytest.approx(10.0)

    def test_tabulated_mass_preserved(self):
        k = tabulated_exp()
        assert bs.masses(bs.rescaled(k, 0.25)).g_total == pytest.approx(
            bs.masses(k).g_total, rel=1e-10)


class TestCgMix:
    def test_near_one_share_recovers_kernel(self, unit_exp):
        k = bs.cg_mix(unit_exp, 0.01, 1.0 - 1e-12)
        m = bs.masses(k)
        assert m.g0 == pytest.approx(1.0, rel=1e-9)

    def test_mass_preserved(self, unit_exp):
        assert bs.masses(bs.cg_mix(unit_exp, 0.3, 0.4)).g_total == pytest.approx(1.0)

    def test_g0_arithmetic(self, unit_exp):
        # 0.5/0.01 * 1 + 0.5 * 1
        k = bs.cg_mix(unit_exp, 0.01, 0.5)
        assert bs.masses(k).g0 == pytest.approx(50.5)

    def test_share_out_of_range(self, unit_exp):
        with pytest.raises(bs.DomainError):
            bs.cg_mix(unit_exp, 0.1, 1.5)


# finite floats drawn with repeats: a few values, each picked many times
repeated = st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1,
                    max_size=6).flatmap(lambda pool: st.lists(st.sampled_from(pool), max_size=40))


@settings(max_examples=200, deadline=None)
@given(values=repeated)
@example(values=[])
@example(values=[2.5])
def test_distinct_gives_the_bits_of_np_unique(values):
    # np.unique imports numpy.ma on NumPy >= 2.3, so the package calls
    # _distinct; a log grid with no positive point hands it an empty array
    x = np.array(values, dtype=float)
    want, got = np.unique(x), kmod._distinct(x)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


prony_terms = st.lists(
    st.tuples(st.floats(0.01, 5.0), st.floats(0.05, 4.0)),
    min_size=1, max_size=4)


@settings(max_examples=60, deadline=None)
@given(terms=prony_terms)
def test_rl_defect_decays_for_random_kernels(terms):
    k = bs.prony_kernel(terms)
    v10 = bs.rl_defect(k, 10.0)
    v1e4 = bs.rl_defect(k, 1e4)
    assert np.isfinite(v10) and np.isfinite(v1e4)
    assert v1e4 < v10


@settings(max_examples=60, deadline=None)
@given(terms=prony_terms, eps=st.floats(0.05, 20.0))
def test_rescaled_preserves_mass_exactly(terms, eps):
    k = bs.prony_kernel(terms)
    assert bs.masses(bs.rescaled(k, eps)).g_total == pytest.approx(
        bs.masses(k).g_total, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(terms=st.lists(st.tuples(st.floats(0.01, 5.0), st.floats(0.1, 4.0)),
                      min_size=1, max_size=4))
def test_fourier_matches_quadrature_oracle(terms):
    # independent oscillatory oracle: dense trapezoid at moderate lambda
    k = bs.prony_kernel(terms)
    lam = 3.0
    s = np.linspace(0.0, 80.0, 400_001)
    oracle = np.trapezoid(bs.mu_at(k, s) * np.exp(-1j * lam * s), s)
    assert bs.fourier_mu(k, lam) == pytest.approx(oracle, rel=1e-6)
