import itertools
import sys
import threading
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import beamstab as bs
from beamstab import modal as modal_mod
from beamstab import resolvent as rmod
from beamstab.resolvent import ResolventSample
from conftest import _coeffs, admissible_specs, ref1_coeffs, wnorm


def construction_oracle(c, g0, h0, mu0, nu0, chi_g, chi_h):
    """Independent substitution of the curved-beam resonance constants.

    Evaluates the quadratic/leading coefficients alpha(c0) and beta(c0)
    exactly as displayed, solves alpha = 0 for c0 by hand, and returns
    (c0, beta(c0), cstar).  Shares no code with the library path.
    """
    sg = c.varpi * g0 - c.rho3 * c.k / c.rho1
    sh = c.varpi * h0 - c.rho3 * c.k / c.rho1

    def alpha(c0):
        return (c0 * chi_g * chi_h * (c.varpi * c.k / c.rho1) * g0 * h0
                + chi_h * sg * c.k**2 * h0
                + (chi_g / c.rho1)
                * (sh * c.rho1 * (c.k + c.k0)**2 - c.gamma**2 * c.k * (3 * c.k + c.k0))
                * c.l**2 * g0)

    def beta(c0):
        return (c0 * (c.varpi * c.k / c.rho1)
                * (h0 * mu0 * (c.b - c.rho2 * c.k / c.rho1) * chi_h
                   + g0 * nu0 * (c.k0 - c.k) * chi_g)
                - (c.varpi * c.k**3 / c.rho1) * h0 * mu0 * chi_h
                - (c.varpi * c.k / c.rho1) * g0 * nu0 * c.l**2 * (c.k + c.k0)**2 * chi_g
                + sg * (c.k0 - c.k) * c.k**2 * nu0
                + (c.b - c.rho2 * c.k / c.rho1)
                * (sh * c.rho1 * (c.k + c.k0)**2
                   - c.gamma**2 * c.k * (3 * c.k + c.k0)) * c.l**2 * mu0 / c.rho1)

    # alpha is linear in c0
    slope = chi_g * chi_h * (c.varpi * c.k / c.rho1) * g0 * h0
    c0 = -alpha(0.0) / slope
    assert abs(alpha(c0)) < 1e-12
    beta0 = beta(c0)
    cstar = (c.k / c.rho1) ** 2 * c.varpi * g0 * h0 * abs(chi_g * chi_h / beta0)
    return c0, beta0, cstar


def construction_oracle_straight(c, g0, mu0, chi_g):
    sg = c.varpi * g0 - c.rho3 * c.k / c.rho1

    def alpha(c0):
        return -c0 * chi_g * c.varpi * g0 * c.k / c.rho1 - c.k**2 * sg

    def beta(c0):
        return c.k**2 - c0 * (c.b - c.k * c.rho2 / c.rho1)

    c0 = -c.k**2 * sg / (chi_g * c.varpi * g0 * c.k / c.rho1)
    assert abs(alpha(c0)) < 1e-12
    beta0 = beta(c0)
    cstar = (g0 * c.k / (mu0 * c.rho1)) * abs(chi_g / beta0)
    return c0, beta0, cstar


class TestModeResolventNorm:
    def test_weight_scale_invariance(self, ref1):
        from dataclasses import replace
        m = bs.assemble(ref1["BMC"], 3)
        v1 = bs.mode_resolvent_norm(m, 2.7)
        v2 = bs.mode_resolvent_norm(replace(m, weight=5.0 * m.weight), 2.7)
        assert v2 == pytest.approx(v1, rel=1e-12)

    def test_lower_bounded_by_spectral_distance(self, ref1, rng):
        m = bs.assemble(ref1["BMC"], 5)
        ev = np.linalg.eigvals(m.generator)
        for lam in rng.uniform(0.5, 40.0, size=12):
            dist = np.min(np.abs(ev - 1j * lam))
            assert bs.mode_resolvent_norm(m, lam) >= 1.0 / dist * (1 - 1e-12)

    def test_far_field_matches_spectral_distance(self, ref1):
        m = bs.assemble(ref1["BMC"], 1)
        lam = 1e6
        dist = np.min(np.abs(np.linalg.eigvals(m.generator) - 1j * lam))
        v = bs.mode_resolvent_norm(m, lam)
        assert v == pytest.approx(1.0 / dist, rel=9.0)  # within a factor 10


class TestMnMatrix:
    def test_real_at_zero(self, ref1):
        # at lam = 0 every i*lam term vanishes and muhat(0) = g(0) is real;
        # the heat rows (premultiplied by i*lam in the elimination) vanish
        # entirely, so realness and elastic-block symmetry are what survives
        M = bs.mn_matrix(ref1["BGP"], 3, 0.0)
        assert np.allclose(M.imag, 0.0, atol=1e-14)
        assert np.allclose(M[:3, :3], M[:3, :3].T)
        assert np.allclose(M[3], 0.0) and np.allclose(M[4], 0.0)

    def test_curved_reduces_to_straight_at_zero_curvature(self, unit_exp):
        c0 = ref1_coeffs(l=0.0)
        bgp = bs.SystemSpec("BGP", c0, kernel_g=unit_exp, kernel_h=unit_exp)
        tgp = bs.SystemSpec("TGP", c0, kernel_g=unit_exp)
        M5 = bs.mn_matrix(bgp, 4, 3.3)
        M3 = bs.mn_matrix(tgp, 4, 3.3)
        keep = [0, 1, 3]
        np.testing.assert_allclose(M5[np.ix_(keep, keep)], M3, atol=0)
        # the dropped rows/columns decouple
        assert np.allclose(M5[np.ix_(keep, [2, 4])], 0.0)

    def test_uniquely_solvable_at_resonance(self, ref1):
        seq = bs.lower_bound(ref1["BGP"], [4])
        assert abs(seq.rows[0].det_m) > 0

    def test_relaxed_flux_closed_form(self, ref1):
        # the heat entries carry 1/(varpi s (i lam s varpi + 1)) for BMC
        c = ref1["BMC"].coeffs
        lam, n = 7.3, 2
        M = bs.mn_matrix(ref1["BMC"], n, lam)
        om = bs.omega(c.ell, n)
        muhat = 1.0 / (c.varpi * c.sigma * (1j * lam * c.sigma * c.varpi + 1.0))
        p4 = -c.rho3 * lam**2 + (1.0 / c.sigma) * om**2
        assert M[3, 3] == pytest.approx(p4 - c.varpi * om**2 * muhat, rel=1e-14)

    def test_fourier_tag_unsupported(self, ref1):
        with pytest.raises(bs.SpecError):
            bs.mn_matrix(ref1["BF"], 1, 1.0)


def assert_elimination_matches(spec, n, lam, rtol=None):
    """mn_matrix's unit first-row solve equals the displacements and
    temperatures of (i lam - G_n)^{-1} applied to the modal forcing (the
    deflection-rate component 1/rho1), to 100 eps relative times the sum of
    the condition numbers of both systems (measured: at most 1.3 eps times
    it on 400 random specs), and entry by entry to ``rtol`` if given."""
    unknowns = [lab for lab in ("defl", "rot", "axial", "temp_b", "temp_a")
                if spec.is_bresse or lab not in ("axial", "temp_a")]
    M = bs.mn_matrix(spec, n, lam)
    sol = np.linalg.solve(M, np.eye(len(unknowns), dtype=complex)[0])
    m = bs.assemble(spec, n)
    rhs = np.zeros(m.dim, dtype=complex)
    rhs[m.index("defl_t")] = 1.0 / spec.coeffs.rho1
    A = 1j * lam * np.eye(m.dim) - m.generator
    u = np.linalg.solve(A, rhs)
    picked = np.array([u[m.index(lab)] for lab in unknowns])
    kappa = np.linalg.cond(M) + np.linalg.cond(A)
    bound = 100 * np.finfo(float).eps * kappa * np.linalg.norm(sol)
    assert np.linalg.norm(picked - sol) <= bound
    if rtol is not None:
        np.testing.assert_allclose(picked, sol, rtol=rtol)


class TestModalConsistency:
    @pytest.mark.parametrize("tag", ["BMC", "BGP"])
    def test_eliminated_system_matches_mode_resolvent(self, ref1, tag):
        assert_elimination_matches(ref1[tag], 6, 5.9, rtol=1e-10)

    def test_straight_beam_consistency(self, ref1):
        assert_elimination_matches(ref1["TMC"], 3, 2.2, rtol=1e-10)

    @settings(max_examples=40, deadline=None)
    @given(spec=admissible_specs(("BGP", "BMC", "TGP", "TMC")),
           n=st.sampled_from([1, 2, 7, 40, 300]), lam_per_n=st.floats(0.05, 40.0))
    def test_random_coefficients(self, spec, n, lam_per_n):
        # generic densities and couplings: ref1 sets every density and gamma to 1
        assert_elimination_matches(spec, n, lam_per_n * n)

    @settings(max_examples=60, deadline=None)
    @given(spec=admissible_specs(("BGP", "BMC", "TGP", "TMC")), n=st.integers(1, 1000),
           u=st.floats(0.1, 6.0))
    def test_determinant_identity(self, spec, n, u):
        # M_n and the energy-coordinate generator are one eliminated system:
        # det M_n(lam) det(i lam - H0) / det(i lam - Gh_n) does not depend on the
        # kernel (the heat block's transfer is its transform exactly).  At a
        # resonance the determinants nearly vanish, so lam = u omega_n stays off it
        # (1,000 draws read gaps of at most 2.3e-13)
        c, stack = spec.coeffs, modal_mod._layout(spec, None)
        lam = u * modal_mod.omega(c.ell, n)
        H0, G = stack.heat.H0, modal_mod._generators(stack, [n])[0]
        ratio = (np.linalg.det(bs.mn_matrix(spec, n, lam))
                 * np.linalg.det(1j * lam * np.eye(len(H0)) - H0)
                 / np.linalg.det(1j * lam * np.eye(stack.dim) - G))
        want = (-lam ** 2 * c.rho1 ** 2 * c.rho2 * c.rho3 ** 2 if spec.is_bresse
                else 1j * lam * c.rho1 * c.rho2 * c.rho3)
        assert abs(ratio - want) <= 1e-11 * abs(want)


class TestLowerBound:
    def test_ref1_curved_constants(self, ref1):
        seq = bs.lower_bound(ref1["BGP"], [16, 64, 256])
        assert seq.c0 == pytest.approx(1.25, abs=1e-12)
        assert seq.beta0 == pytest.approx(-2.0, abs=1e-12)
        assert seq.cstar == pytest.approx(0.5, abs=1e-12)
        assert seq.forcing_norm == pytest.approx(np.sqrt(np.pi / 2), rel=1e-12)

    def test_ref1_straight_constants(self, ref1):
        seq = bs.lower_bound(ref1["TGP"], [64])
        assert seq.c0 == pytest.approx(0.0, abs=1e-12)
        assert seq.beta0 == pytest.approx(1.0, abs=1e-12)
        assert seq.cstar == pytest.approx(1.0, abs=1e-12)

    def test_constants_match_substitution_oracle(self, ref1):
        c = ref1["BGP"].coeffs
        c0, beta0, cstar = construction_oracle(c, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
        seq = bs.lower_bound(ref1["BGP"], [16])
        assert seq.c0 == pytest.approx(c0, abs=1e-12)
        assert seq.beta0 == pytest.approx(beta0, abs=1e-12)
        assert seq.cstar == pytest.approx(cstar, abs=1e-12)
        t0, tb, tc = construction_oracle_straight(c, 1.0, 1.0, 1.0)
        seqt = bs.lower_bound(ref1["TGP"], [16])
        assert (seqt.c0, seqt.beta0, seqt.cstar) == pytest.approx((t0, tb, tc), abs=1e-12)

    def test_oracle_on_generic_coefficients(self, unit_exp):
        # a second, non-reference parameter point
        c = ref1_coeffs(rho2=1.4, b=3.0, k0=2.6, gamma=0.8, l=0.3)
        spec = bs.SystemSpec("BGP", c, kernel_g=unit_exp, kernel_h=unit_exp)
        rep = bs.stability_numbers(spec)
        c0, beta0, cstar = construction_oracle(
            c, 1.0, 1.0, 1.0, 1.0, rep.chi_g, rep.chi_h)
        seq = bs.lower_bound(spec, [64, 256])
        assert seq.c0 == pytest.approx(c0, rel=1e-12)
        assert seq.beta0 == pytest.approx(beta0, rel=1e-12)
        assert seq.cstar == pytest.approx(cstar, rel=1e-12)
        # the measured amplitude ratio approaches the predicted constant
        r64, r256 = (r.ratio for r in seq.rows)
        assert abs(r256 - cstar) < abs(r64 - cstar)
        assert abs(r256 - cstar) <= 0.05 * cstar

    def test_cramer_agreement(self, ref1):
        seq = bs.lower_bound(ref1["BGP"], [8, 32, 128])
        for r in seq.rows:
            assert r.amp == pytest.approx(r.amp_cramer, rel=1e-8)
        assert not seq.notes

    def test_relaxed_flux_path_matches_memory_path(self, ref1):
        # the BMC construction with sigma = tau = 1 coincides with the BGP one
        sb = bs.lower_bound(ref1["BMC"], [32, 128])
        sg = bs.lower_bound(ref1["BGP"], [32, 128])
        assert sb.c0 == pytest.approx(sg.c0, rel=1e-14)
        assert sb.beta0 == pytest.approx(sg.beta0, rel=1e-14)
        assert sb.cstar == pytest.approx(sg.cstar, rel=1e-14)
        for rb, rg in zip(sb.rows, sg.rows):
            assert rb.ratio == pytest.approx(rg.ratio, rel=1e-12)

    def test_straight_beam_ignores_kernel_h(self, ref1, unit_exp):
        # a stray kernel_h enters neither the rows nor their tol_hint
        kh = bs.normalized(bs.prony_kernel([(1.0, 0.05), (1.0, 3.0)]))
        spec = bs.SystemSpec("TGP", ref1["TGP"].coeffs, kernel_g=unit_exp, kernel_h=kh)
        want = bs.lower_bound(ref1["TGP"], [16]).rows
        assert repr(bs.lower_bound(spec, [16]).rows) == repr(want)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_relaxed_flux_is_the_exponential_memory_law(self, data):
        # a relaxed flux is the memory law of its exponential kernels, so the
        # MC tag and its GP twin give the same numbers to the last bit
        model = data.draw(st.sampled_from(["BMC", "TMC"]))
        c = _coeffs(data.draw, model, fast_rotation=data.draw(st.booleans()))
        mc = bs.SystemSpec(model, c)
        curved = model == "BMC"
        twin = bs.SystemSpec(
            "BGP" if curved else "TGP", c, kernel_g=bs.exponential_kernel(c.varpi, c.sigma),
            kernel_h=bs.exponential_kernel(c.varpi, c.tau) if curved else None)
        rm, rg = bs.stability_numbers(mc), bs.stability_numbers(twin)
        names = {"chi_sigma": "chi_g", "chi_tau": "chi_h"}
        for name in rm.governing:
            assert getattr(rm, name) == getattr(rg, names[name])
            assert rm.scales[name] == rg.scales[names[name]]
        for name in ("chi0", "chi1", "sigma_g", "sigma_h", "classification"):
            assert getattr(rm, name) == getattr(rg, name)
        try:
            sm = bs.lower_bound(mc, [4, 64])
        except bs.InfeasibleError:
            with pytest.raises(bs.InfeasibleError):
                bs.lower_bound(twin, [4, 64])
        else:
            sg = bs.lower_bound(twin, [4, 64])
            assert (sm.c0, sm.beta0, sm.cstar, sm.notes) == (sg.c0, sg.beta0, sg.cstar, sg.notes)
            # repr, since a straight beam's nuhat is NaN, which is not == itself
            assert repr(sm.rows) == repr(sg.rows)
        lam = data.draw(st.floats(0.5, 50.0))
        assert (bs.mn_matrix(mc, 5, lam) == bs.mn_matrix(twin, 5, lam)).all()

    def test_vanishing_product_rejected(self, refexp):
        with pytest.raises(bs.InfeasibleError):
            bs.lower_bound(refexp, [4])

    def test_small_modes_skipped_with_note(self, unit_exp):
        # large c0 pushes lambda_1^2 below zero
        c = ref1_coeffs(rho2=4.0, b=10.0, k0=1.5, gamma=3.0, l=0.9)
        spec = bs.SystemSpec("BGP", c, kernel_g=unit_exp, kernel_h=unit_exp)
        seq = bs.lower_bound(spec, [1, 64])
        skipped = [n for n in (1,) if f"n={n} skipped" in " ".join(seq.notes)]
        present = {r.n for r in seq.rows}
        assert present <= {1, 64}
        assert (1 in present) != bool(skipped)


class TestDetCheck:
    @pytest.mark.parametrize("tag", ["BGP", "BMC", "TGP", "TMC"])
    def test_is_the_lower_bound_row_check(self, ref1, tag):
        for n in (1, 16, 256):
            assert bs.det_check(ref1[tag], n) == bs.lower_bound(ref1[tag], [n]).rows[0].check

    def test_classical_law_rejected_like_lower_bound(self, ref1):
        for tag in ("BF", "TF"):
            with pytest.raises(bs.SpecError):
                bs.det_check(ref1[tag], 16)

    def test_skipped_row_raises(self, unit_exp):
        c = ref1_coeffs(rho2=4.0, b=10.0, k0=1.5, gamma=3.0, l=0.9)
        spec = bs.SystemSpec("BGP", c, kernel_g=unit_exp, kernel_h=unit_exp)
        assert "n=1 skipped" in bs.lower_bound(spec, [1]).notes[0]
        with pytest.raises(bs.DomainError, match="not real at n=1"):
            bs.det_check(spec, 1)

    def test_gap_shrinks_with_mode_index(self, ref1):
        d10 = bs.det_check(ref1["BGP"], 10)
        d100 = bs.det_check(ref1["BGP"], 100)
        assert d100.gap_m < d10.gap_m
        assert d100.gap_a < d10.gap_a

    def test_straight_beam_gap(self, ref1):
        d = bs.det_check(ref1["TGP"], 200)
        assert d.gap_m < 0.05
        assert d.gap_a < 0.05

    def test_real_part_vanishes_by_construction(self, ref1):
        vals = []
        for n in (16, 64, 256):
            d = bs.det_check(ref1["BGP"], n)
            om = bs.omega(ref1["BGP"].coeffs.ell, n)
            vals.append(abs(d.det_m.real) / om**8)
        assert vals[1] < vals[0] and vals[2] < vals[1]


class TestSweep:
    def test_values_monotone_in_mode_cap(self, ref1):
        lams = [3.0, 9.0, 27.0]
        small = bs.sweep(ref1["BMC"], lams, 4, peak_refine=False)
        large = bs.sweep(ref1["BMC"], lams, 40, peak_refine=False)
        for a, b in zip(small, large):
            assert b.value >= a.value - 1e-12

    def test_zero_lambda_finite(self, ref1):
        out = bs.sweep(ref1["BMC"], [0.0], 16, peak_refine=False)
        assert np.isfinite(out[0].value) and out[0].value > 0

    def test_threads_deterministic(self, ref1):
        # more workers than cores and frequent switches: the threads share one
        # read-only mode cache, so every interleaving gives the serial samples
        lams = np.geomspace(5.0, 100.0, 6)
        a = bs.sweep(ref1["BMC"], lams, 16, threads=None)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            b = bs.sweep(ref1["BMC"], lams, 16, threads=8)
        finally:
            sys.setswitchinterval(interval)
        assert [(s.lam, s.value, s.argmax_n) for s in a] == \
               [(s.lam, s.value, s.argmax_n) for s in b]
        assert [s.work for s in a] == [s.work for s in b]

    def test_descending_grid_reverses_the_samples(self, ref1):
        # the bins follow the log axis whatever order the grid is given in
        g = np.geomspace(5.0, 400.0, 12)
        up = bs.sweep(ref1["BMC"], g, 16)
        assert _triples(bs.sweep(ref1["BMC"], g[::-1], 16)) == _triples(up)[::-1]

    def test_repeated_point_keeps_its_whole_bin(self, ref1):
        # both copies of 37 get the bin (21.07, 54.41] of the distinct point;
        # keyed by value, they got (37.0, 54.41] and (21.07, 37.0) was lost
        lo, hi = rmod._log_bins(np.array([12.0, 37.0, 37.0, 80.0]))
        lo1, hi1 = rmod._log_bins(np.array([12.0, 37.0, 80.0]))
        assert lo[1] == lo[2] == lo1[1] < 37.0 and hi[1] == hi[2] == hi1[1]
        once = _triples(bs.sweep(ref1["BMC"], [12.0, 37.0, 80.0], 16))
        twice = assert_sweep_matches_dense(ref1["BMC"], [12.0, 37.0, 37.0, 80.0], 16)
        assert _triples(twice) == [once[0], once[1], once[1], once[2]]

    def test_large_mode_index_weight(self):
        # at lam = 3e4 the sweep reaches n = 1.2e5, where the eigenvalues of
        # the weight of a b = 300 beam span 12.6 decades; its Cholesky factor
        # exists, so the sweep runs, and its sample is at least the inverse
        # distance from i*lam to the argmax mode's spectrum
        kern = bs.normalized(bs.prony_kernel([(1.0, 1.0), (0.5, 3.0)]))
        spec = bs.SystemSpec("TGP", ref1_coeffs(b=300.0), kernel_g=kern)
        (s,) = bs.sweep(spec, [3e4], 16)
        m = bs.assemble(spec, s.argmax_n)
        assert m.dim == 7
        # ||G|| is about 3e11 here, so float64 eigenvalues are not accurate
        # enough for the distance; take it from the exact spectrum
        dist = float(min(abs(e - 1j * mpmath.mpf(s.lam))
                         for e in _exact_eigenvalues(m.generator, dps=60)))
        assert np.isfinite(s.value) and s.value >= (1 - 1e-6) / dist


class TestWeightFactors:
    def test_batch_equals_per_mode(self, ref1):
        # stacks of one mode and of exactly d modes are the sizes at which a
        # 2-D right-hand side would be read as a stack of vectors (NumPy < 2)
        for tag in ("BGP", "TMC"):
            G, W = modal_mod._mode_arrays(modal_mod._layout(ref1[tag], None),
                                          np.arange(1, 13))
            d = G.shape[-1]
            for N in (1, 3, d):
                Gh = rmod._weight_factors(G[:N], W[:N])
                assert Gh.shape == (N, d, d) and Gh.dtype == float
                for g, w, gh in zip(G[:N], W[:N], Gh):
                    L = np.linalg.cholesky(w)
                    assert np.array_equal(gh, (np.linalg.solve(L, g.real.T) @ L).T)

    def test_not_positive_definite_raises(self, ref1):
        G, W = modal_mod._mode_arrays(modal_mod._layout(ref1["BMC"], None), [1, 2])
        W[1, 0, 0] = -1.0
        with pytest.raises(bs.SingularWeightError):
            rmod._weight_factors(G, W)

    @staticmethod
    def assert_norms_match_oracle(spec):
        """Energy-coordinate norms against the Hermitian square-root oracle,
        within rounding scaled by the conditioning of both routes."""
        ns = np.array([1, 2, 3, 7, 40, 300, 2500])
        G, W = modal_mod._mode_arrays(modal_mod._layout(spec, None), ns)
        Gh = rmod._weight_factors(G, W)
        Wh, Whi = modal_mod.weight_sqrt(W)
        ew = np.linalg.eigvalsh(W)
        d = G.shape[-1]
        eye = np.eye(d)
        for lam in (0.0, 2.7, 30.0, 300.0, 2500.0):
            got = rmod._batched_norms(Gh, lam=lam)
            want = np.linalg.svd(Wh @ np.linalg.solve(1j * lam * eye - G, Whi.astype(complex)),
                                 compute_uv=False)[:, 0]
            kappa = np.linalg.norm(1j * lam * eye - Gh, ord=2, axis=(1, 2)) * got
            scale = kappa + np.sqrt(ew[:, -1] / ew[:, 0])
            assert np.all(np.abs(got - want) <= 256 * d * np.finfo(float).eps * scale * want)

    @pytest.mark.parametrize("tag", ["BGP", "BMC", "TGP", "TMC", "BF", "TF"])
    def test_norms_match_the_eigh_oracle(self, ref1, tag):
        self.assert_norms_match_oracle(ref1[tag])

    @settings(max_examples=25, deadline=None)
    @given(spec=admissible_specs(("BGP", "BMC", "TGP", "TMC", "BF", "TF")))
    def test_norms_match_the_eigh_oracle_random(self, spec):
        self.assert_norms_match_oracle(spec)


class TestFitGrowth:
    def test_exact_power_law(self):
        lams = np.geomspace(1.0, 1e3, 10)
        samples = [rmod.ResolventSample(l, 3.0 * l**2, 1) for l in lams]
        fit = bs.fit_growth(samples)
        assert fit.exponent == pytest.approx(2.0, abs=1e-12)
        assert fit.intercept == pytest.approx(np.log(3.0), abs=1e-12)
        assert fit.residual < 1e-12

    def test_constant_data(self):
        samples = [rmod.ResolventSample(l, 7.0, 1) for l in np.geomspace(1, 100, 9)]
        assert bs.fit_growth(samples).exponent == pytest.approx(0.0, abs=1e-12)

    def test_needs_eight_samples(self):
        samples = [rmod.ResolventSample(float(l), 1.0, 1) for l in range(1, 6)]
        with pytest.raises(bs.FitError):
            bs.fit_growth(samples)


def _exact_eigenvalues(G, dps=40):
    """The eigenvalues of the float64 matrix G to ``dps`` digits (mpmath)."""
    with mpmath.workdps(dps):
        return mpmath.eig(mpmath.matrix(G.tolist()), left=False, right=False)


class TestSpectralAbscissa:
    def test_matches_the_exact_abscissa(self, ref1):
        # high modes of ref1 BGP sit 6e-8 left of the axis while ||G_n|| is
        # about 1e8: complex eigvals loses 4e-5 of that relative at n = 4096
        sa = bs.spectral_abscissa(ref1["BGP"], 4096)
        assert sa.argmax_n == 4096 and sa.global_max == sa.per_mode[-1]
        for n in (1024, 4096):
            G = bs.assemble(ref1["BGP"], n).generator
            exact = max(mpmath.re(e) for e in _exact_eigenvalues(G))
            assert abs(float((sa.per_mode[n - 1] - exact) / exact)) <= 1e-6

    def test_all_eigenvalues_strictly_stable(self, ref1):
        for tag in ("BGP", "BMC", "TGP", "TMC", "BF", "TF"):
            sa = bs.spectral_abscissa(ref1[tag], 32)
            assert sa.global_max < 0

    def test_exponential_case_uniform_gap(self, refexp):
        s64 = bs.spectral_abscissa(refexp, 64)
        s128 = bs.spectral_abscissa(refexp, 128)
        assert s64.global_max < -1e-3
        assert s128.global_max == pytest.approx(s64.global_max, rel=1e-10)

    def test_polynomial_case_abscissa_drifts_to_axis(self, ref1):
        sa = bs.spectral_abscissa(ref1["BMC"], 64)
        assert sa.per_mode[63] > sa.per_mode[15] > sa.per_mode[3]
        assert sa.per_mode[63] > -1e-3

    @pytest.mark.xfail(strict=True, reason=(
        "known wrong sign (ROADMAP item 4): the dense eigenvalues of the classical "
        "law round by eps omega_n^2 against a damping of order omega_n^-2, so ref1 TF "
        "and BF read +1.10e-8 (n = 9958) and +4.51e-10 (n = 9697), whose exact "
        "abscissae are negative"))
    def test_classical_law_is_stable_up_to_mode_10000(self, ref1):
        assert [bs.spectral_abscissa(ref1[tag], 10_000).global_max < 0
                for tag in ("TF", "BF")] == [True, True]


def _dense_reference(cache, k):
    """Sweep point k evaluated densely over every mode 1..N(lam) (the body
    of ``_sweep_point`` before certified pruning and the mode cache); a test
    oracle only.  It reads the cache's plan (lambda, bin, range) but takes
    every generator of the range from the stack's chunks, so it reads none
    of the cache's candidates."""
    lam, bin_lo, bin_hi = cache.lam_grid[k], cache.lo[k], cache.hi[k]
    peak_refine = cache.peak_refine
    ns = np.arange(1, cache.counts[k] + 1)
    G = np.concatenate([G for _, G in cache.stack.chunks(ns.size)])

    vals = rmod._batched_norms(G, lam=lam)
    best = int(np.argmax(vals))
    best_val, best_lam, best_n = float(vals[best]), float(lam), int(ns[best])

    if peak_refine and lam > 0:
        ev = np.linalg.eigvals(G)
        im = ev.imag
        re = ev.real
        in_bin = (im > bin_lo) & (im <= bin_hi)
        re_masked = np.where(in_bin, re, -np.inf)
        pick = np.argmax(re_masked, axis=1)
        rows = np.arange(len(ns))
        cand_lam = im[rows, pick]
        has = np.isfinite(re_masked[rows, pick])
        if np.any(has):
            sub = rows[has]
            cvals = rmod._batched_norms(G[sub], lam=cand_lam[sub])
            j = int(np.argmax(cvals))
            if cvals[j] > best_val:
                best_val = float(cvals[j])
                best_lam = float(cand_lam[sub][j])
                best_n = int(ns[sub][j])
        if best_lam != lam:
            vals2 = rmod._batched_norms(G, lam=best_lam)
            b2 = int(np.argmax(vals2))
            best_val, best_n = float(vals2[b2]), int(ns[b2])
    return ResolventSample(lam=best_lam, value=best_val, argmax_n=best_n, work={})


BOUNDED_DAMPING = ("BGP", "BMC", "TGP", "TMC")
ALL_TAGS = BOUNDED_DAMPING + ("TF", "BF")
TWO_TERM = bs.normalized(bs.prony_kernel([(1.0, 1.0), (0.5, 3.0)]))


def _triples(samples):
    return [(s.lam, s.value, s.argmax_n) for s in samples]


def assert_sweep_matches_dense(spec, lams, n_max, **kwargs):
    """The pruned sweep equals the dense oracle bit for bit; returns it."""
    got = bs.sweep(spec, lams, n_max, **kwargs)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rmod, "_sweep_point", _dense_reference)
        want = bs.sweep(spec, lams, n_max, **kwargs)
    assert _triples(got) == _triples(want)
    return got


class TestPrunedSweepMatchesDense:
    @pytest.mark.parametrize("tag", ALL_TAGS)
    def test_ref1(self, ref1, tag):
        lams = np.geomspace(5.0, 400.0, 12)
        for grid in (lams, lams[::-1]):
            out = assert_sweep_matches_dense(ref1[tag], grid, 16)
            assert {s.work["pruning"] for s in out} == {"certified"}

    def test_normalized_two_term_kernel(self):
        kern = bs.normalized(bs.prony_kernel([(1.0, 1.0), (0.5, 3.0)]))
        for tag in ("BGP", "TGP"):
            spec = bs.SystemSpec(tag, ref1_coeffs(), kernel_g=kern,
                                 kernel_h=kern if tag == "BGP" else None)
            assert_sweep_matches_dense(spec, np.geomspace(3.0, 300.0, 10), 16)

    @pytest.mark.parametrize("kwargs", [dict(peak_refine=False),
                                        dict(peak_refine=False, threads=2),
                                        dict(threads=2), dict(peak_refine=None)])
    def test_options(self, ref1, kwargs):
        lams = np.concatenate([[0.0], np.geomspace(2.0, 150.0, 9)])
        for tag in ("BGP", "TMC"):
            assert_sweep_matches_dense(ref1[tag], lams, 12, **kwargs)

    def test_single_point_and_zero(self, ref1):
        assert_sweep_matches_dense(ref1["BMC"], [0.0], 16)
        assert_sweep_matches_dense(ref1["BGP"], [37.0], 16)
        assert bs.sweep(ref1["BGP"], [], 16) == []

    def test_unpruned_schemes(self, ref1):
        # below the upwind grid's radius (439 here) its bands keep every
        # mode; the classical law's bands (radius 3 on ref1 TF) do not
        grid = bs.make_grid(ref1["TGP"].kernel_g, 12)
        for (spec, g), threads in itertools.product(
                ((ref1["TGP"], grid), (ref1["TF"], None)), (None, 2)):
            out = assert_sweep_matches_dense(spec, np.geomspace(3.0, 40.0, 6), 8,
                                             grid=g, threads=threads)
            assert {s.work["pruning"] for s in out} == {"certified"}
            kept = [s.work["modes_eigvals"] == s.work["modes_in_range"] for s in out]
            # TF's heat block is its temperature, 1 state against 4 beam states,
            # below _ModeCache's size rule: no eliminated bound.  Without bands,
            # and with a resolvent-identity gate at the achieved lambda, it formed 526
            if spec.model == "TF":
                assert not all(kept) and sum(s.work["norm_evals"] for s in out) == 186
            else:
                assert all(kept)

    def test_upwind_bands_past_the_radius(self, ref1):
        # the upwind grid's band centre 0 lets a bin above the radius skip
        # the eigenvalues of the modes whose bands lie away from it
        grid = bs.make_grid(ref1["TGP"].kernel_g, 12)
        stack = modal_mod._layout(ref1["TGP"], grid)
        lams = np.geomspace(600.0, 700.0, 2)
        assert rmod._Certificate(stack, 1.0).radius < 500.0
        out = assert_sweep_matches_dense(ref1["TGP"], lams, 8, grid=grid)
        assert {s.work["pruning"] for s in out} == {"certified"}
        assert any(s.work["modes_eigvals"] < s.work["modes_in_range"] for s in out)

    @pytest.mark.parametrize("threads", [None, 2])
    def test_eliminated_heat_blocks(self, threads):
        # the eliminated gate on a 64-node table, on two kernels sharing one
        # 16-node grid and on a five-term prony kernel (as many memory states
        # as beam states)
        kern = bs.normalized(bs.prony_kernel([(1.0, 0.5 * j) for j in range(1, 6)]))
        spec = bs.SystemSpec("TGP", ref1_coeffs(), kernel_g=kern)
        heat = modal_mod._layout(spec, None).heat
        assert heat.H0.shape == heat.B0.shape == (5, 5)
        assert_sweep_matches_dense(spec, np.geomspace(5.0, 200.0, 8), 16, threads=threads)
        spec, grid = _tabulated_history(64)
        assert_sweep_matches_dense(spec, np.geomspace(12.0, 40.0, 4), 8, grid=grid,
                                   threads=threads)
        spec = bs.SystemSpec("BGP", ref1_coeffs(), kernel_g=TWO_TERM,
                             kernel_h=bs.prony_kernel([(1.0, 1.0)]))
        assert_sweep_matches_dense(spec, np.geomspace(5.0, 60.0, 6), 8,
                                   grid=bs.make_grid(TWO_TERM, 16), threads=threads)

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(spec=admissible_specs(ALL_TAGS), hi=st.floats(20.0, 80.0))
    def test_random_coefficients(self, spec, hi):
        out = assert_sweep_matches_dense(spec, np.geomspace(2.0, hi, 7), 8)
        assert all(s.work["modes_eigvals"] <= s.work["modes_in_range"] for s in out)


def _tabulated_history(nodes):
    """(spec, grid): TGP with a normalized exp(-s) table on the upwind grid,
    the system of the tabulated-history benchmark."""
    s = np.linspace(0.0, 23.0, 401)
    kern = bs.normalized(bs.tabulated_kernel(s, np.exp(-s), delta_tail=1.0, delta=1.0))
    return bs.SystemSpec("TGP", ref1_coeffs(), kernel_g=kern), bs.make_grid(kern, nodes)


def test_history_grid_converges_at_first_order():
    # the exp(-s) table on the upwind grid against its prony kernel: the gaps of
    # the per-mode abscissa over n <= 64 (0.121, 0.0619, 0.0311 at M = 16, 32,
    # 64) and of an 8-point sweep (6.7e-3, 2.6e-3, 1.2e-3) halve per doubling
    prony = bs.SystemSpec("TGP", ref1_coeffs(), kernel_g=bs.prony_kernel([(1.0, 1.0)]))
    lams = np.geomspace(10 ** 1.25, 10 ** 1.75, 8)
    exact = bs.spectral_abscissa(prony, 64).per_mode
    values = np.array([s.value for s in bs.sweep(prony, lams, 64)])
    gaps = []
    for nodes in (16, 32, 64):
        spec, grid = _tabulated_history(nodes)
        per_mode = bs.spectral_abscissa(spec, 64, grid).per_mode
        swept = np.array([s.value for s in bs.sweep(spec, lams, 64, grid=grid)])
        gaps.append((np.max(np.abs(per_mode / exact - 1)), np.max(np.abs(swept / values - 1))))
    (a16, s16), (a32, s32), (a64, s64) = gaps
    assert 0.45 <= a32 / a16 <= 0.55 and 0.45 <= a64 / a32 <= 0.55
    assert 0.3 <= s32 / s16 <= 0.6 and 0.3 <= s64 / s32 <= 0.6


def _near_rank_one(seed, d=4):
    """A generator whose resolvent at 0 is 1e6 u v^T + 1e-3 I: its Frobenius
    and spectral norms agree to rounding."""
    rng = np.random.default_rng(seed)
    X = 1e6 * np.outer(rng.standard_normal(d), rng.standard_normal(d)) + 1e-3 * np.eye(d)
    return -np.linalg.inv(X)[None]


class TestGates:
    def test_tabulated_history_matches_dense(self):
        spec, grid = _tabulated_history(32)
        lams = np.geomspace(10 ** 1.25, 10 ** 1.75, 8)   # [17.8, 56.2]
        for threads in (None, 2):
            out = assert_sweep_matches_dense(spec, lams, 64, grid=grid, threads=threads)
            work = {key: sum(s.work[key] for s in out)
                    for key in ("modes_in_range", "norm_evals", "svds")}
            # ungated: 2,304 resolvents formed, each with its SVD; 1,339
            # formed without the eliminated bound
            assert work == {"modes_in_range": 1088, "norm_evals": 136, "svds": 16}

    def test_frobenius_gate_keeps_the_max(self, ref1):
        ns = np.arange(1, 41)
        G = rmod._weight_factors(*modal_mod._mode_arrays(modal_mod._layout(ref1["BGP"], None),
                                                         ns))
        for lam in (0.0, 7.3, 55.0):
            exact = rmod._batched_norms(G, lam=lam)
            top = float(np.max(exact))
            for known in (-np.inf, 0.5 * top, top, 2.0 * top):
                work = {"norm_evals": 0, "svds": 0}
                got = rmod._batched_norms(G, lam=lam, known=known, work=work)
                assert work["norm_evals"] == ns.size and work["svds"] < ns.size
                assert (work["svds"] > 0) == (known <= top)
                exact_rows = got == exact
                assert np.all(got[~exact_rows] > exact[~exact_rows])   # ||X||_F
                assert np.all(got[~exact_rows] < max(known, top))
                if known <= top:
                    assert got.max() == top and np.argmax(got) == np.argmax(exact)

    def test_chunked_gathers_keep_every_sample(self, ref1, monkeypatch):
        # a point gathers its candidates' and its pruned rows' generators a
        # chunk at a time, gating each chunk from the running max; chunks of
        # 7 modes give the same samples and resolvents (the SVDs run depend
        # on the chunks: each chunk's top bound is evaluated first)
        lams = np.geomspace(5.0, 400.0, 12)
        for spec in (ref1["BGP"], ref1["TMC"]):
            whole = bs.sweep(spec, lams, 40)
            d = modal_mod._layout(spec, None).dim
            monkeypatch.setattr(modal_mod, "CHUNK_ELEMENTS", 7 * d * d + 1)
            chunked = bs.sweep(spec, lams, 40)
            monkeypatch.undo()
            key = [(s.lam, s.value, s.argmax_n, s.work["norm_evals"]) for s in whole]
            assert [(s.lam, s.value, s.argmax_n, s.work["norm_evals"]) for s in chunked] == key

    def test_frobenius_gate_margin(self):
        # near rank one, the computed ||X||_F falls below the computed ||X||_2
        # about a third of the time; the gate must still run the SVD when the
        # lower bound is that very norm, as for the candidate mode in step 3
        below = 0
        for seed in range(24):
            G = _near_rank_one(seed)
            exact = rmod._batched_norms(G, lam=0.0)
            X = np.linalg.inv(-G)
            below += np.linalg.norm(X, axis=(1, 2))[0] < exact[0]
            assert rmod._batched_norms(G, lam=0.0, known=exact[0]).tolist() == exact.tolist()
        assert below > 0


@st.composite
def heat_block_systems(draw):
    """(spec, grid) over every scheme with a heat block: prony memory, relaxed
    flux, TGP on an upwind grid of 8 to 64 nodes and BGP with both kernels
    on one upwind grid of 16 nodes."""
    scheme = draw(st.sampled_from(["prony", "flux", "upwind", "shared-upwind"]))
    tags = {"prony": ("BGP", "TGP"), "flux": ("BMC", "TMC"), "upwind": ("TGP",),
            "shared-upwind": ("BGP",)}[scheme]
    spec = draw(admissible_specs(tags))
    if scheme == "upwind":
        return spec, bs.make_grid(spec.kernel_g, draw(st.sampled_from([8, 16, 32, 64])))
    if scheme == "shared-upwind":   # the grid of the slower-decaying kernel
        slower = min((spec.kernel_g, spec.kernel_h), key=lambda k: k.delta)
        return spec, bs.make_grid(slower, 16)
    return spec, None


class TestEliminatedBound:
    @staticmethod
    def assert_bound_covers_dense(stack, lam):
        """Over the modes 1..N(lam) of a sweep with n_max 8, the eliminated
        bound is infinite or, widened by ROUND_REL, not below the dense norm;
        returns the bounds and the dense norms."""
        bound = rmod._eliminated_bound(stack, lam)
        got, dense = [], []
        for ns, G in stack.chunks(rmod._sweep_count(stack.spec, lam, 8)):
            got.append(bound(ns * np.pi / stack.spec.coeffs.ell))
            dense.append(rmod._batched_norms(G, lam=lam))
        got, dense = np.concatenate(got), np.concatenate(dense)
        assert np.all((got * (1.0 + rmod.ROUND_REL) >= dense) | (got == np.inf))
        return got, dense

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(system=heat_block_systems(), u=st.floats(0.0, 1.0), n=st.integers(1, 4))
    @example(system=(bs.SystemSpec("BGP", ref1_coeffs(), kernel_g=TWO_TERM,
                                   kernel_h=TWO_TERM), None), u=0.5, n=3)
    @example(system=_tabulated_history(64), u=0.5, n=2)
    def test_covers_the_dense_norm(self, system, u, n):
        try:
            stack = modal_mod._layout(*system)
        except bs.AdmissibilityError:   # the shared grid cuts the faster kernel
            assume(False)
        ev = np.linalg.eigvals(modal_mod._generators(stack, [n])[0])
        least_damped = abs(ev[np.argmax(ev.real)].imag)
        for lam in (0.0, 30.0 * u, least_damped):
            self.assert_bound_covers_dense(stack, lam)

    def test_tight_on_the_benchmark_system(self):
        # finite on every mode, and within a factor 10 of the dense norm
        stack = modal_mod._layout(*_tabulated_history(32))
        for lam in (0.0, 17.8, 56.2):
            got, dense = self.assert_bound_covers_dense(stack, lam)
            assert np.all(got <= 10.0 * dense)


# exact values with ties, NaN and zero; each bound is its exact value times
# 1 + slack (slack 0 makes a tie with it), the slack itself over a zero and
# NaN over a NaN
EXACT_VALUES = st.sampled_from([0.0, 1.0, 1.0 + 2.0 ** -30, 2.0, 3.5, 1e6, np.nan])
SLACK = st.sampled_from([0.0, 2.0 ** -40, 2.0 ** -20, 1e-3, 0.5, 4.0, np.inf])


class TestGatedMax:
    @settings(max_examples=300, deadline=None)
    @given(pairs=st.lists(st.tuples(EXACT_VALUES, SLACK), min_size=1, max_size=12),
           known=st.one_of(st.just(-np.inf), st.sampled_from([0.5, 1.0, 2.0, 1e7]),
                           st.floats(0.0, 1e6)))
    def test_matches_the_all_exact_max(self, pairs, known):
        exact = np.array([e for e, _ in pairs])
        upper = np.array([e * (1.0 + s) if e else s for e, s in pairs])
        evaluated = []

        def evaluate(rows):
            evaluated.extend(rows.tolist())
            return exact[rows]

        vals, runs = rmod._gated_max(upper, evaluate, known)
        assert runs == len(evaluated) == len(set(evaluated))
        done = np.zeros(exact.size, dtype=bool)
        done[evaluated] = True
        assert np.array_equal(vals[done], exact[done], equal_nan=True)
        assert np.array_equal(vals[~done], upper[~done])
        # the all-exact reduction, NaN first as in np.argmax
        top = float(np.max(exact))
        if np.isnan(top) or known <= top:
            assert np.array_equal(np.max(vals), top, equal_nan=True)
            assert np.argmax(vals) == np.argmax(exact)
        # gated rows are provably below the max
        R = rmod.ROUND_REL
        floor = known if np.isnan(top) else max(known, top)
        assert np.all(upper[~done] * (1 + R) < floor * (1 - R))
        # the largest bound runs first unless below ``known``, and its value
        # raises ``known`` for the rest
        first = int(np.argmax(upper))
        raised = known if np.isnan(exact[first]) else max(known, exact[first])
        gated = upper * (1 + R) < raised * (1 - R)
        gated[first] = upper[first] * (1 + R) < known * (1 - R)
        assert np.array_equal(~done, gated)

    def test_rule_keeps_both_margins(self):
        R = rmod.ROUND_REL
        known = np.array([1e-3, 1.0, 3.0, 1e6])
        assert not np.any(rmod._below(known * (1 - 1.5 * R), known))
        assert np.all(rmod._below(known * (1 - 2.5 * R), known))
        for upper, lower in ((np.nan, 1.0), (0.0, np.nan), (np.inf, np.inf),
                             (0.0, -np.inf), (np.nan, np.inf)):
            assert not rmod._below(upper, lower)


class TestModeCache:
    def test_each_mode_eigen_solved_once(self, ref1, monkeypatch):
        generators, eigvals = modal_mod._generators, np.linalg.eigvals
        formed, solved = [], []

        def counting_generators(stack, ns):
            formed.extend(np.asarray(ns).tolist())
            return generators(stack, ns)

        def counting_eigvals(a):
            solved.extend(m.tobytes() for m in a)
            return eigvals(a)

        monkeypatch.setattr(modal_mod, "_generators", counting_generators)
        monkeypatch.setattr(np.linalg, "eigvals", counting_eigvals)
        grid = bs.make_grid(ref1["TGP"].kernel_g, 12)
        for spec, g, pruning in ((ref1["BGP"], None, "certified"),
                                 (ref1["TGP"], grid, "certified")):
            formed.clear()
            solved.clear()
            out = bs.sweep(spec, np.geomspace(5.0, 400.0, 12), 16, grid=g)
            n_total = max(s.work["modes_in_range"] for s in out)
            assert set(formed) <= set(range(1, n_total + 1))
            # one generator per eigen-solved mode and per resolvent formed
            assert len(formed) == sum(s.work["eigvals_computed"] + s.work["norm_evals"]
                                      for s in out)
            # distinct modes have distinct generators: no mode is solved twice
            assert len(solved) == len(set(solved)) > 0
            assert sum(s.work["eigvals_computed"] for s in out) == len(solved)
            assert {s.work["pruning"] for s in out} == {pruning}

    def test_sweep_memory_is_the_cache_and_one_chunk(self, ref1):
        # lam_max = 1e4 puts 40,000 modes in range; the generators are formed
        # a chunk at a time and never stored (a generator cache alone was
        # 30.5 MiB, the parent sweep's peak 36.6 MiB)
        lams = np.geomspace(1e2, 1e4, 13)
        bs.sweep(ref1["BGP"], lams[:2], 64)   # lazy imports and caches first
        tracemalloc.start()
        try:
            out = bs.sweep(ref1["BGP"], lams, 64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out[-1].work["modes_in_range"] == 40000
        assert peak <= 16 * 2 ** 20

    def test_build_memory_without_a_damping_bound(self, ref1):
        # below the upwind grid's radius every mode stays in every bin: 3,000
        # points read 0.8 million (point, mode) pairs of 4.9 million (point, mode
        # index) slots, which the build must not hold
        grid = bs.make_grid(ref1["TGP"].kernel_g, 12)
        stack = modal_mod._layout(ref1["TGP"], grid)
        cache = rmod._ModeCache(stack, np.geomspace(1.0, 400.0, 3000), 16, True)
        tracemalloc.start()
        try:
            cache._build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (cache.ns.size, stack.dim) == (1600, 17) and cache.cert.radius > 400.0
        assert [w["modes_eigvals"] for w in cache.work] == cache.counts
        assert cache.lam_grid.size * cache.ns.size > 4 * 2 ** 20
        assert peak <= 4 * 2 ** 20

    def test_spectra_solved_once_on_the_calling_thread(self, ref1, monkeypatch):
        build, threads = rmod._ModeCache._build, []

        def recording_build(cache):
            threads.append(threading.get_ident())
            return build(cache)

        monkeypatch.setattr(rmod._ModeCache, "_build", recording_build)
        lams = np.geomspace(5.0, 400.0, 12)
        for spec in (ref1["BGP"], ref1["TMC"]):
            threads.clear()
            out = bs.sweep(spec, lams, 16, threads=2)
            assert threads == [threading.get_ident()]
            assert [(s.lam, s.value, s.argmax_n, s.work) for s in out] == [
                (s.lam, s.value, s.argmax_n, s.work) for s in bs.sweep(spec, lams, 16)]


def test_sweep_decay_and_chunks_factor_no_mode(ref1, monkeypatch):
    # the closed-form energy coordinates need no Cholesky factor, no
    # per-mode certificate eigenvalues, no SVD-based condition number and
    # no state-coordinate assembly
    def unreachable(*args, **kwargs):
        raise AssertionError("a per-mode factorization ran")

    grid = bs.make_grid(ref1["TGP"].kernel_g, 12)
    for owner, name in ((np.linalg, "cholesky"), (np.linalg, "eigvalsh"),
                        (np.linalg, "cond"), (rmod, "_weight_factors"),
                        (modal_mod, "_mode_arrays")):
        monkeypatch.setattr(owner, name, unreachable)
    for spec, g in ((ref1["BGP"], None), (ref1["TMC"], None), (ref1["TF"], None),
                    (ref1["TGP"], grid)):
        assert len(bs.sweep(spec, np.geomspace(5.0, 200.0, 6), 16, grid=g)) == 6
        assert bs.semiuniform_series(spec, [0.0, 10.0], 16, grid=g).shape == (2,)
        assert sum(len(ns) for ns, _ in modal_mod._layout(spec, g).chunks(40)) == 40


@st.composite
def upwind_stacks(draw):
    """Memory systems on an 8- to 16-node upwind grid: random admissible
    prony kernels, kernel_g tabulated from exp(-rate s) on half the draws."""
    spec = draw(admissible_specs(("BGP", "TGP")))
    if draw(st.booleans()):
        rate = draw(st.floats(0.5, 2.0))
        s = np.linspace(0.0, 23.0 / rate, 101)
        kern = bs.normalized(bs.tabulated_kernel(s, np.exp(-rate * s), rate, rate))
        spec = bs.SystemSpec(spec.model, spec.coeffs, kernel_g=kern, kernel_h=spec.kernel_h)
    grid = bs.make_grid(modal_mod._grid_kernel(spec), draw(st.integers(8, 16)))
    return modal_mod._layout(spec, grid)


def _certificate(spec, ns, grid=None):
    """(energy-coordinate generators of the ascending modes ``ns`` from the
    stack, their omega_n, the stack with its sweep certificate up to the
    last)."""
    stack = modal_mod._layout(spec, grid)
    om = np.asarray(ns) * np.pi / spec.coeffs.ell
    return modal_mod._generators(stack, ns), om, stack, rmod._Certificate(stack, om[-1])


# b = 3000: at n = 3e4 the eigenvalues of the weight span 12.4 decades
STIFF_ROTATION = bs.SystemSpec(
    "TGP", ref1_coeffs(b=3000.0),
    kernel_g=bs.normalized(bs.prony_kernel([(1.0, 1.0), (0.5, 3.0)])))


class TestCertificate:
    NS = [1, 2, 7, 40, 300, 2500, 30000]

    @settings(max_examples=25, deadline=None)
    @given(spec=admissible_specs(BOUNDED_DAMPING))
    @example(spec=STIFF_ROTATION)
    def test_damping_is_the_non_skew_part(self, spec):
        stack = modal_mod._layout(spec, None)
        G, W = modal_mod._mode_arrays(stack, self.NS)
        D = np.diag(stack.K[0])
        assert np.all(G.imag == 0) and np.all(D <= 0) and np.any(D < 0)
        Gr = G.real
        lhs = W @ Gr + np.swapaxes(Gr, 1, 2) @ W
        rhs = 2.0 * W * D[None, None, :]
        scale = np.abs(W) @ np.abs(Gr) + np.swapaxes(np.abs(Gr), 1, 2) @ np.abs(W)
        assert np.all(np.abs(lhs - rhs) <= 64 * np.finfo(float).eps * scale)

    @settings(max_examples=25, deadline=None)
    @given(spec=admissible_specs(BOUNDED_DAMPING), u=st.floats(0.0, 1.0))
    @example(spec=STIFF_ROTATION, u=0.5)
    def test_bounds_enclose_the_exact_norm(self, spec, u):
        G, om, _, cert = _certificate(spec, self.NS)
        top, mid = cert.c[-1] * om, cert.c[cert.c.size // 2] * om
        for lam in (u * top[0], u * top[-1], mid[-1] + 1.5 * cert.radius):
            vals = rmod._batched_norms(G, lam=lam)
            d = cert.dist(lam, lam, om)
            upper = np.where(d > cert.radius, 1.0 / np.maximum(d - cert.radius, 1e-300),
                             np.inf)
            assert np.all(vals <= upper * (1 + rmod.ROUND_REL))
            assert np.all(vals >= (1 - rmod.ROUND_REL) / (d + cert.radius))

    @settings(max_examples=25, deadline=None)
    @given(spec=admissible_specs(BOUNDED_DAMPING))
    @example(spec=STIFF_ROTATION)
    def test_eigenvalues_lie_near_the_conservative_spectrum(self, spec):
        G, om, stack, cert = _certificate(spec, sorted(self.NS + [8000]))
        ev = np.linalg.eigvals(G)
        bands = cert.c * om[:, None]
        bands = np.concatenate([bands, -bands], axis=1)
        gap = np.min(np.abs(ev[:, :, None] - 1j * bands[:, None, :]), axis=2)
        # Bauer-Fike and Weyl with a wide margin: 1/64 of the rounding
        # allowance suffices
        D = np.diag(stack.K[0])
        base = np.max(np.abs(D)) + np.linalg.norm(stack.K[0] - np.diag(D), 2)
        assert np.all(gap <= base + (cert.radius - base) / 64)

    @settings(max_examples=25, deadline=None)
    @given(spec=admissible_specs(BOUNDED_DAMPING))
    def test_radius_of_a_diagonal_rate_block(self, spec):
        # prony memory and flux: E is the diagonal D of K0, so the radius is
        # max|D| + ||K0 - diag(D)||_2 plus the allowance, bit for bit
        _, om, stack, cert = _certificate(spec, self.NS)
        K0, K1 = stack.K
        D = np.diag(K0)
        c = np.unique(np.linalg.svd(K1, compute_uv=False))
        s0 = np.linalg.norm(K0 - np.diag(D), 2)
        assert cert.radius == np.max(np.abs(D)) + s0 + rmod.ROUND_REL * (c[-1] * om[-1] + s0)
        assert np.array_equal(cert.c, c) and cert.contracts

    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(stack=upwind_stacks(), ns=st.lists(st.integers(1, 10_000), min_size=1, max_size=4),
           u=st.floats(0.0, 1.0))
    def test_upwind_bands_enclose_the_spectrum_and_the_norm(self, stack, ns, u):
        ns = np.unique(ns)
        om = ns * np.pi / stack.spec.coeffs.ell
        cert = rmod._Certificate(stack, om[-1])
        assert np.isfinite(cert.radius)
        G = modal_mod._generators(stack, ns)
        ev = np.linalg.eigvals(G)
        bands = cert.c * om[:, None]
        bands = np.concatenate([bands, -bands], axis=1)
        assert np.all(np.min(np.abs(ev[:, :, None] - 1j * bands[:, None, :]), axis=2)
                      <= cert.radius)
        top = cert.c[-1] * om
        for lam in (u * top[0], u * top[-1], top[-1] + 1.5 * cert.radius):
            vals = rmod._batched_norms(G, lam=lam)
            d = cert.dist(lam, lam, om)
            assert np.all(vals <= cert.upper(lam, om) * (1 + rmod.ROUND_REL))
            assert np.all(vals >= (1 - rmod.ROUND_REL) / (d + cert.radius))

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(spec=admissible_specs(("TF", "BF")),
           ns=st.lists(st.integers(1, 10_000), min_size=1, max_size=4), u=st.floats(0.0, 4.0))
    @example(spec=bs.SystemSpec("BF", ref1_coeffs(b=300.0)), ns=[1, 7, 300, 10_000], u=1.0)
    def test_classical_law_bands_enclose_the_spectrum_and_the_norm(self, spec, ns, u):
        # the temperatures eliminated (H_n = -kappa omega_n^2 and, on the curved
        # beam, U0 != 0): at lam = u omega_n up to 4 omega_n and at each mode's
        # resonance, the least-damped eigenvalue's Im; dense eigenvalues carry
        # a backward error of order d eps kappa omega_n^2
        G, om, stack, cert = _certificate(spec, np.unique(ns))
        assert np.isfinite(cert.radius) and cert.c[0] == 0.0 and cert.kappa > 0
        ev = np.linalg.eigvals(G)
        bands = cert.c * om[:, None]
        bands = np.concatenate([bands, -bands], axis=1)
        assert np.all(np.min(np.abs(ev.imag[:, :, None] - bands[:, None, :]), axis=2)
                      <= cert.radius)
        resonance = np.abs(ev[np.arange(om.size), np.argmax(ev.real, axis=1)].imag)
        for lam in np.concatenate([u * om, resonance]):
            vals = rmod._batched_norms(G, lam=lam)
            assert np.all(vals <= cert.upper(lam, om) * (1 + rmod.ROUND_REL))

    def test_pruning_cuts_the_work(self, ref1):
        # the reference sweep of the benchmark: 13 bins on [1e2, 1e3]
        out = bs.sweep(ref1["BGP"], np.geomspace(100.0, 1000.0, 13), 64)
        work = {key: sum(s.work[key] for s in out)
                for key in ("modes_in_range", "modes_eigvals", "eigvals_computed",
                            "norm_evals")}
        assert work["modes_in_range"] == 21025
        assert max(s.work["modes_in_range"] for s in out) == 4000
        assert work["eigvals_computed"] == 1392
        assert work["modes_eigvals"] <= 5000 and work["norm_evals"] <= 5000


def _scaled(spec, **changes):
    from dataclasses import replace
    return bs.SystemSpec(spec.model, replace(spec.coeffs, **changes),
                         kernel_g=spec.kernel_g, kernel_h=spec.kernel_h)


class TestMetamorphic:
    @pytest.mark.parametrize("tag", ["BGP", "TGP", "BMC"])
    def test_doubling_the_length_lowers_no_value(self, ref1, tag):
        # the modes of 2 ell include every omega_n of ell, each with the
        # same generator, so no sup over them can fall; l * ell stays off pi
        spec = _scaled(ref1[tag], l=0.3)
        longer = _scaled(spec, ell=2 * spec.coeffs.ell)
        lams, ts = np.geomspace(5.0, 300.0, 10), np.geomspace(1.0, 1e3, 6)
        for a, b in zip(bs.sweep(spec, lams, 16), bs.sweep(longer, lams, 32)):
            assert b.value >= a.value * (1 - 1e-13)
        short = bs.semiuniform_series(spec, ts, 16)
        assert np.all(bs.semiuniform_series(longer, ts, 32) >= short * (1 - 1e-13))

    @pytest.mark.parametrize("tag", ["BGP", "TGP"])
    def test_scaling_the_coefficients_keeps_every_sample(self, ref1, tag):
        # a common factor on rho1, rho2, rho3, k, k0, b, gamma and varpi
        # scales W_n and leaves G_n, so every weighted norm stays
        spec = ref1[tag]
        c = spec.coeffs
        scaled = _scaled(spec, **{name: 3.0 * getattr(c, name) for name in (
            "rho1", "rho2", "rho3", "k", "k0", "b", "gamma", "varpi")})
        lams = np.geomspace(5.0, 400.0, 12)
        for a, b in zip(bs.sweep(spec, lams, 16), bs.sweep(scaled, lams, 16)):
            assert a.argmax_n == b.argmax_n
            assert b.lam == pytest.approx(a.lam, rel=1e-13)
            assert b.value == pytest.approx(a.value, rel=1e-13)
