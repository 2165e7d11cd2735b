import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import beamstab as bs
from beamstab import modal
from beamstab import resolvent as rmod
from beamstab.model import MEMORY_MODELS, MODELS
from conftest import (admissible_specs, memory_gamma, ref1_coeffs, random_states,
                      reference_mode_arrays, wnorm)


class TestOmega:
    def test_values(self):
        assert bs.omega(np.pi, 1) == pytest.approx(1.0)
        assert bs.omega(np.pi, 7) == pytest.approx(7.0)
        assert bs.omega(2.0, 3) == pytest.approx(3 * np.pi / 2)

    def test_rejects_nonpositive_index(self):
        with pytest.raises(bs.DomainError):
            bs.omega(np.pi, 0)


class TestAssembly:
    def test_dimensions(self, ref1):
        expected = {"BGP": 10, "BMC": 10, "TGP": 6, "TMC": 6, "BF": 8, "TF": 5}
        for tag, spec in ref1.items():
            assert bs.assemble(spec, 3).dim == expected[tag]

    def test_generators_are_real(self, ref1):
        grid = bs.make_grid(ref1["TGP"].kernel_g, 16)
        cases = [(spec, None) for spec in ref1.values()] + [(ref1["TGP"], grid)]
        for spec, g in cases:
            G, W = modal._mode_arrays(modal._layout(spec, g), [1, 2, 300])
            assert G.dtype == W.dtype == np.float64
            assert bs.assemble(spec, 3, grid=g).generator.dtype == np.float64

    def test_prony_terms_add_states(self):
        two = bs.prony_kernel([(2.0 / 3.0, 1.0), (1.0 / 12.0, 2.0)])  # unit mass
        spec = bs.SystemSpec("TGP", ref1_coeffs(), kernel_g=two)
        assert bs.assemble(spec, 1).dim == 5 + 2

    def test_sgrid_adds_grid_states(self, ref1):
        grid = bs.make_grid(ref1["TGP"].kernel_g, 32)
        assert bs.assemble(ref1["TGP"], 1, grid=grid).dim == 5 + 32
        gridb = bs.make_grid(ref1["BGP"].kernel_g, 32)
        assert bs.assemble(ref1["BGP"], 1, grid=gridb).dim == 8 + 64

    def test_bmc_temperature_row_coefficients(self, ref1):
        m = bs.assemble(ref1["BMC"], 1)
        c = ref1["BMC"].coeffs
        row = m.generator[m.index("temp_b")]
        assert row[m.index("flux_b")] == pytest.approx(m.omega / c.rho3)
        assert row[m.index("rot_t")] == pytest.approx(c.gamma * m.omega / c.rho3)

    def test_tf_eigenvalues_strictly_stable(self, ref1):
        ev = np.linalg.eigvals(bs.assemble(ref1["TF"], 1).generator)
        assert np.all(ev.real < 0)

    def test_straight_beam_equals_curved_at_zero_curvature(self, unit_exp):
        c0 = ref1_coeffs(l=0.0)
        bgp = bs.SystemSpec("BGP", c0, kernel_g=unit_exp, kernel_h=unit_exp)
        tgp = bs.SystemSpec("TGP", c0, kernel_g=unit_exp)
        mb = bs.assemble(bgp, 5)
        mt = bs.assemble(tgp, 5)
        keep = [mb.labels.index(lab) for lab in mt.labels]
        np.testing.assert_allclose(mb.generator[np.ix_(keep, keep)], mt.generator,
                                   rtol=0, atol=0)
        np.testing.assert_allclose(mb.weight[np.ix_(keep, keep)], mt.weight,
                                   rtol=0, atol=0)

    def test_tabulated_kernel_requires_grid(self):
        s = np.linspace(0.0, 23.0, 6001)
        tab = bs.normalized(
            bs.tabulated_kernel(s, np.exp(-s), delta_tail=1.0, delta=1.0))
        spec = bs.SystemSpec("TGP", ref1_coeffs(), kernel_g=tab)
        with pytest.raises(bs.SpecError, match="grid"):
            bs.assemble(spec, 1)
        grid = bs.make_grid(tab, 64)
        assert bs.assemble(spec, 1, grid=grid).dim == 5 + 64

    def test_scheme_follows_either_kernel(self, unit_exp):
        s = np.linspace(0.0, 23.0, 401)
        tab = bs.normalized(bs.tabulated_kernel(s, np.exp(-s), delta_tail=1.0, delta=1.0))
        slow = bs.prony_kernel([(1.0 / 16.0, 4.0)])   # unit g-mass, delta 1/4
        spec = bs.SystemSpec("BGP", ref1_coeffs(), kernel_g=slow, kernel_h=tab)
        assert modal._memory_scheme(spec) == "sgrid-upwind"
        with pytest.raises(bs.SpecError, match="grid"):
            bs.assemble(spec, 1)
        with pytest.raises(bs.SpecError, match="needs prony kernels"):
            modal._memory_scheme(spec, "prony-reduction")
        assert modal._grid_kernel(spec) is slow
        grid = bs.make_grid(modal._grid_kernel(spec), 16)
        assert bs.assemble(spec, 1, grid=grid).dim == 8 + 2 * 16
        # a grid on a model without memory is refused, not ignored
        with pytest.raises(bs.SpecError, match="memory-law models, not BMC"):
            bs.assemble(bs.SystemSpec("BMC", ref1_coeffs()), 1, grid=grid)

    def test_layout_is_capped(self, ref1, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("a capped layout reached the coupling matrices")

        monkeypatch.setattr(modal, "_coupling", unreachable)
        # 600 nodes per temperature: d = 8 + 2 * 600
        grid = bs.make_grid(ref1["BGP"].kernel_g, 600)
        with pytest.raises(bs.DomainError, match="= 1208 is above the cap of 1024"):
            bs.assemble(ref1["BGP"], 1, grid=grid)
        many = bs.prony_kernel([(1.0 / 1020, 1.0)] * 1020)   # d = 5 + 1020
        with pytest.raises(bs.DomainError, match="= 1025 is above the cap of 1024"):
            bs.assemble(bs.SystemSpec("TGP", ref1_coeffs(), kernel_g=many), 1)
        assert modal._node_cap(ref1["BGP"]) == 508 and modal._node_cap(ref1["TF"]) == 1019


ALL_TAGS = ("BGP", "BMC", "TGP", "TMC", "BF", "TF")
REF1_BGP = bs.SystemSpec("BGP", ref1_coeffs(), kernel_g=bs.prony_kernel([(1.0, 1.0)]),
                         kernel_h=bs.prony_kernel([(1.0, 1.0)]))


class TestEnergyCoordinates:
    NS = np.array([1, 2, 7, 40, 300, 2500])

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(spec=admissible_specs(ALL_TAGS), upwind=st.booleans())
    @example(spec=REF1_BGP, upwind=True)
    def test_closed_form_matches_the_cholesky_coordinates(self, spec, upwind):
        grid = None
        if upwind:
            assume(spec.model in ("BGP", "TGP"))
            grid = bs.make_grid(spec.kernel_g, 12)
        try:
            stack = modal._layout(spec, grid)
        except bs.AdmissibilityError:   # a grid from kernel_g that cuts kernel_h
            assume(False)
        K0, K1 = stack.K
        assert np.array_equal(K1, -K1.T)
        if stack.scheme in ("prony-reduction", "flux"):   # K0 = S0 + diag(D), S0 skew
            S0 = K0 - np.diag(np.diag(K0))
            assert np.array_equal(S0, -S0.T)
        G = np.concatenate([G for _, G in stack.chunks(int(self.NS[-1]))])[self.NS - 1]
        ref = rmod._weight_factors(*reference_mode_arrays(stack, self.NS))
        # the same spectrum, to 1e-12 of the generator's norm
        ev, ev_ref = np.linalg.eigvals(G), np.linalg.eigvals(ref)
        gap = np.max(np.min(np.abs(ev[:, :, None] - ev_ref[:, None, :]), axis=2), axis=1)
        assert np.all(gap <= 1e-12 * np.linalg.norm(G, 2, axis=(1, 2)))
        # the same resolvent norms, to 1e-12 relative times the condition
        # number of i lam - G where a resonance makes it large
        eye = np.eye(stack.dim)
        for lam in (0.0, 2.7, 30.0, 300.0, 2500.0):
            got, want = rmod._batched_norms(G, lam=lam), rmod._batched_norms(ref, lam=lam)
            kappa = np.linalg.norm(1j * lam * eye - G, 2, axis=(1, 2)) * got
            assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(kappa, 1.0) * want)

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(spec=admissible_specs(ALL_TAGS), upwind=st.booleans(),
           ns=st.lists(st.integers(1, 30_000), min_size=1, max_size=6))
    @example(spec=REF1_BGP, upwind=True, ns=[1, 2, 30_000])
    def test_state_coordinates_match_the_reference(self, spec, upwind, ns):
        # G and W scaled back from the energy coordinates have the zero
        # pattern of the assembly that writes every heat law out in the
        # state coordinates, and its entries to 8 eps relative
        grid = None
        if upwind:
            assume(spec.model in ("BGP", "TGP"))
            grid = bs.make_grid(modal._grid_kernel(spec), 12)
        try:
            stack = modal._layout(spec, grid)
        except bs.AdmissibilityError:   # a grid that cuts a kernel
            assume(False)
        for got, want in zip(modal._mode_arrays(stack, ns), reference_mode_arrays(stack, ns)):
            assert np.array_equal(got != 0, want != 0)
            nz = want != 0
            assert np.all(np.abs(got[nz] - want[nz]) <= 8 * np.finfo(float).eps * np.abs(want[nz]))

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(spec=admissible_specs(ALL_TAGS), upwind=st.booleans())
    @example(spec=REF1_BGP, upwind=True)
    @example(spec=bs.SystemSpec("TF", ref1_coeffs()), upwind=False)
    @example(spec=bs.SystemSpec("BF", ref1_coeffs()), upwind=False)
    def test_heat_block_partition(self, spec, upwind):
        # every stack has a heat block: the blocks' states, or the classical
        # law's temperatures (4 beam states and 1 heat state on TF, 6 and 2 on
        # BF) with H_n = -(varpi/rho3) omega_n^2; K0[h, b] = -K0[b, h]^T, zero
        # but for the curved classical beam's l gamma coupling, and K1[h, h] =
        # 0 bit for bit, and the blocks rebuild every generator bit for bit
        grid = bs.make_grid(spec.kernel_g, 12) if upwind and spec.model[1:] == "GP" else None
        try:
            stack = modal._layout(spec, grid)
        except bs.AdmissibilityError:   # a grid from kernel_g that cuts kernel_h
            assume(False)
        K0, K1 = stack.K
        heat, c = stack.heat, spec.coeffs
        if stack.scheme == "none":
            h = np.array([stack.index[name] for name in stack.labels if name.startswith("temp_")])
            assert h.size == (2 if spec.is_bresse else 1) == stack.dim - (6 if spec.is_bresse else 4)
            assert np.array_equal(heat.H2, np.diag(np.full(h.size, -c.varpi / c.rho3)))
            assert not heat.H0.any() and heat.U0.any() == spec.is_bresse
        else:
            h = np.concatenate([np.arange(blk.start, blk.start + blk.size)
                                for blk in stack.blocks])
            assert not (heat.U0.any() or heat.H2.any())
        b = np.setdiff1d(np.arange(stack.dim), h)
        assert np.array_equal(heat.h, h)
        assert np.array_equal(K0[np.ix_(h, b)], -K0[np.ix_(b, h)].T)
        assert np.all(K1[np.ix_(h, h)] == 0)
        ns = np.array([1, 2, 7, 40, 300])
        for n, G in zip(ns, modal._generators(stack, ns)):
            om = n * np.pi / c.ell
            rebuilt = np.empty_like(G)
            rebuilt[np.ix_(b, b)] = om * heat.B1 + heat.B0
            rebuilt[np.ix_(b, h)] = om * heat.U1 + heat.U0
            rebuilt[np.ix_(h, b)] = om * -heat.U1.T - heat.U0.T
            rebuilt[np.ix_(h, h)] = heat.H0 + om ** 2 * heat.H2
            assert np.array_equal(rebuilt, G)
        assert np.array_equal(np.tril(heat.H0), heat.H0)

    def test_generators_raise_at_the_curvature_resonance(self):
        stack = modal._layout(bs.SystemSpec("BF", ref1_coeffs(l=1.0)), None)
        with pytest.raises(bs.SingularWeightError):
            next(stack.chunks(4))


def hand_placed_entries(spec, n, lam):
    """An independent oracle for the beam table: the elastic and thermal
    entries of G_n, W_n (without its ell/2 factor) and M_n, written out entry
    by entry as the hand-placed code had them before ``modal._beam``.  Each
    matrix maps (row label, column label) to the list of the entry's terms;
    M_n is None for the classical law."""
    c, om, lam2 = spec.coeffs, bs.omega(spec.coeffs.ell, n), lam * lam
    k, k0, b, g, r1, r2, r3 = c.k, c.k0, c.b, c.gamma, c.rho1, c.rho2, c.rho3
    l = spec.effective_l
    G = {("defl", "defl_t"): [1.0], ("rot", "rot_t"): [1.0],
         ("defl_t", "defl"): [-k * om**2 / r1], ("defl_t", "rot"): [-k * om / r1],
         ("rot_t", "defl"): [-k * om / r2], ("rot_t", "rot"): [-b * om**2 / r2, -k / r2],
         ("rot_t", "temp_b"): [-g * om / r2], ("temp_b", "rot_t"): [g * om / r3]}
    W = {("defl", "defl"): [k * om * om], ("defl", "rot"): [k * om],
         ("rot", "rot"): [k, b * om**2], ("defl_t", "defl_t"): [r1],
         ("rot_t", "rot_t"): [r2], ("temp_b", "temp_b"): [r3]}
    M = {("defl", "defl"): [-r1 * lam2, k * om**2], ("defl", "rot"): [k * om],
         ("rot", "rot"): [-r2 * lam2, b * om**2, k], ("rot", "temp_b"): [g * om],
         ("temp_b", "rot"): [lam2 * om * g]}
    if spec.is_bresse:
        G[("defl_t", "defl")].append(-l * l * k0 / r1)
        G.update({("defl_t", "axial"): [-l * om * k / r1, -l * om * k0 / r1],
                  ("defl_t", "temp_a"): [-l * g / r1], ("rot_t", "axial"): [-k * l / r2],
                  ("axial", "axial_t"): [1.0],
                  ("axial_t", "defl"): [-l * om * k / r1, -l * om * k0 / r1],
                  ("axial_t", "rot"): [-k * l / r1],
                  ("axial_t", "axial"): [-k0 * om**2 / r1, -l * l * k / r1],
                  ("axial_t", "temp_a"): [-g * om / r1],
                  ("temp_a", "axial_t"): [g * om / r3], ("temp_a", "defl_t"): [g * l / r3]})
        W[("defl", "defl")].append(k0 * l * l)
        W.update({("defl", "axial"): [k * om * l, k0 * l * om], ("rot", "axial"): [k * l],
                  ("axial", "axial"): [k * l * l, k0 * om * om],
                  ("axial_t", "axial_t"): [r1], ("temp_a", "temp_a"): [r3]})
        M[("defl", "defl")].append(l * l * k0)
        M.update({("defl", "axial"): [l * om * k, l * om * k0], ("defl", "temp_a"): [l * g],
                  ("rot", "axial"): [k * l], ("axial", "axial"): [-r1 * lam2, k0 * om**2, l * l * k],
                  ("axial", "temp_a"): [g * om], ("temp_a", "defl"): [lam2 * g * l],
                  ("temp_a", "axial"): [lam2 * om * g]})
    for A in (W, M):   # the strain energy is symmetric
        A.update({(j, i): A[i, j] for i, j in list(A)
                  if i != j and not {i, j} & {"temp_b", "temp_a"}})
    if spec.model in ("BF", "TF"):
        return G, W, None
    kernels = spec.heat_kernels()
    for temp, kernel in zip(("temp_b", "temp_a"), kernels):
        if kernel is not None:
            vg0 = c.varpi * bs.masses(kernel).g0
            M[temp, temp] = [-r3 * lam2, vg0 * om**2, -c.varpi * om**2 * bs.fourier_mu(kernel, lam)]
    return G, W, M


def assert_matches_terms(A, labels, entries, skip=()):
    """Every entry of A on the labels (but the pairs in ``skip``) is the sum
    of its terms in ``entries`` (zero where there are none) within
    4 eps times the sum of their magnitudes."""
    for i, row in enumerate(labels):
        for j, col in enumerate(labels):
            if (row, col) in skip:
                continue
            terms = entries.get((row, col), [])
            bound = 4 * np.finfo(float).eps * sum(abs(t) for t in terms)
            assert abs(A[i, j] - sum(terms)) <= bound, (row, col, A[i, j], terms)


class TestBeamTable:
    """The generated elastic and thermal entries of G_n, W_n and M_n against
    the hand-placed oracle, on generic coefficients (the golden configs set
    every density and stiffness to 1 and cannot tell them apart)."""

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(spec=admissible_specs(ALL_TAGS), n=st.sampled_from([1, 2, 7, 40, 300, 4096]),
           lam_per_n=st.floats(0.0, 80.0))
    def test_matches_the_hand_placed_entries(self, spec, n, lam_per_n):
        lam = lam_per_n * n
        G, W, M = hand_placed_entries(spec, n, lam)
        mode = bs.assemble(spec, n)
        beam = [name for name in mode.labels if not name.startswith(("hist_", "flux_"))]
        keep = [mode.index(name) for name in beam]
        temps = [(i, j) for i in ("temp_b", "temp_a") for j in ("temp_b", "temp_a")]
        assert_matches_terms(mode.generator[np.ix_(keep, keep)], beam, G, skip=temps)
        assert_matches_terms(mode.weight[np.ix_(keep, keep)] / (mode.ell / 2), beam, W)
        if M is not None:
            unknowns = [name for name in beam if not name.endswith("_t")]
            assert_matches_terms(bs.mn_matrix(spec, n, lam), unknowns, M)


class TestWeightSingularity:
    def test_resonant_curvature_flags_mode_one(self, ref1):
        c = ref1_coeffs(l=1.0)
        spec = bs.SystemSpec("BF", c)
        W = bs.weight_matrix(spec, 1)
        ew, V = np.linalg.eigh(W)
        assert ew[0] <= 1e-12 * ew[-1]
        # null vector is supported on (defl, rot, axial) = (1, 0, -1)
        null = V[:, 0]
        m = bs.assemble(bs.SystemSpec("BF", ref1_coeffs()), 1)
        i_defl, i_rot, i_ax = (m.labels.index(x) for x in ("defl", "rot", "axial"))
        v = np.zeros(len(m.labels))
        v[i_defl], v[i_ax] = 1.0, -1.0
        v /= np.linalg.norm(v)
        assert abs(abs(null @ v) - 1.0) < 1e-10

    def test_other_modes_positive_definite(self):
        spec = bs.SystemSpec("BF", ref1_coeffs(l=1.0))
        for n in (2, 3, 10, 100):
            ew = np.linalg.eigvalsh(bs.weight_matrix(spec, n))
            assert ew[0] > 1e-10 * ew[-1]

    def test_assemble_raises_on_resonance(self):
        spec = bs.SystemSpec("BF", ref1_coeffs(l=1.0))
        with pytest.raises(bs.SingularWeightError):
            bs.assemble(spec, 1)

    def test_ref1_weight_positive(self, ref1):
        ew = np.linalg.eigvalsh(bs.weight_matrix(ref1["BGP"], 1))
        assert ew[0] > 0

    def test_straight_beam_weight_positive_for_all_modes(self, ref1):
        # no curvature term, so no resonance can degenerate the energy form
        for n in (1, 2, 7, 50, 100):
            ew = np.linalg.eigvalsh(bs.weight_matrix(ref1["TGP"], n))
            assert ew[0] > 0


class TestDissipation:
    def test_random_states_nonpositive(self, ref1, rng):
        for spec in ref1.values():
            for n in (1, 5, 33):
                m = bs.assemble(spec, n)
                for u in random_states(rng, m.dim, 20):
                    info = bs.dissipation_rate(m, u)
                    assert info.rate <= 1e-10 * wnorm(m.weight, u) ** 2

    def test_identity_exact_prony(self, ref1, rng):
        m = bs.assemble(ref1["BGP"], 7)
        for u in random_states(rng, m.dim, 50):
            info = bs.dissipation_rate(m, u)
            assert info.gamma_form == "prony-exact"
            assert info.identity_gap <= 1e-10 * max(abs(info.rate), 1e-30)

    def test_identity_exact_sgrid(self, ref1, rng):
        grid = bs.make_grid(ref1["TGP"].kernel_g, 64)
        m = bs.assemble(ref1["TGP"], 3, grid=grid)
        for u in random_states(rng, m.dim, 20):
            info = bs.dissipation_rate(m, u)
            assert info.gamma_form == "upwind-cellmass"
            assert info.identity_gap <= 1e-10 * max(abs(info.rate), 1e-30)

    def test_identity_exact_sgrid_two_kernels(self, unit_exp, rng):
        # different kernels per temperature sharing one history grid
        slow = bs.prony_kernel([(2.0 / 3.0, 1.0), (1.0 / 12.0, 2.0)])
        spec = bs.SystemSpec("BGP", ref1_coeffs(), kernel_g=unit_exp, kernel_h=slow)
        grid = bs.make_grid(slow, 48)
        m = bs.assemble(spec, 2, grid=grid)
        for u in random_states(rng, m.dim, 10):
            info = bs.dissipation_rate(m, u)
            assert info.rate <= 1e-10 * wnorm(m.weight, u) ** 2
            assert info.identity_gap <= 1e-10 * max(abs(info.rate), 1e-30)

    def test_shared_grid_must_cover_slow_kernel(self, unit_exp):
        slow = bs.prony_kernel([(1.0 / 16.0, 4.0)])  # g-mass 1, decays slowly
        spec = bs.SystemSpec("BGP", ref1_coeffs(), kernel_g=unit_exp, kernel_h=slow)
        grid = bs.make_grid(unit_exp, 48)  # certified for the fast kernel only
        with pytest.raises(bs.AdmissibilityError, match="slower"):
            bs.assemble(spec, 1, grid=grid)

    def test_zero_memory_state_has_zero_rate(self, ref1, rng):
        for tag in ("BGP", "BMC", "TGP", "TMC"):
            m = bs.assemble(ref1[tag], 4)
            u = random_states(rng, m.dim, 1)[0]
            for blk in m.memory:
                u[blk.start:blk.start + blk.size] = 0.0
            if not m.memory:  # relaxed models store blocks too; guard anyway
                continue
            info = bs.dissipation_rate(m, u)
            assert abs(info.rate) <= 1e-12 * wnorm(m.weight, u) ** 2

    def test_bmc_pure_flux_rate(self, ref1):
        m = bs.assemble(ref1["BMC"], 2)
        c = ref1["BMC"].coeffs
        u = np.zeros(m.dim, dtype=complex)
        u[m.index("flux_b")] = 0.7 - 0.2j
        info = bs.dissipation_rate(m, u)
        expected = -(c.ell / 2) * abs(u[m.index("flux_b")]) ** 2 / c.varpi
        assert info.rate == pytest.approx(expected, rel=1e-12)

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(spec=admissible_specs(MODELS), upwind=st.booleans(), nodes=st.integers(8, 16),
           n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
    def test_memory_functional_and_the_exact_sup(self, spec, upwind, nodes, n, seed):
        # each Gamma is the quadratic form of its _gamma_matrix, equal to the
        # per-vector reference; the exact sup over all states bounds every
        # sampled Rayleigh quotient from above, and it is 0, as a state of
        # displacements alone does not dissipate
        grid = (bs.make_grid(modal._grid_kernel(spec), nodes)
                if upwind and spec.model in MEMORY_MODELS else None)
        stack = modal._layout(spec, grid)
        m = stack.mode(n)
        gap = modal._identity_gap(stack, [n])
        assert (gap is None) == (spec.model not in MEMORY_MODELS)
        # the sup as check states it: the top eigenvalue of sym(Gh_n) in the
        # energy coordinates, where W = I
        Gh = modal._generators(stack, [n])[0]
        ev = np.linalg.eigvalsh(Gh + Gh.T) / 2
        sup, scale = ev[-1], np.max(np.abs(ev))
        quotients = []
        for u in random_states(np.random.default_rng(seed), m.dim, 10):
            info = bs.dissipation_rate(m, u)
            for blk in m.memory if gap is not None else ():
                assert info.gamma[blk.temp] == pytest.approx(memory_gamma(m, blk, u), rel=1e-12)
            quotients.append(info.rate / wnorm(m.weight, u) ** 2)
        assert max(quotients) <= sup + 1e-12 * scale
        assert abs(sup) <= 1e-12 * scale
        assert gap is None or gap[0] <= 1e-12

    def test_dimension_mismatch(self, ref1):
        m = bs.assemble(ref1["TF"], 1)
        with pytest.raises(bs.DomainError):
            bs.dissipation_rate(m, np.zeros(3))


class TestMakeGrid:
    def test_envelope_truncation_unit_exp(self, unit_exp):
        grid = bs.make_grid(unit_exp, 64)
        assert grid.s_max == pytest.approx(np.log(1e10), rel=1e-12)
        assert modal.grid_tail_mass(unit_exp, grid.s_max) <= 1e-10 * bs.masses(unit_exp).g0

    def test_node_masses_reproduce_total(self, unit_exp):
        # two kernels on one shared grid: each block holds its own kernel's
        # cell masses, which with its tail make up the kernel's g(0)
        slow = bs.prony_kernel([(2.0 / 3.0, 1.0), (1.0 / 12.0, 2.0)])
        spec = bs.SystemSpec("BGP", ref1_coeffs(), kernel_g=unit_exp, kernel_h=slow)
        grid = bs.make_grid(modal._grid_kernel(spec), 64)
        blocks = bs.assemble(spec, 1, grid=grid).memory
        kernels = {"temp_b": unit_exp, "temp_a": slow}
        assert sorted(blk.temp for blk in blocks) == sorted(kernels)
        for blk in blocks:
            kern = kernels[blk.temp]
            assert blk.grid is grid
            total = np.sum(blk.node_mass) + modal.grid_tail_mass(kern, grid.s_max)
            assert total == pytest.approx(bs.masses(kern).g0, rel=1e-8)

    def test_minimum_size(self, unit_exp):
        with pytest.raises(bs.DomainError):
            bs.make_grid(unit_exp, 4)


def _shared_trajectory_gap(spec, M, t_grid):
    """Weighted-norm gap between prony and upwind realizations on the shared
    (non-memory) components, from a deflection-rate initial state."""
    mp = bs.assemble(spec, 1)
    grid = bs.make_grid(spec.kernel_g, M)
    ms = bs.assemble(spec, 1, grid=grid)
    shared = [lab for lab in mp.labels if not lab.startswith("hist")]
    ip = [mp.labels.index(lab) for lab in shared]
    isg = [ms.labels.index(lab) for lab in shared]
    u0p = np.zeros(mp.dim, dtype=complex)
    u0p[mp.index("defl_t")] = 1.0
    u0s = np.zeros(ms.dim, dtype=complex)
    u0s[ms.index("defl_t")] = 1.0
    tp = bs.propagate(mp, u0p, t_grid)
    tsg = bs.propagate(ms, u0s, t_grid)
    Wsh = mp.weight[np.ix_(ip, ip)]
    gap = 0.0
    for j in range(t_grid.size):
        d = tp.states[j][ip] - tsg.states[j][isg]
        gap = max(gap, wnorm(Wsh, d))
    return gap


class TestBackendAgreement:
    def test_upwind_converges_to_prony(self, ref1):
        # first-order transport: the gap halves (at least) with each grid
        # doubling; at M = 256 it sits near 7e-3 for the reference system
        ts = np.linspace(0.0, 50.0, 26)
        gaps = {M: _shared_trajectory_gap(ref1["TGP"], M, ts) for M in (64, 128, 256)}
        assert gaps[128] <= 0.55 * gaps[64]
        assert gaps[256] <= 0.55 * gaps[128]
        assert gaps[256] < 1e-2
