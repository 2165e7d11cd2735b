import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import beamstab as bs
from beamstab import dynamics as dmod
from beamstab import modal as modal_mod
from beamstab import resolvent as rmod
from beamstab.resolvent import ROUND_REL
from conftest import admissible_specs, ref1_coeffs, random_states, wnorm


class TestPropagate:
    def test_time_zero_identity(self, ref1, rng):
        m = bs.assemble(ref1["BMC"], 2)
        u0 = random_states(rng, m.dim, 1)[0]
        traj = bs.propagate(m, u0, [0.0, 1.0])
        np.testing.assert_array_equal(traj.states[0], u0)

    def test_energy_nonincreasing(self, ref1, rng):
        for tag in ("BGP", "BMC", "TGP", "TMC", "BF", "TF"):
            m = bs.assemble(ref1[tag], 3)
            u0 = random_states(rng, m.dim, 1)[0]
            traj = bs.propagate(m, u0, np.linspace(0.0, 20.0, 41))
            diffs = np.diff(traj.energy)
            assert np.all(diffs <= 1e-10 * traj.energy[:-1])

    def test_undamped_straight_beam_conserves_energy(self, rng):
        # with the thermal coupling removed the elastic block is skew in the
        # energy inner product
        c = ref1_coeffs(gamma=1e-300)
        m = bs.assemble(bs.SystemSpec("TF", c), 2)
        u0 = np.zeros(m.dim, dtype=complex)
        for lab in ("defl", "defl_t", "rot", "rot_t"):
            u0[m.index(lab)] = rng.normal() + 1j * rng.normal()
        traj = bs.propagate(m, u0, np.linspace(0.0, 100.0, 26))
        assert np.max(np.abs(traj.energy - traj.energy[0])) <= 1e-10 * traj.energy[0]

    def test_contraction(self, ref1, rng):
        from beamstab import dynamics as dmod
        from beamstab.modal import weight_sqrt
        for tag, spec in ref1.items():
            m = bs.assemble(spec, 4)
            Wh, Whi = weight_sqrt(m.weight)
            *_, U = dmod._propagator(m.generator[None])
            for t in (0.1, 1.0, 10.0, 100.0):
                s = np.linalg.svd(Wh @ (U(0, t) @ Whi), compute_uv=False)[0]
                assert s <= 1.0 + 1e-10

    def test_exponential_case_energy_drop(self, refexp, rng):
        # mode-1 energy decay tracks twice the spectral abscissa
        sa = bs.spectral_abscissa(refexp, 1)
        delta = -sa.global_max
        m = bs.assemble(refexp, 1)
        u0 = random_states(rng, m.dim, 1)[0]
        traj = bs.propagate(m, u0, [0.0, 50.0])
        ratio = traj.energy[1] / traj.energy[0]
        assert ratio <= 10.0 * np.exp(-2 * delta * 50.0)

    def test_nondecreasing_grid_required(self, ref1):
        m = bs.assemble(ref1["TF"], 1)
        with pytest.raises(bs.DomainError):
            bs.propagate(m, np.zeros(m.dim, dtype=complex), [1.0, 0.5])



class TestExpmFallback:
    """EIG_COND_LIMIT = 0 forces both scipy expm branches; they must agree
    with the eigendecomposition path."""

    @pytest.fixture
    def expm_calls(self, monkeypatch):
        import scipy.linalg
        calls = []
        expm = scipy.linalg.expm

        def counted(A):
            calls.append(A.shape)
            return expm(A)

        monkeypatch.setattr(scipy.linalg, "expm", counted)
        return calls

    def test_propagate(self, ref1, rng, monkeypatch, expm_calls):
        from beamstab import dynamics as dmod
        m = bs.assemble(ref1["BGP"], 3)
        u0 = random_states(rng, m.dim, 1)[0]
        ts = np.linspace(0.0, 20.0, 9)
        eig = bs.propagate(m, u0, ts)
        assert not expm_calls
        monkeypatch.setattr(dmod, "EIG_COND_LIMIT", 0.0)
        fallback = bs.propagate(m, u0, ts)
        assert len(expm_calls) == len(ts) - 1
        scale = np.max(np.abs(eig.states))
        np.testing.assert_allclose(fallback.states, eig.states, rtol=0, atol=1e-10 * scale)
        np.testing.assert_allclose(fallback.energy, eig.energy, rtol=1e-10)

    def test_semiuniform_series(self, ref1, monkeypatch, expm_calls):
        from beamstab import dynamics as dmod
        ts = np.geomspace(1.0, 100.0, 5)
        eig = bs.semiuniform_series(ref1["BMC"], ts, 6)
        assert not expm_calls
        monkeypatch.setattr(dmod, "EIG_COND_LIMIT", 0.0)
        fallback = bs.semiuniform_series(ref1["BMC"], ts, 6)
        assert len(expm_calls) == 6 * len(ts)
        np.testing.assert_allclose(fallback, eig, rtol=1e-10)

class TestSemiuniform:
    def test_time_zero_matches_resolvent_at_zero(self, ref1):
        v0 = bs.semiuniform_norm(ref1["BMC"], 0.0, 16)
        s0 = bs.sweep(ref1["BMC"], [0.0], 16, peak_refine=False)[0].value
        assert v0 == pytest.approx(s0, rel=1e-10)

    def test_never_decreases_with_mode_cap(self, ref1):
        for t in (10.0, 100.0):
            v16 = bs.semiuniform_norm(ref1["BMC"], t, 16)
            v32 = bs.semiuniform_norm(ref1["BMC"], t, 32)
            assert v32 >= v16 - 1e-14

    def test_exponential_model_decays_exponentially(self, refexp):
        ts = np.geomspace(1.0, 300.0, 10)
        vals = bs.semiuniform_series(refexp, ts, 32)
        fit = bs.decay_fit(ts, vals, "exponential")
        sa = bs.spectral_abscissa(refexp, 32)
        assert fit.rate == pytest.approx(-sa.global_max, rel=0.1)


def _dense_mode_norms(G, ts, n):
    """||exp(t G) G^{-1}||_2 per t for the generator G of mode n, by the
    per-mode loop of ``semiuniform_series`` before batching; a test oracle
    only."""
    import scipy.linalg
    lam, V = np.linalg.eig(G)
    if np.any(lam == 0):
        raise bs.SpectralPointError(f"0 is in the spectrum of mode {n}", lam=0.0, n=int(n))
    Vinv = np.linalg.inv(V)
    cond = np.linalg.norm(V, axis=(0, 1)) * np.linalg.norm(Vinv, axis=(0, 1))
    if np.isfinite(cond) and cond < dmod.EIG_COND_LIMIT:
        R = Vinv / lam[:, None]
        Ms = [(V * np.exp(lam * t)) @ R for t in ts]
    else:
        Ginv = np.linalg.inv(G)
        Ms = [scipy.linalg.expm(G * t) @ Ginv for t in ts]
    return np.array([np.linalg.svd(M, compute_uv=False)[0] for M in Ms])


def _dense_reference(spec, ts, n_max, grid=None):
    """The sup over the modes 1..n_max of ``_dense_mode_norms``, each mode's
    generator from the stack's chunks, so the batched series must match it
    bit for bit."""
    ts = np.asarray(ts, dtype=float)
    vals = np.zeros(ts.size)
    for ns, Gs in modal_mod._layout(spec, grid).chunks(n_max):
        for n, G in zip(ns, Gs):
            for j, v in enumerate(_dense_mode_norms(G, ts, n)):
                vals[j] = max(vals[j], v)
    return vals


TS = np.concatenate([[0.0], np.geomspace(0.5, 2e3, 9)])
ALL_TAGS = ("BGP", "BMC", "TGP", "TMC", "BF", "TF")


def assert_series_matches_dense(spec, ts, n_max, grid=None):
    """The batched series equals the per-mode oracle bit for bit; returns
    the work counters."""
    work = {}
    got = bs.semiuniform_series(spec, ts, n_max, grid=grid, work=work)
    assert got.tolist() == _dense_reference(spec, ts, n_max, grid=grid).tolist()
    assert work["modes_propagated"] <= n_max and work["pruning"] == "certified"
    # a walk that ends before n_max certifies its tail with a finite bound
    assert work["modes_propagated"] == n_max or work["tail"] == "certified"
    assert work["tail"] == "truncated" or np.isfinite(work["tail_bound"])
    assert 0 < work["norm_evals"] <= n_max * len(ts)
    return work


def _tabulated_exp_kernel():
    s = np.linspace(0.0, 23.0, 401)
    return bs.normalized(bs.tabulated_kernel(s, np.exp(-s), delta_tail=1.0, delta=1.0))


class TestBatchedSeriesMatchesDense:
    @pytest.mark.parametrize("tag", ALL_TAGS)
    def test_ref1(self, ref1, tag):
        work = assert_series_matches_dense(ref1[tag], TS, 24)
        assert work["expm_modes"] == 0

    def test_exponential_case(self, refexp):
        assert_series_matches_dense(refexp, TS, 24)

    def test_normalized_two_term_kernel(self):
        kern = bs.normalized(bs.prony_kernel([(1.0, 1.0), (0.5, 3.0)]))
        for tag in ("BGP", "TGP"):
            spec = bs.SystemSpec(tag, ref1_coeffs(), kernel_g=kern,
                                 kernel_h=kern if tag == "BGP" else None)
            assert_series_matches_dense(spec, TS, 20)

    def test_tabulated_history_grid(self):
        kern = _tabulated_exp_kernel()
        spec = bs.SystemSpec("TGP", ref1_coeffs(), kernel_g=kern)
        assert_series_matches_dense(spec, TS, 24, grid=bs.make_grid(kern, 16))

    def test_time_zero_alone(self, ref1):
        for tag in ("BGP", "TF"):
            assert_series_matches_dense(ref1[tag], [0.0], 16)

    def test_chunk_boundaries(self, ref1, monkeypatch):
        # 7 modes per chunk at d = 10: n_max 30 spans five chunks
        monkeypatch.setattr(modal_mod, "CHUNK_ELEMENTS", 7 * 100 + 99)
        chunks = [ns for ns, _ in modal_mod._layout(ref1["BMC"], None).chunks(30)]
        assert [len(c) for c in chunks] == [7, 7, 7, 7, 2]
        assert np.concatenate(chunks).tolist() == list(range(1, 31))
        for tag in ("BMC", "BGP"):
            assert_series_matches_dense(ref1[tag], TS, 30)

    def test_generators_formed_through_the_module(self, ref1, monkeypatch):
        # one formation per chunk, looked up on the modal module at call
        # time, so that a wrapper on modal._generators sees it
        generators, calls = modal_mod._generators, []

        def counted(stack, ns):
            calls.append(len(ns))
            return generators(stack, ns)

        monkeypatch.setattr(modal_mod, "_generators", counted)
        monkeypatch.setattr(modal_mod, "CHUNK_ELEMENTS", 7 * 100 + 99)
        bs.semiuniform_series(ref1["BMC"], TS, 30)
        assert calls == [7, 7, 7, 7, 2]

    def test_mixed_fallback(self, ref1, monkeypatch):
        # a limit between the modes' ||V||_F ||V^{-1}||_F sends some modes
        # (and only those) down the expm path
        spec = ref1["BGP"]
        V = np.linalg.eig(modal_mod._generators(modal_mod._layout(spec, None),
                                                np.arange(1, 17)))[1]
        cond = np.sort(np.linalg.norm(V, axis=(1, 2))
                       * np.linalg.norm(np.linalg.inv(V), axis=(1, 2)))
        monkeypatch.setattr(dmod, "EIG_COND_LIMIT", float(np.sqrt(cond[5] * cond[6])))
        monkeypatch.setattr(modal_mod, "CHUNK_ELEMENTS", 5 * 121)
        work = assert_series_matches_dense(spec, TS, 16)
        assert work["expm_modes"] == 10

    def test_condition_test_bounds_cond_2(self, ref1):
        # ||V||_F ||V^{-1}||_F >= cond_2(V): the cheap test only ever sends
        # more modes to expm than the SVD-based one did
        G = modal_mod._generators(modal_mod._layout(ref1["BGP"], None), np.arange(1, 65))
        _, V, Vinv, ok, _ = dmod._propagator(G)
        frob = np.linalg.norm(V, axis=(1, 2)) * np.linalg.norm(Vinv, axis=(1, 2))
        assert np.all(frob >= np.linalg.cond(V)) and np.all(ok)

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(spec=admissible_specs(ALL_TAGS), n_max=st.integers(1, 40),
           t_max=st.floats(1.0, 1e4))
    def test_random_coefficients(self, spec, n_max, t_max):
        ts = np.concatenate([[0.0], np.geomspace(1e-2, t_max, 6)])
        assert_series_matches_dense(spec, ts, n_max)


class TestRankOneBound:
    @settings(max_examples=25, deadline=None)
    @given(spec=admissible_specs(ALL_TAGS), t=st.floats(0.0, 1e3))
    def test_bound_covers_the_norm(self, spec, t):
        ns = np.array([1, 2, 3, 7, 40, 300])
        lam, V, Vinv, ok, _ = dmod._propagator(
            modal_mod._generators(modal_mod._layout(spec, None), ns))
        stack = dmod._SmoothedPropagators(lam[ok], V[ok], Vinv[ok])
        E = np.exp(stack.lam * t)
        norms = stack.norms(np.arange(E.shape[0]), E)
        assert np.all(norms <= stack.bounds(E) * (1 + 1e-12))

    @staticmethod
    def _propagators(spec, ns, grid=None):
        lam, V, Vinv, ok, _ = dmod._propagator(
            modal_mod._generators(modal_mod._layout(spec, grid), ns))
        assert np.all(ok)
        return dmod._SmoothedPropagators(lam, V, Vinv)

    @pytest.mark.parametrize("tag, nodes", [("BGP", None), ("TGP", 32)])
    def test_bound_covers_the_norm_where_exp_underflows(self, ref1, tag, nodes):
        # some exp(lam t) subnormal, some exactly 0, and a whole mode below
        # 1e-154, where the squares underflow; squaring before scaling gave
        # bounds of 0 (and overflow and invalid-value warnings) for modes of
        # positive norm
        spec = ref1[tag]
        grid = None if nodes is None else bs.make_grid(spec.kernel_g, nodes)
        stack = self._propagators(spec, np.array([1, 2, 3, 7, 40, 300]), grid)
        fastest = -np.min(stack.lam.real)
        slowest = np.min(-stack.lam.real, axis=1)
        cases = {720.0 / fastest: lambda E, norms: np.any((E > 0) & (E < np.finfo(float).tiny)),
                 800.0 / fastest: lambda E, norms: np.any(E == 0),
                 400.0 / np.max(slowest): lambda E, norms: np.any(norms < 1e-154)}
        for t, shown in cases.items():
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                E = np.exp(stack.lam * t)
                norms = stack.norms(np.arange(E.shape[0]), E)
                bounds = stack.bounds(E)
            assert shown(np.abs(E), norms)
            assert np.all(norms > 0)
            assert np.all(norms <= bounds * (1 + 1e-12))

    def test_bound_is_tight_at_the_slow_pair(self, ref1):
        # the rank-one sum counted each conjugate pair twice: bound/norm was
        # 2.0 at the median; one live pair now gives its exact norm
        stack = self._propagators(ref1["BGP"], np.arange(1, 513))
        for t in (1e2, 1e3, 1e4):
            E = np.exp(stack.lam * t)
            norms = stack.norms(np.arange(E.shape[0]), E)
            ratio = stack.bounds(E) / norms
            assert np.median(ratio) <= 1.01
            if t > 1e2:   # at t = 1e2 the argmax is mode 1, with two live pairs
                assert ratio[np.argmax(norms)] <= 1 + 1e-5

    def test_singular_generator_names_its_mode(self, ref1, monkeypatch):
        generators = modal_mod._generators

        def singular_at_9(stack, ns):
            G = generators(stack, ns)
            G[np.asarray(ns) == 9] = 0.0
            return G

        monkeypatch.setattr(modal_mod, "_generators", singular_at_9)
        monkeypatch.setattr(modal_mod, "CHUNK_ELEMENTS", 4 * 100)
        with pytest.raises(bs.SpectralPointError) as exc:
            bs.semiuniform_series(ref1["BMC"], TS, 12)
        assert exc.value.n == 9 and exc.value.lam == 0.0
        with pytest.raises(bs.SpectralPointError) as exc:
            _dense_reference(ref1["BMC"], TS, 12)
        assert exc.value.n == 9

    def test_pruning_cuts_the_work(self, ref1):
        # the tail bound stops the walk at mode 307, below n_max
        work = {}
        bs.semiuniform_series(ref1["BGP"], np.geomspace(100.0, 1e4, 9), 512, work=work)
        assert work["modes_propagated"] == 307 and work["expm_modes"] == 0
        assert work["tail"] == "certified"
        assert work["norm_evals"] <= 2 * 9


class TestTailCertificate:
    DAMPED_TAGS = ("BGP", "TGP", "BMC", "TMC")
    TS = np.geomspace(100.0, 1e4, 9)

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(spec=admissible_specs(DAMPED_TAGS), n=st.integers(1, 10_000),
           ts=st.lists(st.floats(0.0, 1e3), min_size=1, max_size=3))
    def test_bound_is_sound(self, spec, n, ts):
        stack = modal_mod._layout(spec, None)
        K0 = stack.K[0]
        # prony memory and flux: K0 = S0 + diag(D), S0 skew and D <= 0
        D = np.diag(K0)
        S0 = K0 - np.diag(D)
        assert np.array_equal(S0, -S0.T) and np.all(D <= 0)
        assert rmod._Certificate(stack, 1.0).contracts
        ts = np.array(ts)
        b = dmod._tail_bounds(stack, ts, n)(np.array([n]))[0]
        if not np.isfinite(b):
            assert b == np.inf
            return
        G = modal_mod._generators(stack, [n])[0]
        s_min = np.linalg.svd(G, compute_uv=False)[-1]
        assert b * (1 + ROUND_REL) >= 1.0 / s_min
        assert np.all(b * (1 + ROUND_REL) >= _dense_mode_norms(G, ts, n))

    @staticmethod
    def _golden_bmc():
        # tests/data/golden_decay/bmc/config.json
        return bs.SystemSpec("BMC", ref1_coeffs(sigma=1.5, tau=0.7))

    def _series(self, spec, n_max):
        work = {}
        vals = bs.semiuniform_series(spec, self.TS, n_max, work=work)
        return vals, work

    @pytest.mark.parametrize("tag, ceilings, stop", [("BGP", (512, 1024, 2048), 307),
                                                     ("golden BMC", (1024, 2048, 4096), 660)])
    def test_certified_ceilings_agree(self, ref1, tag, ceilings, stop):
        # past its certified stop, raising n_max changes no value and no work
        spec = self._golden_bmc() if tag == "golden BMC" else ref1[tag]
        runs = [self._series(spec, n_max) for n_max in ceilings]
        for vals, work in runs:
            assert vals.tolist() == runs[0][0].tolist()
            assert work["tail"] == "certified" and work["modes_propagated"] == stop
            assert work["tail_bound"] < np.min(vals)
        if tag == "golden BMC":
            fit = bs.decay_fit(self.TS, runs[0][0], "algebraic")
            assert fit.rate == pytest.approx(-0.5, abs=0.1)

    @pytest.mark.parametrize("tag, n_max", [("BGP", 128), ("golden BMC", 64)])
    def test_truncated_tail_bounds_the_rest(self, ref1, tag, n_max):
        # the default ceilings stop short; the tail bound covers what they miss
        spec = self._golden_bmc() if tag == "golden BMC" else ref1[tag]
        vals, work = self._series(spec, n_max)
        full, _ = self._series(spec, 2048)
        assert work["tail"] == "truncated" and work["modes_propagated"] == n_max
        assert np.all(np.maximum(vals, work["tail_bound"]) >= full)
        assert np.any(vals < full)

    def test_undamped_stacks_walk_every_mode(self, ref1):
        # the classical law has no radius, and the upwind grid's K1 is singular
        kern = _tabulated_exp_kernel()
        upwind = bs.SystemSpec("TGP", ref1_coeffs(), kernel_g=kern)
        for spec, grid in ((ref1["TF"], None), (upwind, bs.make_grid(kern, 16))):
            work = {}
            bs.semiuniform_series(spec, self.TS, 24, grid=grid, work=work)
            assert work["modes_propagated"] == 24
            assert work["tail"] == "truncated" and work["tail_bound"] is None

    def test_empty_time_grid(self, ref1):
        work = {}
        vals = bs.semiuniform_series(ref1["BGP"], [], 16, work=work)
        assert vals.shape == (0,)
        assert work["modes_propagated"] == 16 and work["tail"] == "truncated"


class TestDecayFit:
    def test_exact_exponential(self):
        ts = np.linspace(1.0, 40.0, 12)
        fit = bs.decay_fit(ts, 5.0 * np.exp(-0.3 * ts), "exponential")
        assert fit.rate == pytest.approx(0.3, abs=1e-12)
        assert fit.constant == pytest.approx(5.0, rel=1e-12)
        assert fit.residual < 1e-12

    def test_exact_algebraic(self):
        ts = np.geomspace(1.0, 1e3, 12)
        fit = bs.decay_fit(ts, 2.0 / np.sqrt(ts), "algebraic")
        assert fit.rate == pytest.approx(-0.5, abs=1e-12)
        assert fit.constant == pytest.approx(2.0, rel=1e-12)

    def test_floor_contaminated_data_flagged(self):
        ts = np.geomspace(1.0, 1e4, 16)
        vals = 2.0 / np.sqrt(ts) + 0.05  # decay onto a floor
        fit = bs.decay_fit(ts, vals, "algebraic")
        assert fit.residual > 0.1

    def test_rejects_nonpositive_values(self):
        with pytest.raises(bs.DomainError):
            bs.decay_fit(np.arange(1.0, 9.0), np.zeros(8), "exponential")

    def test_needs_eight_points(self):
        with pytest.raises(bs.FitError):
            bs.decay_fit([1.0, 2.0, 3.0], [1.0, 0.5, 0.25], "exponential")


class TestFluxMap:
    def test_zero_memory_maps_to_zero_flux(self, ref1):
        spec = ref1["BGP"]
        m = bs.assemble(spec, 1)
        state = bs.ModalState(1, np.zeros(m.dim, dtype=complex))
        out = bs.lambda_map(state, spec)
        assert np.all(out.vec == 0)

    def test_lift_roundtrip(self, ref1, rng):
        spec = ref1["BGP"]
        twin = bs.mc_twin(spec)
        mm = bs.assemble(twin, 3)
        v0 = bs.ModalState(3, random_states(rng, mm.dim, 1)[0])
        lifted = bs.lambda_lift(v0, spec)
        back = bs.lambda_map(lifted, spec)
        np.testing.assert_allclose(back.vec, v0.vec, rtol=1e-14)

    def test_trajectory_commutation(self, ref1, rng):
        spec = ref1["BGP"]
        twin = bs.mc_twin(spec)
        ts = np.linspace(0.0, 100.0, 21)
        for n in (1, 4, 8):
            mg = bs.assemble(spec, n)
            mm = bs.assemble(twin, n)
            u0 = random_states(rng, mg.dim, 1)[0]
            tg = bs.propagate(mg, u0, ts)
            v0 = bs.lambda_map(bs.ModalState(n, u0), spec)
            tm = bs.propagate(mm, v0.vec, ts)
            for j in range(ts.size):
                mapped = bs.lambda_map(bs.ModalState(n, tg.states[j]), spec)
                gap = wnorm(mm.weight, mapped.vec - tm.states[j])
                assert gap <= 1e-8

    def test_generator_norm_equality_on_lifted_data(self, ref1, rng):
        # ||A u0||_H = ||B v0||_V when u0 is the canonical lift of v0
        spec = ref1["BGP"]
        twin = bs.mc_twin(spec)
        mg = bs.assemble(spec, 2)
        mm = bs.assemble(twin, 2)
        for v in random_states(rng, mm.dim, 50):
            u = bs.lambda_lift(bs.ModalState(2, v), spec)
            left = wnorm(mg.weight, mg.generator @ u.vec)
            right = wnorm(mm.weight, mm.generator @ v)
            assert left == pytest.approx(right, rel=1e-12)

    def test_energy_isometry(self, ref1, rng):
        spec = ref1["TGP"]
        twin = bs.mc_twin(spec)
        mg = bs.assemble(spec, 5)
        mm = bs.assemble(twin, 5)
        for u in random_states(rng, mg.dim, 50):
            v = bs.lambda_map(bs.ModalState(5, u), spec)
            assert wnorm(mm.weight, v.vec) == pytest.approx(
                wnorm(mg.weight, u), rel=1e-12)

    @pytest.mark.parametrize("tag", ["BGP", "TGP"])
    def test_stacked_states_map_like_single_states(self, ref1, rng, tag):
        spec = ref1[tag]
        dim = bs.assemble(spec, 3).dim
        states = random_states(rng, dim, 7)
        for fn in (bs.lambda_map, bs.lambda_lift):
            stacked = fn(bs.ModalState(3, states), spec).vec
            assert stacked.shape == states.shape
            for u, got in zip(states, stacked):
                assert np.all(fn(bs.ModalState(3, u), spec).vec == got)

    @pytest.mark.parametrize("tag", ["BGP", "TGP"])
    def test_the_system_stack_maps_like_its_spec(self, ref1, rng, tag):
        spec = ref1[tag]
        stack = modal_mod._layout(spec, None)
        states = random_states(rng, stack.dim, 3)
        for fn in (bs.lambda_map, bs.lambda_lift):
            assert np.all(fn(bs.ModalState(2, states), stack).vec
                          == fn(bs.ModalState(2, states), spec).vec)

    def test_a_stack_on_the_history_grid_is_refused(self, ref1):
        # the same exponential kernel, but its memory on the upwind grid
        spec = ref1["TGP"]
        stack = modal_mod._layout(spec, bs.make_grid(spec.kernel_g, 16))
        state = bs.ModalState(1, np.zeros(stack.dim, dtype=complex))
        for fn in (bs.lambda_map, bs.lambda_lift):
            with pytest.raises(bs.UnsupportedMapError, match="sgrid-upwind"):
                fn(state, stack)

    def test_discrete_flux_bound_on_history_grid(self, ref1, rng):
        # sigma ||flux image||^2 <= varpi ||history||^2 on upwind states
        spec = ref1["TGP"]
        c = spec.coeffs
        grid = bs.make_grid(spec.kernel_g, 64)
        m = bs.assemble(spec, 2, grid=grid)
        blk = m.memory[0]
        mass = blk.node_mass
        om = m.omega
        half_ell = c.ell / 2
        sigma = 1.0  # unit exponential kernel: theta = varpi*sigma = 1
        for _ in range(1000):
            d = rng.normal(size=blk.size) + 1j * rng.normal(size=blk.size)
            flux = -c.varpi * om * np.sum(mass * d)
            lhs = sigma * half_ell * abs(flux) ** 2
            rhs = c.varpi * half_ell * c.varpi * om**2 * np.sum(mass * np.abs(d) ** 2)
            assert lhs <= rhs * (1 + 1e-12)

    def test_requires_exponential_kernel(self):
        two = bs.prony_kernel([(2.0 / 3.0, 1.0), (1.0 / 12.0, 2.0)])
        spec = bs.SystemSpec("TGP", ref1_coeffs(), kernel_g=two)
        with pytest.raises(bs.UnsupportedMapError):
            bs.mc_twin(spec)


class TestSingularLimit:
    def test_rescaled_path(self, ref1):
        rows = bs.singular_limit(ref1["BGP"], [1e-1, 1e-2, 1e-3, 1e-4])
        assert rows[0].target_g == pytest.approx(-1.0)
        gaps = [r.gap_g for r in rows]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        r3 = rows[2]
        assert abs(r3.chi_g - r3.target_g) <= 0.01 * abs(r3.target_g)
        assert abs(r3.chi_h - r3.target_h) <= 0.01 * abs(r3.target_h)

    def test_mixture_path_same_limits(self, ref1):
        rows = bs.singular_limit(ref1["BGP"], [1e-1, 1e-2, 1e-3], m=0.5)
        assert rows[0].target_g == pytest.approx(-1.0)
        gaps = [r.gap_g for r in rows]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert rows[-1].gap_g <= 0.01

    def test_straight_beam_has_single_column(self, ref1):
        rows = bs.singular_limit(ref1["TGP"], [1e-2])
        assert rows[0].chi_h is None and rows[0].gap_h is None

    def test_relaxed_model_rejected(self, ref1):
        with pytest.raises(bs.SpecError):
            bs.singular_limit(ref1["BMC"], [0.1])
