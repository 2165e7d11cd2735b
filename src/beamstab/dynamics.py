"""Time propagation, decay measurement, and the history-to-flux equivalence.

Per-mode propagators are dense matrix exponentials, and ``_propagator`` is
the one evaluator of exp(t G_n): over a stack of generators it uses an
eigendecomposition where the eigenvector basis is well conditioned, otherwise
the scaling-and-squaring routine takes over.  Block diagonality makes the
operator norm equal to the sup over modes; ``semiuniform_series`` takes the
max over the modes it walks, n <= N_max a ceiling, and on prony-memory and
relaxed-flux stacks a tail certificate says whether that max is the sup over
all n (below).

Batched smoothed propagator.  ``semiuniform_series`` walks the modes in
chunks (``ModeStack.chunks``: at most CHUNK_ELEMENTS = 25,600 entries per
stacked (N, d, d) array, which is 256 modes at d = 10 and 18 at d = 37).  Per
chunk it takes the energy-coordinate generators Gh_n = omega_n K1 + K0 of
the ``modal`` coupling matrices, plus omega_n^2 H2 on the classical law's
heat block, its temperatures (there the W-norm is the 2-norm),
diagonalizes Gh_n = V diag(lam) V^{-1} and inverts V once, so that

    exp(t Gh_n) Gh_n^{-1} = L diag(exp(lam t)) R,  L = V,  R = diag(1/lam) V^{-1},

with no factorization of Gh_n itself; a zero eigenvalue raises
SpectralPointError naming its mode.

The product is the sum of the rank-one terms E_k (L e_k)(e_k^T R),
E_k = exp(lam_k t), whose norms sum to b_n(t) = sum_k |E_k| ||L e_k||
||e_k^T R||.  On a polynomially stable mode the slow branch is a conjugate
pair, which b_n counts twice (b_n is twice the norm once that pair
dominates).  Gh_n is real, so ``eig`` returns each conjugate pair at
adjacent places k, k+1, Im > 0 first; the bound takes each such pair as one
rank-two term, by the triangle inequality over the groups (any grouping
gives a valid bound, the pairing only makes it tight).  With u_i the
pair's columns of L, v_i^T its rows of R, X = [a u_1, c u_2] and
Y = [v_1^T; v_2^T], its exact norm is

    ||a u_1 v_1^T + c u_2 v_2^T||_2^2 = lambda_max((X^H X)(Y Y^H)),

the larger eigenvalue of a 2 x 2 product, in closed form from its trace
and determinant.  The cosines gamma_u = u_1^H u_2 / (||u_1|| ||u_2||) and
gamma_v of the pair's two columns and rows are formed once per chunk, so
each t costs a few flops per pair.  a and c are E_k ||u_1|| ||v_1|| and
E_{k+1} ||u_2|| ||v_2||, scaled by m = max(|a|, |c|) before anything is
squared and divided in real arithmetic, so no |E|^2 underflows (a mode of
positive norm never gets a bound of 0) and a subnormal m overflows nothing.

Rounding allowance.  With kappa = 8 sqrt(d*eps), a pair enters the bound as
m sqrt(mu + kappa), mu the computed lambda_max / m^2, and every mode's
bound is the sum of its pair terms, the norms of its other (real-eigenvalue)
terms and kappa b_n.  Inside the root, kappa covers the closed form: the
computed trace, determinant and 1 - |gamma|^2 (all scaled to at most 4)
carry absolute errors of order d*eps, which the square root of the
discriminant turns into an error of order sqrt(d*eps) in mu, largest where
it cancels.  Outside, kappa b_n covers the computed product, which differs
from L diag(E) R by at most about d*eps*b_n in norm (its componentwise
error is bounded by |L| diag|E| |R|, whose norm is at most b_n), and the
relative error of order d*eps of its computed SVD.  Where one pair
dominates, bound/norm exceeds 1 by about 1e-6.

At each t the chunk's max is the resolvent module's gated max
(``resolvent._gated_max``) of the bounds and their SVDs, from the maximum
of the earlier chunks: an SVD runs only where the pruning rule
(``resolvent._below``) cannot show the bound below the running max; the
computed SVD carries a relative error of order d*eps, inside the rule's
margins.  A pruned mode's computed norm therefore lies strictly below the
max, so it cannot change it; per-mode LAPACK results do not depend on the
batch, and the values are bit-identical to the per-mode loop.  The chunk's
eigendecomposition comes from ``_propagator``; modes whose
||V||_F ||V^{-1}||_F, an upper bound of the eigenvector condition number
cond_2(V), is not below EIG_COND_LIMIT take its ``expm`` and one inverse of
Gh_n at every time point, without pruning.

Certified tail.  Where the heat block has no omega_n^2 term (H2 = 0),
Gh_n = omega_n K1 + S0 + E with K1 and S0 skew and E symmetric
(``resolvent._Certificate``).  Where E <= 0 by
Gershgorin's row test (``_Certificate.contracts``; on prony memory and
relaxed flux E is the diagonal of negative rates),
Gh_n + Gh_n^T = 2E <= 0 and ||exp(t Gh_n)||_2 <= 1 for t >= 0.  By
Weyl, sigma_min(Gh_n) >= c_min omega_n - ||S0|| - ||E||, c_min the least
singular value of K1, hence at every t

    ||exp(t Gh_n) Gh_n^{-1}||_2 <= b_n = 1 / (c_min omega_n - r),

r the certificate's radius for the modes up to n_max + 1, and b_n = inf
where c_min omega_n <= r or the row test fails (every mode of a multi-term
prony stack and of the upwind grid, whose K1 is singular up to rounding,
and of the classical law, whose bands have a centre 0 too: these keep the
full walk and a ``truncated`` tail).  Before a chunk is
eigendecomposed, its modes whose b_n is below the smallest value so far
(``resolvent._below``) are dropped.  b_n does not increase with n and the
values only grow, so the modes kept form a prefix, and once one mode is
dropped every later mode lies below the max at every t: the walk ends
there and forms no later chunk.  ``tail`` is "certified" when the first
mode not walked (the stop, or n_max + 1) has b_n below the smallest value,
which then bounds every mode not walked, up to every n; otherwise
"truncated".

Rounding.  r carries the allowance ROUND_REL (c_max omega_n + ||S0||),
which covers the computed c_min and ||S0|| and a backward error delta of
order d eps ||Gh_n|| in the generator, so b_n also bounds
||(Gh_n + delta)^{-1}||; ||exp(t (Gh_n + delta))|| <= exp(t ||delta||).  A
mode's computed value is the norm of its propagator through the computed
eigendecomposition, whose relative error is of order cond_2(V) d eps
(below EIG_COND_LIMIT d eps, else ``expm``), times exp(t ||delta||).  The
bound is therefore used only where (EIG_COND_LIMIT + t_max ||Gh_n||) d eps
<= ROUND_REL for every n <= n_max + 1, with ||Gh_n|| <= c_max omega_n + r
(b_n = inf elsewhere); the rule's margins of 2 ROUND_REL then keep a
dropped mode's computed value below the max, so it could not have changed
it, and the samples keep their bits.

For a one-term exponential kernel the auxiliary prony state y of a memory
mode maps linearly onto the relaxed-flux variable, flux = -varpi*omega*y.
That map matches energies exactly and intertwines the two generators, which
is the modal realization of the known equivalence between the memory law
with exponential kernel and the relaxed flux law.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import kernels as kmod
from . import modal as modal_mod
from . import model as mmod
from . import resolvent as rmod
from .errors import (DomainError, NumericError, SpecError,
                     SpectralPointError, UnsupportedMapError)

__all__ = [
    "ModalState",
    "Trajectory",
    "DecayFit",
    "LimitRow",
    "propagate",
    "semiuniform_norm",
    "semiuniform_series",
    "decay_fit",
    "mc_twin",
    "lambda_map",
    "lambda_lift",
    "singular_limit",
]

EIG_COND_LIMIT = 1e8
FIT_KINDS = ("exponential", "algebraic")   # the decay fits (``decay_fit``)


@dataclass(frozen=True)
class ModalState:
    n: int
    vec: np.ndarray


@dataclass(frozen=True)
class Trajectory:
    n: int
    t: np.ndarray
    states: np.ndarray   # (T, dim)
    energy: np.ndarray   # (T,)


@dataclass(frozen=True)
class DecayFit:
    kind: str        # one of FIT_KINDS
    rate: float      # decay rate omega (exponential) or log-log slope (algebraic)
    constant: float
    residual: float  # max abs deviation in log space
    window: tuple


@dataclass(frozen=True)
class LimitRow:
    eps: float
    chi_g: float
    chi_h: float     # None for straight-beam models
    target_g: float
    target_h: float
    gap_g: float
    gap_h: float


def _propagator(G):
    """exp(t G_n) for a stack G of generators, the package's one evaluator.

    Returns (lam, V, Vinv, ok, U): the eigendecompositions
    G_n = V diag(lam) Vinv, whether each eigenvector basis passes the
    condition test ||V||_F ||Vinv||_F < EIG_COND_LIMIT (the product bounds
    cond_2(V) from above, so the test errs only toward ``expm``), and
    U(i, t) = exp(t G_i) for stack entry i, from the eigendecomposition where
    ``ok`` and from the scaling-and-squaring ``expm`` elsewhere.
    """
    lam, V = np.linalg.eig(G)
    Vinv = np.linalg.inv(V)
    cond = np.linalg.norm(V, axis=(1, 2)) * np.linalg.norm(Vinv, axis=(1, 2))
    ok = np.isfinite(cond) & (cond < EIG_COND_LIMIT)

    def U(i, t):
        if not ok[i]:
            import scipy.linalg  # lazy: only this fallback needs scipy
            return scipy.linalg.expm(G[i] * t)
        return (V[i] * np.exp(lam[i] * t)) @ Vinv[i]
    return lam, V, Vinv, ok, U


def propagate(mode, u0, ts):
    """Trajectory exp(t G) u0 with the per-step energy (1/2)||u||_W^2."""
    if isinstance(u0, ModalState):
        if u0.n != mode.n:
            raise DomainError(f"state is for mode {u0.n}, system is mode {mode.n}")
        u0 = u0.vec
    u0 = np.asarray(u0, dtype=complex)
    if u0.shape != (mode.dim,):
        raise DomainError(f"state has shape {u0.shape}, mode dimension is {mode.dim}")
    ts = kmod._grid(ts, "time grid")
    if np.any(np.diff(ts) < 0):
        raise DomainError("time grid must be nondecreasing")
    *_, U = _propagator(mode.generator[None])
    states = np.empty((ts.size, mode.dim), dtype=complex)
    energy = np.empty(ts.size)
    W = mode.weight
    for j, t in enumerate(ts):
        u = U(0, t) @ u0 if t > 0 else u0.copy()
        if not np.all(np.isfinite(u)):
            raise NumericError(f"non-finite state at mode n={mode.n}, t={t}")
        states[j] = u
        energy[j] = 0.5 * float(np.real(np.conj(u) @ (W @ u)))
    return Trajectory(n=mode.n, t=ts.copy(), states=states, energy=energy)


def _adjacent_products(A):
    """sum_i conj(A[n, i, k]) A[n, i, k+1] per n and k, one k at a time, so
    that no stack-sized temporary is formed."""
    out = np.empty((A.shape[0], A.shape[2] - 1), dtype=complex)
    for k in range(out.shape[1]):
        out[:, k] = np.einsum("ni,ni->n", A[:, :, k].conj(), A[:, :, k + 1])
    return out


class _SmoothedPropagators:
    """exp(t Gh_n) Gh_n^{-1} = L diag(exp(lam t)) R for a stack of
    diagonalizable modes, with L = V and R = diag(1/lam) V^{-1}; each
    conjugate eigenvalue pair is one rank-two term (module docstring)."""

    def __init__(self, lam, V, Vinv):
        self.lam, self.L, self.R = lam, V, Vinv / lam[:, :, None]
        cols, rows = np.linalg.norm(self.L, axis=1), np.linalg.norm(self.R, axis=2)
        # ||L e_k|| ||e_k^T R||: the norm of each rank-one term at exp(lam t) = 1
        self.terms = cols * rows
        self.kappa = 8.0 * np.sqrt(lam.shape[-1] * np.finfo(float).eps)
        # the pairs (k, k+1), Im > 0 first, as eig returns them for a real Gh_n
        n, k = np.nonzero((lam[:, :-1].imag > 0) & (lam[:, 1:] == lam[:, :-1].conj()))
        self.pairs = np.ravel_multi_index((n, k), lam.shape)
        # cosines of the angles between the pair's columns of L and rows of R
        gl = _adjacent_products(self.L)[n, k] / (cols[n, k] * cols[n, k + 1])
        gr = _adjacent_products(np.swapaxes(self.R, 1, 2))[n, k] / (rows[n, k] * rows[n, k + 1])
        self.gamma = gl * gr
        self.delta = np.maximum((1.0 - np.abs(gl) ** 2) * (1.0 - np.abs(gr) ** 2), 0.0)

    def bounds(self, E):
        """Per mode, an upper bound of ||L diag(E) R||_2 that covers its
        computed SVD: the norms of the pair terms, the norms
        |E_k| ||L e_k|| ||e_k^T R|| of the other terms, and the allowance
        kappa * b_n, b_n the sum of all rank-one norms (module docstring)."""
        x = np.abs(E) * self.terms
        b = x.sum(axis=1)
        i, j = self.pairs, self.pairs + 1
        m = np.maximum(x.flat[i], x.flat[j])
        live = m > 0

        def scaled(idx):
            # E_k ||L e_k|| ||e_k^T R|| / m, |.| <= 1, divided in real
            # arithmetic: a complex division by a subnormal m overflows
            e, t = E.flat[idx], self.terms.flat[idx]
            re = np.divide(e.real, m, out=np.zeros_like(m), where=live)
            im = np.divide(e.imag, m, out=np.zeros_like(m), where=live)
            return re * t + 1j * (im * t)

        a, c = scaled(i), scaled(j)
        aa, cc = a.real ** 2 + a.imag ** 2, c.real ** 2 + c.imag ** 2
        # eigenvalues of the 2 x 2 (X^H X)(Y Y^H), over m^2
        tr = aa + cc + 2.0 * np.real(np.conj(a) * c * self.gamma)
        det = aa * cc * self.delta
        top = 0.5 * (tr + np.sqrt(np.maximum(tr * tr - 4.0 * det, 0.0)))
        x.flat[i] = m * np.sqrt(top + self.kappa)
        x.flat[j] = 0.0
        return x.sum(axis=1) + self.kappa * b

    def norms(self, rows, E):
        """Largest singular values of L diag(E) R for the modes ``rows``."""
        M = (self.L[rows] * E[rows, None, :]) @ self.R[rows]
        return np.linalg.svd(M, compute_uv=False)[:, 0]


def _tail_bounds(stack, ts, n_max):
    """b(ns): per mode index, the contraction bound b_n >= ||exp(t Gh_n)
    Gh_n^{-1}||_2 at every t in ``ts`` (module docstring), inf where the
    band gap c_min omega_n - r is not positive, and everywhere where E <= 0
    is not certified or the rounding guard fails."""
    ell = stack.spec.coeffs.ell
    om_top = (n_max + 1) * np.pi / ell
    cert = rmod._Certificate(stack, om_top)
    # >= ||Gh_n|| for n <= n_max + 1 where H2 = 0; on the classical law b_n is
    # inf anyway, as its band at 0 holds lam = 0
    g_norm = cert.c[-1] * om_top + cert.radius
    guard = cert.contracts and ((EIG_COND_LIMIT + np.max(ts, initial=0.0) * g_norm)
                                * stack.dim * np.finfo(float).eps <= rmod.ROUND_REL)
    return lambda ns: cert.upper(0.0, ns * np.pi / ell, where=guard)


def _chunk_max(G, ns, ts, vals, counts):
    """Raise ``vals`` to the max over the chunk's modes, counting the work."""
    lam, V, Vinv, ok, U = _propagator(G)
    counts["modes_propagated"] += ns.size
    for n in ns[np.any(lam == 0, axis=1)][:1]:   # the first singular mode
        raise SpectralPointError(f"0 is in the spectrum of mode {n}", lam=0.0, n=int(n))
    for i in np.flatnonzero(~ok):
        Ginv = np.linalg.inv(G[i])
        for j, t in enumerate(ts):
            M = U(i, t) @ Ginv
            vals[j] = max(vals[j], np.linalg.svd(M, compute_uv=False)[0])
        counts["expm_modes"] += 1
        counts["norm_evals"] += ts.size
    if not np.any(ok):
        return
    sel = slice(None) if np.all(ok) else ok   # views, not copies, where all are
    prop = _SmoothedPropagators(lam[sel], V[sel], Vinv[sel])
    for j, t in enumerate(ts):
        E = np.exp(prop.lam * t)
        norms, svds = rmod._gated_max(prop.bounds(E), lambda rows: prop.norms(rows, E),
                                      vals[j])
        # fmax skips NaN norms like the per-mode max() does; gated rows lie below
        vals[j] = max(vals[j], np.fmax.reduce(norms))
        counts["norm_evals"] += svds


def semiuniform_series(spec, ts, n_max, grid=None, work=None):
    """sup_n ||exp(t G_n) G_n^{-1}||_{W_n} over n <= n_max on a time grid.

    Exact per-mode weighted operator norms, batched over chunks of modes with
    certified pruning; where the tail bound is finite the walk ends at the first
    mode whose tail bound is below the smallest value so far (see the module
    docstring).  n_max is a ceiling: ``tail`` says whether the values are
    the sup over all n.  A ``work`` dict, when given, receives the counters
    modes_propagated (modes eigendecomposed), norm_evals (SVDs run),
    expm_modes and pruning, and the tail report: ``tail`` is "certified"
    when the first mode not walked has a tail bound below the smallest value
    (then so does every later mode, at every t), "truncated" otherwise, and
    ``tail_bound`` is that mode's bound, None where it is infinite.
    ``spec`` may be the system's ``ModeStack``.
    """
    stack = spec if isinstance(spec, modal_mod.ModeStack) else modal_mod._layout(spec, grid)
    ts = kmod._grid(ts, "times")
    n_max = kmod._count(n_max, "the decay series' n_max")
    vals = np.zeros(ts.size)
    counts = {"modes_propagated": 0, "norm_evals": 0, "expm_modes": 0,
              "pruning": "certified"}
    bound = _tail_bounds(stack, ts, n_max)

    def smallest():
        # a NaN value never prunes; with no times nothing does
        return np.min(vals) if vals.size else -np.inf

    for ns, G in stack.chunks(n_max):
        # the bounds do not increase with n, so the modes not below form a prefix
        below = rmod._below(bound(ns), smallest())
        walked = int(np.argmax(below)) if below.any() else ns.size
        if walked:
            _chunk_max(G[:walked], ns[:walked], ts, vals, counts)
        if walked < ns.size:
            first = ns[walked]
            break
    else:
        first = n_max + 1
    if not np.all(np.isfinite(vals)):
        raise NumericError("semiuniform norm overflowed")
    if work is not None:
        tail = float(bound(np.array([first]))[0])
        work.update(counts, tail="certified" if rmod._below(tail, smallest()) else "truncated",
                    tail_bound=tail if np.isfinite(tail) else None)
    return vals


def semiuniform_norm(spec, t, n_max, grid=None):
    return float(semiuniform_series(spec, [t], n_max, grid=grid)[0])


def decay_fit(ts, values, kind):
    """Least-squares decay fit of one of the FIT_KINDS, from at least
    ``resolvent.FIT_MIN_POINTS`` (8) times, one value per time.

    exponential: log v ~ log C - rate * t      (rate reported positive)
    algebraic:   log v ~ log C + rate * log t  (rate is the slope)
    """
    if kind not in FIT_KINDS:
        raise DomainError(f"unknown fit kind {kind!r}")
    ts = np.asarray(ts, dtype=float)
    if kind == "algebraic" and np.any(ts <= 0):
        raise DomainError("algebraic fit needs strictly positive times")
    x = ts if kind == "exponential" else np.log(ts)
    slope, intercept, residual = rmod._line_fit(x, values, "decay fit")
    rate = -slope if kind == "exponential" else slope
    return DecayFit(kind=kind, rate=float(rate), constant=float(np.exp(intercept)),
                    residual=residual, window=(float(ts[0]), float(ts[-1])))


def _exp_kernel_params(kernel, varpi, name):
    """The relaxation time theta/varpi of the flux matching a one-term
    exponential kernel a exp(-s/theta) of unit g-mass a theta^2 = 1."""
    if kernel is None or kernel.kind != "prony" or len(kernel.terms) != 1:
        raise UnsupportedMapError(
            f"{name} must be a one-term exponential kernel for the flux map")
    a, th = kernel.terms[0]
    if abs(a * th**2 - 1.0) > 1e-10:
        raise UnsupportedMapError(f"{name} must have unit total g-mass")
    return th / varpi


def mc_twin(spec):
    """The relaxed-flux system matching a memory system with exponential
    kernels: sigma = theta_g / varpi (and tau likewise)."""
    c = spec.coeffs
    if spec.model == "BGP":
        sigma = _exp_kernel_params(spec.kernel_g, c.varpi, "kernel_g")
        tau = _exp_kernel_params(spec.kernel_h, c.varpi, "kernel_h")
        return mmod.SystemSpec(model="BMC", coeffs=replace(c, sigma=sigma, tau=tau))
    if spec.model == "TGP":
        sigma = _exp_kernel_params(spec.kernel_g, c.varpi, "kernel_g")
        return mmod.SystemSpec(model="TMC", coeffs=replace(c, sigma=sigma))
    raise UnsupportedMapError("the flux map applies to memory-law systems only")


def _map_memory_rows(state, spec, name, fn):
    """fn(y, varpi, omega) applied to the prony memory states y of ``state.vec``,
    whose last axis must have the length of spec's prony layout."""
    if not isinstance(state, ModalState):
        raise DomainError(f"{name} expects a ModalState")
    mc_twin(spec)  # validates the kernels: one prony term per temperature
    labels = modal_mod._labels(spec, "prony-reduction")
    vec = np.array(state.vec, dtype=complex)
    if vec.shape[-1:] != (len(labels),):
        raise DomainError(f"{name} expects states of {len(labels)} entries (the prony "
                          f"layout of {spec.model}), got shape {vec.shape}")
    rows = [start for start, _ in modal_mod._heat_spans(labels, modal_mod._temps(spec))]
    om = modal_mod.omega(spec.coeffs.ell, state.n)
    vec[..., rows] = fn(vec[..., rows], spec.coeffs.varpi, om)
    return ModalState(n=state.n, vec=vec)


def lambda_map(state, spec):
    """``lambda_map(state, spec)``: map a memory-mode state of ``spec``
    (exponential kernels, prony form) to the state of the matching
    relaxed-flux system ``mc_twin(spec)``: flux = -varpi * omega * y.

    ``state.vec`` is one state or a stack of them along its last axis, such
    as the (T, d) states of a trajectory; d must be the length of spec's
    prony layout (10 on a curved beam, 6 on a straight one), else
    DomainError.  The shared components are untouched; energies agree
    exactly, so the map is an isometry between the reduced mode spaces.
    """
    return _map_memory_rows(state, spec, "lambda_map",
                            lambda y, varpi, om: -varpi * om * y)


def lambda_lift(state, spec):
    """``lambda_lift(state, spec)``: the inverse of ``lambda_map``,
    y = -flux / (varpi * omega), with the same length rule.

    Realizes the canonical history lift of a flux datum (the linear-in-s
    history whose flux image is the datum itself).
    """
    return _map_memory_rows(state, spec, "lambda_lift",
                            lambda flux, varpi, om: -flux / (varpi * om))


def singular_limit(spec, eps_list, m=None):
    """Stability numbers along the Dirac rescaling (or parabolic mixture).

    Reports, per eps, the rescaled chi values and their gaps to the
    classical-law limits -(rho1/k) chi0 and -(rho1/k) chi1.
    """
    if spec.model not in mmod.MEMORY_MODELS:
        raise SpecError("singular limit sweeps apply to memory-law systems")
    c = spec.coeffs
    chi0, chi1 = mmod._chi_elastic(c)
    target_g = -(c.rho1 / c.k) * chi0
    target_h = -(c.rho1 / c.k) * chi1 if spec.is_bresse else None

    def transformed(kernel, eps):
        if kernel is None:
            return None
        if m is None:
            return kmod.rescaled(kernel, eps)
        return kmod.cg_mix(kernel, eps, m)

    rows = []
    for eps in eps_list:
        # chi arithmetic works directly off the transformed masses; the
        # intermediates are legitimately non-normalized objects
        (_, chi_g, _), numbers_h = mmod._heat_numbers(
            c, [transformed(kernel, eps) for kernel in spec.heat_kernels()])
        chi_h = gap_h = None
        if numbers_h is not None:
            chi_h = numbers_h[1]
            gap_h = abs(chi_h - target_h)
        rows.append(LimitRow(eps=float(eps), chi_g=float(chi_g), chi_h=chi_h,
                             target_g=float(target_g), target_h=target_h,
                             gap_g=float(abs(chi_g - target_g)), gap_h=gap_h))
    return rows
