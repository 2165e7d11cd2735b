"""Resolvent norms on the imaginary axis and the sharp lower-bound sequence.

The truncated operator is block diagonal over modes, so its weighted
resolvent norm at i*lambda is the max over modes of the per-mode norms
||(i lam - G_n)^{-1}||_{W_n}.  In energy coordinates (``modal``) W-norms are
2-norms, so each is the largest singular value of (i lam - Gh_n)^{-1}, with
Gh_n = omega_n K1 + K0 formed from the system's coupling matrices
(``modal._generators``; omega_n^2 H2 added on the classical law's heat
block).  A single
``ModeSystem`` from a caller is moved there by the Cholesky factor
W_n = L L^T instead, Gh_n = L^T G_n L^{-T} (``_weight_factors``;
SingularWeightError if W_n is not positive definite), which is orthogonally
similar to the closed form, so every norm agrees.

Resonance peaks of the polynomially stable models are extremely narrow (their
width shrinks like lam^{-2}), so a blind lambda grid reads only the O(1)
inter-peak floor.  ``sweep`` therefore treats each grid point as a bin of the
log axis and, inside the bin, also evaluates at the imaginary parts of the
least-damped eigenvalues of the active modes, reporting the achieved
(lambda, sup) pair.  With ``peak_refine=False`` it degenerates to the plain
fixed-lambda evaluation.

Certified mode pruning.  Every stack whose heat block has no omega_n^2
term (H2 = 0: prony memory, the upwind grid, relaxed flux) has
Gh_n = omega_n K1 + K0 with K1 real skew.  Split K0 = S0 + E into its skew part
S0 = (K0 - K0^T)/2 and its symmetric part E = (K0 + K0^T)/2, so
Gh_n = S_n + E with S_n = omega_n K1 + S0 real skew, hence normal with
spectrum +-i s_k(n), s_k(n) its singular values.  Weyl's inequality for
singular values puts each s_k(n) within ||S0|| of c_k omega_n, the c_k the
singular values of K1, computed once per stack: the bands c_k omega_n +-
||S0||.  With radius r = ||E||_inf + ||S0||_2 (plus the allowance below;
||E||_2 <= ||E||_inf as E is symmetric, and on prony memory and flux, where
E is the diagonal of memory and flux rates -1/theta_j, -1/(relax*varpi),
||E||_inf is the largest rate exactly), writing
i lam - Gh_n = (i lam - S_n)(I - (i lam - S_n)^{-1} E) and
d = dist(lam, {c_k omega_n}):

* ||(i lam - G_n)^{-1}||_W <= 1/(d - r) when d > r (Neumann series);
* every eigenvalue mu of G_n has |Im mu - (+-c_k omega_n)| <= r for some k
  (Bauer-Fike: mu - G_n is singular only where the series diverges);
* ||(i lam - G_n)^{-1}||_W >= 1/(d + r) (Weyl: singular values move by at
  most ||S0|| + ||E||).

No mode is assembled for these bounds (Trefethen & Embree, Spectra and
Pseudospectra, 2005).

Eliminated bound.  Every stack splits Gh_n on its beam indices b and heat
indices h as [[B_n, U_n], [-U_n^T, H_n]], B_n = omega_n B1 + B0,
U_n = omega_n U1 + U0 and H_n = H0 + omega_n^2 H2 (``modal.HeatBlock``: the
memory or flux states, or the classical law's temperatures).  With
D_n = i lam - H_n and the Schur complement
S_n = i lam - B_n + U_n D_n^{-1} U_n^T, the exact block inverse is

    (i lam - Gh_n)^{-1} = blockdiag(0, D_n^{-1}) + L S_n^{-1} R,
    L = [I; -D_n^{-1} U_n^T],  R = [I, U_n D_n^{-1}],

with ||L|| = sqrt(1 + p_n^2), ||R|| = sqrt(1 + q_n^2), p_n = ||D_n^{-1}
U_n^T|| and q_n = ||U_n D_n^{-1}||, hence

    ||(i lam - G_n)^{-1}||_W <= b_n = ||D_n^{-1}||
        + sqrt((1 + p_n^2)(1 + q_n^2)) ||S_n^{-1}||_F.

On memory and flux stacks U0 = 0 and H2 = 0: D = i lam - H0 is
triangular with diagonal i lam - rate != 0, p_n = omega_n ||D^{-1} U1^T||,
q_n = omega_n ||U1 D^{-1}|| and S_n = i lam - B_n + omega_n^2 U1 D^{-1} U1^T,
so D^{-1} and the rest are computed once per lambda for every mode; b_n
then costs the inverse of the d_b x d_b matrix S_n (d_b <= 8), not of the
d x d resolvent (``_eliminated_bound``).

The classical law's bands.  Its heat states are the temperatures, H0 = 0
and H2 = -kappa I with kappa = varpi/rho3, K0 is skew (so B_n is), and
U0 != 0 only on the curved beam.  With eps_h = (||U1|| + ||U0||/omega_1)^2
/ kappa >= ||U_n||^2 / (kappa omega_n^2) for every n, two Schur
complements give its bands, centred at the singular values c_k of B1 and
at 0 with the radius r = ||B0||_2 + 2 eps_h:

* an eigenvalue mu with Re mu >= -kappa omega_n^2/2 has |mu + kappa
  omega_n^2| >= kappa omega_n^2/2, so it is an eigenvalue of the skew B_n
  moved by at most 2 eps_h (Bauer-Fike), within ||B0|| + 2 eps_h of a band
  +-c_k omega_n (Weyl);
* one with Re mu < -kappa omega_n^2/2 lies that far from the spectrum of
  B_n, so |mu + kappa omega_n^2| <= 2 eps_h and |Im mu| <= 2 eps_h: inside
  the band at 0;
* at i lam, |D_n| = |i lam + kappa omega_n^2| >= kappa omega_n^2, so the
  Neumann series on S_n gives ||S_n^{-1}|| <= 1/(d - r), and the block
  inverse ||(i lam - G_n)^{-1}||_W <= 1/|D_n| + (1 + a_n)^2 / (d - r) with
  a_n = (omega_n ||U1|| + ||U0||) / |D_n| >= p_n = q_n.

There is no Weyl lower bound on this law, whose non-skew part grows like
omega_n^2.

The pruning rule.  Every decision to skip a mode, here and in the decay
series of ``dynamics``, is one test, ``_below(upper, known)``: a computed
upper bound of a mode's norm against a computed lower bound ``known`` of the
max, each trusted to a relative ROUND_REL,

    upper (1 + ROUND_REL) < known (1 - ROUND_REL),

and a NaN is never below.  A mode that passes lies strictly below the max,
so it cannot be its argmax.  Maxima with a per-mode bound and a costly exact
value go through one gated max, ``_gated_max(upper, exact, known)``: the
exact value runs first on the largest bound, unless even that is below
``known``, which its value raises; then only on the modes not below the
raised bound.  Gated modes report their bound.  The max and its first index
are therefore those of the all-exact values, and per-mode LAPACK results do
not depend on the batch they share, so every reported value keeps its bits.

A sweep point takes three maxima: the best peak candidate, the value at lam
(which a candidate must exceed), and the value at the achieved lambda.
Candidates come first.  Only modes whose bin lies within r of some band
centre c_k omega_n can hold an eigenvalue there, so only they go to
``eigvals``.  The other two maxima skip the modes whose Neumann bound is
below the larger of a known lower bound of the max (the best candidate
value) and the largest Weyl bound (``may_reach``).  Two more bounds gate
the resolvent itself or its SVD, in this order (Trefethen & Embree,
Spectra and Pseudospectra, 2005):

* Eliminated gate (steps 2 and 3): a mode whose b_n is below the running
  max is not formed and reports b_n.  It runs where the heat block is at
  least as large as the beam block (the upwind grid; prony kernels of as
  many terms as beam states), so that b_n costs an inverse of at most half
  the size of the resolvent it saves, plus its share of the setup per
  lambda, which does not pay on prony memory of few terms, on flux (an
  8 x 8 S_n against a 10 x 10 resolvent on the curved beam) or on the
  classical law (6 x 6 against 8 x 8).  The
  candidates (step 1) each have their own lambda, so they are not gated.
* Frobenius gate (``_batched_norms`` given ``known``): every mode's
  X = (i lam - Gh_n)^{-1} is formed, and ||X||_2 <= ||X||_F is the bound of
  a gated max over the stack.  A sweep point runs it per chunk, from the
  running max it keeps in one place.  The candidates (step 1) are
  gated from no bound, the value at lam (step 2) from the best candidate
  value, the achieved lambda (step 3) from the candidate value itself.

Rounding allowance ROUND_REL = 2^-20 (about 1e-6): the radius is
r = ||E||_inf + ||S0||_2 + ROUND_REL (c_max omega_{N_max} + ||S0||), one
constant per sweep.  The allowance covers the computed c_k and ||S0||, the
rounding of Gh_n, whose norm is at most c_max omega_n + ||K0||, and the
backward error of its computed eigenvalues tested against the bin.  On the
classical law (B1 and B0 in place of K1 and S0, 2 eps_h in place of
||E||) the temperatures add kappa omega_n^2 to that norm, far more than
ROUND_REL can take, so the radius also carries d^2 eps kappa
omega_{N_max}^2: their share of the eigenvalues' backward error, about
d eps ||Gh_n||_F, with a factor d to spare.  The
computed ||X||_F and largest singular value of X carry relative errors of
about d^2 eps, well inside the rule's margins.  The eliminated bound b_n is
taken as inf where S_n does not invert, where b_n is not finite, and
where d eps (|lam| + ||Gh_n||_F) b_n or d eps cond exceeds ROUND_REL/4,
cond the larger of the Frobenius condition numbers of S_n and D and
||Gh_n||_F bounded from its closed form (``HeatBlock.gram``).  The first
term bounds the relative
error of the mode's computed dense value, whose condition number is at most
(|lam| + ||Gh_n||) b_n, the second that of the computed b_n, so a mode
skipped on b_n has its computed dense value below the max as well.  On
the upwind grid K1 is singular, and the classical law has its band at 0,
so a mode leaves the bins only where lam exceeds the radius.  Either way
the sup is taken over the modes 1..N(lam), N(lam) = max(n_max,
ceil(WINDOW_FACTOR * c)) with c = lam sqrt(rho1/k) ell/pi the index at
which omega_n sqrt(k/rho1) = lam, not over all n.

Mode cache.  Every range 1..N(lam) starts at mode 1, and the eigenvalues of
Gh_n do not depend on lam.  ``sweep`` therefore plans every point once (its
log bin and range N(lam)) in a read-only ``_ModeCache`` of the modes
1..N_max, N_max the largest N(lam) on the grid, that its samples and
threads share; a range past 2^20 modes or SWEEP_MAX_ENTRIES entries (N_max
d^2) raises DomainError before any assembly.  The first point builds its
candidates, before any worker thread starts: per searching point, the modes
of its range whose bands come within r of its bin (a distance per distinct
c_k and mode), then one ``eigvals`` on their union, formed a chunk at a
time.  The bins are disjoint, or equal for copies of one point,
so each eigenvalue falls in at most one bin, found by a binary search of the
sorted lower edges; per mode and bin the cache keeps the imaginary part of
the least-damped eigenvalue there.  A point's peak candidates are those of
its bin within its range: every mode in range with an eigenvalue in the
bin, as in the dense definition, since the certificate keeps all of them.
Gh_n costs less to form than to store, so no generator is kept: the norms
form the rows they gather, a chunk of at most ``modal.CHUNK_ELEMENTS``
entries at a time.  Forming is elementwise and per-mode LAPACK results do
not depend on the batch, so the samples are bit-identical to assembling
each range anew.  A sweep holds the plan, the omega_n of the modes
1..N_max, the candidates (at most one per mode and bin), one point's band
distances and one chunk.
"""

from dataclasses import dataclass, field

import numpy as np

from . import kernels as kmod
from . import modal as modal_mod
from . import model as mmod
from .errors import (DomainError, FitError, InfeasibleError, SingularWeightError,
                     SpecError, SpectralPointError)

__all__ = [
    "ResolventSample",
    "GrowthFit",
    "LowerBoundRow",
    "LowerBoundSequence",
    "DetCheck",
    "SpectralAbscissa",
    "mode_resolvent_norm",
    "sweep",
    "fit_growth",
    "mn_matrix",
    "lower_bound",
    "det_check",
    "spectral_abscissa",
]

WINDOW_FACTOR = 4.0
CRAMER_TOL = 1e-8
FIT_MIN_POINTS = 8       # the sample floor of every log-line fit (``_line_fit``)
ROUND_REL = 2.0 ** -20   # rounding allowance of the pruning certificate
# the cap on N_max d^2, the generator entries of a sweep's modes 1..N_max: it
# bounds the work, since a sweep forms generators a chunk at a time and keeps none
SWEEP_MAX_ENTRIES = 2 ** 26


@dataclass(frozen=True)
class ResolventSample:
    lam: float
    value: float
    argmax_n: int
    # the work counters and pruning of this point (see ``sweep``)
    work: dict = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class GrowthFit:
    exponent: float
    intercept: float
    residual: float
    count: int


@dataclass(frozen=True)
class DetCheck:
    n: int
    lam: float
    det_m: complex
    det_m_predicted: complex
    gap_m: float
    det_a: complex
    det_a_predicted: complex
    gap_a: float
    tol_hint: float


@dataclass(frozen=True)
class LowerBoundRow:
    n: int
    omega: float
    lam: float
    muhat: complex
    nuhat: complex
    det_m: complex
    det_a: complex
    amp: float          # |A_n| from the direct solve
    amp_cramer: float   # |det A_n / det M_n|
    ratio: float        # |A_n| / lam_n
    check: DetCheck     # measured vs predicted determinants


@dataclass(frozen=True)
class LowerBoundSequence:
    model: str
    c0: float
    beta0: float
    cstar: float
    forcing_norm: float
    rows: tuple
    notes: tuple


@dataclass(frozen=True)
class SpectralAbscissa:
    ns: np.ndarray
    per_mode: np.ndarray
    global_max: float
    argmax_n: int


def _weight_factors(G, W):
    """Real energy-coordinate generators Gh = L^T G L^{-T}, W = L L^T, of
    stacked modes given in state coordinates (a caller's ``ModeSystem``),
    with one batched Cholesky factorization and one batched solve."""
    try:
        L = np.linalg.cholesky(W)
    except np.linalg.LinAlgError:
        raise SingularWeightError("weight matrix is not positive definite") from None
    # L^{-1} G^T with a full-stack right-hand side; (X L)^T = L^T G L^{-T}
    X = np.linalg.solve(L, np.swapaxes(G, 1, 2))
    return np.swapaxes(X @ L, 1, 2)


def _below(upper, known):
    """The one pruning rule (module docstring): the computed upper bound
    ``upper`` lies provably below the computed lower bound ``known`` of the
    max.  Elementwise; a NaN is never below."""
    return upper * (1.0 + ROUND_REL) < known * (1.0 - ROUND_REL)


def _gated_max(upper, exact, known):
    """(values, exact evaluations run) of a max over modes with per-mode
    upper bounds ``upper``, given a lower bound ``known`` of the max (-inf
    for none).  ``exact(rows)`` returns the exact values of the modes at
    the index array ``rows``.  The largest bound (or the first NaN) is
    evaluated first, unless it is below ``known``; its value raises
    ``known``, and only the modes not below that are evaluated.  The others
    keep their bound, so the max and its first index are exact."""
    vals = np.array(upper, dtype=float)
    top = int(np.argmax(vals))
    if _below(vals[top], known):
        return vals, 0
    vals[top] = exact(np.array([top]))[0]
    rows = np.flatnonzero(~_below(vals, max(known, float(vals[top]))))
    rows = rows[rows != top]
    if rows.size:
        vals[rows] = exact(rows)
    return vals, 1 + rows.size


def _batched_norms(G, lam, known=None, work=None):
    """||(i lam - G)^{-1}||_2 per stacked energy-coordinate generator: the
    weighted resolvent norm.  ``lam`` may be a scalar or one value per mode.

    With ``known=None`` every value is exact.  Given a lower bound ``known``
    of the max (-inf for none), the stack is one gated max (module
    docstring) with the bound ||X||_F >= ||X||_2; gated modes report
    ||X||_F, so the max and its first index are exact.  A ``work`` dict
    counts the resolvents formed (``norm_evals``) and the SVDs run
    (``svds``).
    """
    N, d, _ = G.shape
    lam = np.broadcast_to(np.asarray(lam, dtype=float), (N,))
    try:
        X = np.linalg.inv(1j * lam[:, None, None] * np.eye(d) - G)
    except np.linalg.LinAlgError as exc:
        raise SpectralPointError(f"i*lambda lies in a mode spectrum: {exc}") from None

    def exact(rows):
        return np.linalg.svd(X[rows], compute_uv=False)[:, 0]

    if known is None:
        out, svds = exact(slice(None)), N
    else:
        out, svds = _gated_max(np.linalg.norm(X, axis=(1, 2)), exact, known)
    if work is not None:
        work["norm_evals"] += N
        work["svds"] += svds
    return out


def _eliminated_bound(stack, lam):
    """Upper bounds of ||(i lam - Gh_n)^{-1}||_2 per mode from the
    elimination of a memory or flux stack's heat block (module docstring),
    as a function of the modes' omega_n: inf where S_n does not invert or
    the rounding guard fails.  D = i lam - H0 is factored once per lam."""
    heat, eps = stack.heat, np.finfo(float).eps
    assert not (heat.H2.any() or heat.U0.any())
    D = 1j * lam * np.eye(len(heat.H0)) - heat.H0
    Dinv = np.linalg.inv(D)   # triangular with diagonal i lam - rate != 0
    DU = Dinv @ heat.U1.T
    d_inv, p, q = (np.linalg.norm(a, 2, axis=(0, 1)) for a in (Dinv, DU, heat.U1 @ Dinv))
    T, cond_D = heat.U1 @ DU, np.linalg.norm(D, axis=(0, 1)) * np.linalg.norm(Dinv, axis=(0, 1))
    shift = 1j * lam * np.eye(len(heat.B0)) - heat.B0
    s00, s01, s11 = heat.gram

    def bound(om):
        w = om[:, None, None]
        try:
            S = shift - w * heat.B1 + w * w * T
            s_inv = np.linalg.norm(np.linalg.inv(S), axis=(1, 2))
        except np.linalg.LinAlgError:
            return np.full(om.size, np.inf)
        b = d_inv + np.sqrt((1.0 + (om * p) ** 2) * (1.0 + (om * q) ** 2)) * s_inv
        cond = np.maximum(np.linalg.norm(S, axis=(1, 2)) * s_inv, cond_D)
        g_norm = np.sqrt(s00 + 2.0 * om * s01 + om * om * s11)
        guard = stack.dim * eps * np.maximum((abs(lam) + g_norm) * b, cond)
        return np.where(np.isfinite(b) & (guard <= ROUND_REL / 4), b, np.inf)
    return bound


def mode_resolvent_norm(mode, lam):
    """Weighted resolvent norm of a single mode at i*lam."""
    if not np.isfinite(lam):
        raise DomainError(f"lambda must be finite, got {lam}")
    G = _weight_factors(mode.generator[None], mode.weight[None])
    try:
        val = _batched_norms(G, lam=float(lam))[0]
    except SpectralPointError:
        ev = np.linalg.eigvals(mode.generator)
        hit = ev[np.argmin(np.abs(ev - 1j * lam))]
        raise SpectralPointError(
            f"i*{lam} is a spectral point of mode {mode.n}",
            lam=lam, n=mode.n, eigenvalue=hit) from None
    if not np.isfinite(val):
        raise SpectralPointError(f"resolvent norm overflow at lambda={lam}",
                                 lam=lam, n=mode.n)
    return float(val)


def _sweep_count(spec, lam, n_max):
    """N(lam): a sweep sample takes its sup over the modes 1..N(lam) (module
    docstring); OverflowError where it is not finite."""
    c = spec.coeffs
    # in Python floats, which overflow to inf with no warning; int() refuses it
    center = float(lam) * float(np.sqrt(c.rho1 / c.k)) * c.ell / np.pi
    return max(n_max, int(np.ceil(WINDOW_FACTOR * center)))


def _log_bins(lam_grid):
    """(lo, hi): per grid point, the bin (lo, hi] of the log axis it stands
    for, cut at the log midpoints of the distinct positive points and
    mirrored at the ends; copies of a point share its bin.  A single
    positive point, and lam = 0, get the empty bin (lam, lam]."""
    # the bins follow the log axis, not the grid order
    pos = kmod._distinct(lam_grid[lam_grid > 0])
    edges = {}
    if pos.size >= 2:
        logs = np.log(pos)
        mids = 0.5 * (logs[1:] + logs[:-1])
        lo = np.concatenate([[2 * logs[0] - mids[0]], mids])
        hi = np.concatenate([mids, [2 * logs[-1] - mids[-1]]])
        edges = {p: (np.exp(a), np.exp(b)) for p, a, b in zip(pos, lo, hi)}
    return np.array([edges.get(lam, (lam, lam)) for lam in lam_grid]).T


class _Certificate:
    """The frequency bands of a stack's modes (module docstring), the one
    owner of their premise: the distinct band centres ``c`` and one
    ``radius`` for the modes up to frequency ``om_max``.  On memory and flux
    stacks c are the singular values of K1 and the radius is ||E||_inf +
    ||S0||_2, K0 = S0 + E its skew and symmetric parts.  On the classical
    law (H0 = 0 and H2 = -kappa I on its temperatures, K0 skew) c are those
    of B1 and 0, and the radius is ||B0||_2 + 2 eps_h, eps_h = (||U1|| +
    ||U0|| / omega_1)^2 / kappa, plus the eigenvalues' backward error.
    Either radius carries the allowance.
    ``contracts`` is the Gershgorin row test of E <= 0, so that
    Gh_n + Gh_n^T = 2E + 2 omega_n^2 H2 <= 0: the premise of the decay
    series' tail bound (``dynamics``), which reads the same c and radius."""

    def __init__(self, stack, om_max):
        (K0, K1), heat = stack.K, stack.heat
        assert np.array_equal(K1, -K1.T)
        # an overflow (a curvature of 1e308) raises here, not in LAPACK
        with np.errstate(over="raise", invalid="raise"):
            S0, E = (K0 - K0.T) / 2, (K0 + K0.T) / 2
            # Gershgorin: E_ii + sum_{j != i} |E_ij| <= 0 on every row
            self.contracts = bool(np.all(np.abs(E).sum(axis=1) <= -2.0 * np.diag(E)))
            self.kappa = -float(heat.H2[0, 0]) if heat.H2.any() else 0.0
            if self.kappa:   # K0 skew, H0 = 0 and H2 = -kappa I
                assert not (E.any() or heat.H0.any()
                            or (heat.H2 + self.kappa * np.eye(len(heat.h))).any())
                self.u = np.linalg.norm(heat.U1, 2), np.linalg.norm(heat.U0, 2)
                c = [*np.linalg.svd(heat.B1, compute_uv=False), 0.0]
                s0 = np.linalg.norm(heat.B0, 2)
                eps_h = (self.u[0] + self.u[1] * stack.spec.coeffs.ell / np.pi) ** 2 / self.kappa
                rest = 2.0 * eps_h + stack.dim ** 2 * np.finfo(float).eps * self.kappa * om_max**2
            else:
                c, s0 = np.linalg.svd(K1, compute_uv=False), np.linalg.norm(S0, 2)
                rest = np.linalg.norm(E, np.inf)
            self.c = kmod._distinct(c)
            self.radius = rest + s0 + ROUND_REL * (self.c[-1] * om_max + s0)

    def dist(self, lo, hi, om):
        """Per mode of frequency ``om``, the distance from the interval
        [lo, hi] to the nearest band centre c_k omega_n, one band at a time."""
        out = np.full(np.shape(om), np.inf)
        for c in self.c:   # not a (k, mode) array: the upwind grid has up to d bands
            np.minimum(out, np.maximum(lo - c * om, c * om - hi), out=out)
        return np.maximum(out, 0.0)

    def upper(self, lam, om, where=True):
        """Per mode of frequency ``om``, the Neumann bound 1 / (d - r) of the
        resolvent norm at lam, d the distance to the nearest band centre,
        on the classical law 1 / |D_n| + (1 + a_n)^2 / (d - r) with
        D_n = i lam + kappa omega_n^2 and a_n = (omega_n ||U1|| + ||U0||) /
        |D_n|: inf where d <= r or ``where`` is False."""
        gap = self.dist(lam, lam, om) - self.radius
        out = np.divide(1.0, gap, out=np.full(gap.shape, np.inf), where=where & (gap > 0))
        if self.kappa:
            D = np.hypot(lam, self.kappa * om * om)
            out = 1.0 / D + (1.0 + (om * self.u[0] + self.u[1]) / D) ** 2 * out
        return out

    def may_reach(self, lam, known, om):
        """Modes of frequency ``om`` whose Neumann bound at lam is not below
        the larger of a lower bound ``known`` of the max and the largest
        Weyl bound, 1 / (min d + r), which the classical law has not."""
        weyl = -np.inf if self.kappa else 1.0 / np.min(self.dist(lam, lam, om) + self.radius)
        return np.flatnonzero(~_below(self.upper(lam, om), max(known, weyl)))


class _ModeCache:
    """A sweep's plan and the lambda-independent peak candidates of its
    modes 1..N_max (module docstring), read-only once built.

    The constructor plans each grid point k, its bin (``lo[k]``, ``hi[k]``]
    and range ``counts[k]``, and refuses a range past 2^20 modes or
    SWEEP_MAX_ENTRIES entries before any assembly.  ``eliminate`` says
    whether the eliminated gate pays: where the heat block is at least as
    large as the beam block, which the classical law's temperatures never
    are (1 against 4 beam states, 2 against 6), so every stack it selects
    has the n-independent heat block ``_eliminated_bound`` factors once.
    The bins of the points that search them (``search``) are disjoint, or
    equal for copies of one point, so the bin holding an eigenvalue is the
    last one in the distinct sorted lower edges ``edges`` below its
    imaginary part, if that bin's top (``tops``) is not below it; a point
    reads the candidates of its bin within its range.  ``point(k)`` builds
    the candidates on its first call, which ``sweep`` makes from point 0
    before any worker starts, so that a traced run counts the build inside
    ``_sweep_point``.
    """

    def __init__(self, stack, lam_grid, n_max, peak_refine):
        self.stack, self.lam_grid, self.peak_refine = stack, lam_grid, peak_refine
        self.lo, self.hi = _log_bins(lam_grid)
        self.counts = [_sweep_count(stack.spec, lam, n_max) for lam in lam_grid]
        n_total = kmod._count(
            max(self.counts), f"the last mode of a sweep at dimension {stack.dim} (lower "
            f"lambda_max={float(np.max(lam_grid)):g} or n_max={n_max})",
            most=min(kmod.MAX_MODES, SWEEP_MAX_ENTRIES // stack.dim ** 2))
        self.ns = np.arange(1, n_total + 1)
        self.om = self.ns * np.pi / stack.spec.coeffs.ell
        self.cert = _Certificate(stack, self.om[-1])
        self.eliminate = len(stack.heat.H0) >= len(stack.heat.B0)
        self.search = np.flatnonzero(lam_grid > 0) if peak_refine else np.arange(0)
        self.edges, first = np.unique(self.lo[self.search], return_index=True)
        self.tops = self.hi[self.search][first]
        self.work = None

    def point(self, k):
        """(rows, lams, work) of grid point k: the modes in its range with an
        eigenvalue in its bin, per mode the imaginary part of the
        least-damped one there (its peak candidate), and the work the build
        counted for the point."""
        if self.work is None:
            self._build()
        b = np.searchsorted(self.edges, self.lo[k], side="right") - 1   # -1: k does not search
        keep = (self.cand_bins == b) & (self.cand_rows < self.counts[k])
        return self.cand_rows[keep], self.cand_lams[keep], self.work[k]

    def _build(self):
        """Per searching point, the modes in its range whose bands come
        within the radius of its bin; one ``eigvals`` on their union, formed
        a chunk at a time, keeping per mode and bin the imaginary part of
        the least-damped eigenvalue there."""
        cert, P = self.cert, self.lam_grid.size
        n_eig, first = np.zeros(P, dtype=int), np.full(self.ns.size, P)
        for k in self.search:
            near = cert.dist(self.lo[k], self.hi[k], self.om[:self.counts[k]]) <= cert.radius
            n_eig[k] = np.count_nonzero(near)
            head = first[:near.size]
            head[near & (head == P)] = k   # the first point that reads each mode
        read = np.flatnonzero(first < P)
        found = [(np.arange(0), np.arange(0), np.zeros(0))]
        for sl in modal_mod._chunk_slices(read.size, self.stack.dim ** 2):
            ev = np.linalg.eigvals(modal_mod._generators(self.stack, self.ns[read[sl]]))
            # least damped first; each eigenvalue lies in at most one bin
            ev = np.take_along_axis(ev, np.argsort(-ev.real, axis=1, kind="stable"), axis=1)
            b = np.searchsorted(self.edges, ev.imag) - 1
            held = (b >= 0) & (ev.imag <= self.tops[b])
            # the first eigenvalue of each (mode, bin) pair, the pairs in ascending order
            pair, i = np.unique(np.nonzero(held)[0] * P + b[held], return_index=True)
            found.append((read[sl][pair // P], pair % P, ev.imag[held][i]))
        # the candidates in ascending mode order
        self.cand_rows, self.cand_bins, self.cand_lams = (np.concatenate(x) for x in zip(*found))
        computed = np.bincount(first[read], minlength=P)
        self.work = [{"modes_eigvals": int(n_eig[k]), "eigvals_computed": int(computed[k])}
                     for k in range(P)]


def _sweep_point(cache, k):
    """The sample of grid point k from the cache (module docstring)."""
    rows, cand_lam, counted = cache.point(k)
    lam, count, cert = cache.lam_grid[k], cache.counts[k], cache.cert
    ns, om = cache.ns[:count], cache.om[:count]
    work = {"modes_in_range": count, "norm_evals": 0, "svds": 0, "pruning": "certified",
            **counted}

    def max_norm(sel, at, known, keep=0):
        """(value, n, per-mode values) of the max over the modes of the index
        array ``sel`` at ``at`` (a scalar or one value per mode), gated from
        a lower bound ``known`` that the running max raises chunk by chunk.
        At a scalar ``at``, where the cache eliminates, a mode whose
        eliminated bound is below ``known`` is not formed and reports its
        bound, mode ``keep`` (if given) excepted; the others' generators
        are formed a chunk at a time and Frobenius-gated."""
        vals = np.empty(sel.size)
        if not sel.size:
            return -np.inf, None, vals
        def norms(rows, lam):
            G = modal_mod._generators(cache.stack, ns[rows])
            return _batched_norms(G, lam=lam, known=known, work=work)

        scalar, bound = np.ndim(at) == 0, None
        for sl in modal_mod._chunk_slices(sel.size, cache.stack.dim ** 2):
            part = sel[sl]
            if scalar and known > -np.inf and cache.eliminate:
                bound = bound or _eliminated_bound(cache.stack, at)
                vals[sl] = bound(om[part])
                formed = ~_below(vals[sl], known) | (ns[part] == keep)
                if np.any(formed):
                    vals[sl][formed] = norms(part[formed], at)
            else:
                vals[sl] = norms(part, at if scalar else at[sl])
            known = max(known, float(np.max(vals[sl])))   # gated rows lie below it
        b = int(np.argmax(vals))
        return float(vals[b]), int(ns[sel][b]), vals

    # 1. best peak candidate: the least-damped eigenvalue in the bin, per mode
    value, n, cvals = max_norm(rows, cand_lam, -np.inf)
    cand = (value, float(cand_lam[np.argmax(cvals)]), n) if rows.size else None
    known = -np.inf if cand is None else cand[0]

    # 2. the value at lam (-inf where no mode can reach it); a candidate wins
    # only by exceeding it
    value, n, _ = max_norm(cert.may_reach(lam, known, om), lam, known)
    if cand is None or not cand[0] > value:
        return ResolventSample(lam=float(lam), value=value, argmax_n=n, work=work)
    value, best_lam, n = cand
    if best_lam != lam:
        # 3. certify the sup over all candidate modes at the achieved lambda
        value, n, _ = max_norm(cert.may_reach(best_lam, value, om), best_lam, value, keep=n)
    return ResolventSample(lam=best_lam, value=value, argmax_n=n, work=work)


def sweep(spec, lam_grid, n_max, grid=None, peak_refine=True, threads=None):
    """Resolvent samples sup_n ||(i lam - G_n)^{-1}||_W over a lambda grid.

    The sup runs over the modes 1..N(lam), N(lam) = max(n_max,
    ceil(WINDOW_FACTOR * lam sqrt(rho1/k) ell/pi)).  The grid is treated as
    bins on the log axis; within each bin the sample may move to a resonance
    (see module docstring).  The peak candidates of the modes 1..max N(lam)
    are found in one pass, into a read-only cache that the samples and
    ``threads`` workers share; a range past 2^20 modes or SWEEP_MAX_ENTRIES
    entries raises DomainError before any assembly, and so do a grid that
    is not 1-d, a lambda that is negative or not finite and an n_max that
    is not a mode count (``kernels._count``).
    Each sample's ``work`` counts the modes in range, the modes given to
    ``eigvals``, the modes eigen-solved first for it (``eigvals_computed``),
    the resolvents formed (``norm_evals``) and the SVDs run on them
    (``svds``); a sample forms eigvals_computed + norm_evals generators.
    Raises with (lambda, n) context when a sample hits the spectrum exactly.
    """
    lam_grid = kmod._grid(lam_grid, "lambda grid")
    n_max = kmod._count(n_max, "sweep n_max")
    stack = modal_mod._layout(spec, grid)
    if lam_grid.size == 0:
        return []
    cache = _ModeCache(stack, lam_grid, n_max, peak_refine)

    def run(k):
        try:
            return _sweep_point(cache, k)
        except SpectralPointError as exc:
            exc.lam = lam_grid[k]
            raise

    # point 0 builds the cache before any worker reads it
    first, rest = run(0), range(1, lam_grid.size)
    if threads and threads > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return [first, *pool.map(run, rest)]
    return [first, *map(run, rest)]


def _line_fit(x, values, what):
    """The one log-line fitter: the least-squares line log(values) ~ slope * x
    + intercept, as (slope, intercept, max abs residual).  DomainError
    unless x is finite and 1-d with one value per point; FitError below
    FIT_MIN_POINTS points; DomainError unless the values are finite and
    strictly positive."""
    x, values = np.asarray(x, dtype=float), np.asarray(values, dtype=float)
    if x.ndim != 1 or values.shape != x.shape or not np.all(np.isfinite(x)):
        raise DomainError(f"{what} needs finite 1-d abscissae, one value per point")
    if x.size < FIT_MIN_POINTS:
        raise FitError(f"{what} needs at least {FIT_MIN_POINTS} points, got {x.size}")
    if not np.all(np.isfinite(values) & (values > 0)):
        raise DomainError(f"{what} needs finite, strictly positive values")
    y = np.log(values)
    A = np.vstack([x, np.ones_like(x)]).T
    (slope, intercept), *_ = np.linalg.lstsq(A, y, rcond=None)
    return slope, intercept, float(np.max(np.abs(A @ np.array([slope, intercept]) - y)))


def fit_growth(samples):
    """Least squares of log(value) against log(lambda) over the samples of
    positive lambda, at least FIT_MIN_POINTS (8) of them."""
    pts = [s for s in samples if s.lam > 0]
    slope, intercept, residual = _line_fit(np.log([s.lam for s in pts]),
                                           [s.value for s in pts], "growth fit")
    return GrowthFit(exponent=float(slope), intercept=float(intercept),
                     residual=residual, count=len(pts))


def _heat_kernels(spec):
    """``spec.heat_kernels()``, the kernels entering the modal coefficient
    matrix; SpecError for the classical law, which has none."""
    kernels = spec.heat_kernels()
    if kernels[0] is None:
        raise SpecError(f"the modal coefficient matrix is not defined for {spec.model}")
    return kernels


def mn_matrix(spec, n, lam):
    """Modal coefficient matrix of the eliminated resolvent system.

    5x5 for the curved-beam tags, 3x3 for the straight-beam tags, on the
    unknowns (phi, psi, w, theta_b, theta_a).  The elastic block and the
    coupling entries come from the beam table (``modal._beam``): -rho lam^2
    plus the strain energy S on the displacements, the thermal couplings
    C^T in the temperature columns and lam^2 C in the temperature rows.
    Each temperature's diagonal is -rho3 lam^2 + varpi omega_n^2 (g(0) -
    muhat), muhat the half-line Fourier transform of its kernel at lam
    (``SystemSpec.heat_kernels``: the exponential kernel of each
    relaxation time for the relaxed-flux tags).
    Raises DomainError for a lam that is not finite.
    """
    if not np.isfinite(lam):
        raise DomainError(f"lambda must be finite, got {lam}")
    kernels = _heat_kernels(spec)
    om = modal_mod.omega(spec.coeffs.ell, n)
    hats = [None if k is None else kmod.fourier_mu(k, lam) for k in kernels]
    return _mn_matrix(spec, om, lam, kernels, hats)


def _mn_matrix(spec, om, lam, kernels, hats):
    """``mn_matrix`` at omega_n = om from the kernels and their transforms at
    lam, read from the beam table directly (no ``ModeStack``)."""
    c = spec.coeffs
    rho, temps, _, _ = beam = modal_mod._beam(spec)
    S, C = (a[0] for a in modal_mod._elastic(beam, np.array([om])))
    lam2, u = lam * lam, len(rho)
    M = np.zeros((u + len(temps),) * 2, dtype=complex)
    M[:u, :u] = S - np.diag([*rho.values()]) * lam2
    M[:u, u:], M[u:, :u] = C.T, lam2 * C
    for i, kernel, hat in zip(range(u, len(M)), kernels, hats):
        M[i, i] = (-c.rho3 * lam2 + c.varpi * kmod.masses(kernel).g0 * om**2
                   - c.varpi * om**2 * hat)
    return M


def _construction_constants(spec, tol):
    """(c0, beta0, cstar, predicted) of the lower-bound construction, where
    predicted(omega_n) gives the leading-order (det M_n, det A_n);
    InfeasibleError where a governing number vanishes within ``tol``."""
    c = spec.coeffs
    report = mmod.stability_numbers(spec, tol)
    # the governing numbers: (chi_g, chi_h) of a memory law, (chi_sigma,
    # chi_tau) of a relaxed flux, which is the memory law of its kernels
    chis = []
    for name, value, scale in mmod.governing_factors(report, spec.model):
        if abs(value) <= tol * scale:
            raise InfeasibleError(
                f"lower-bound construction undefined: {name} vanishes")
        chis.append(value)
    kg, kh = _heat_kernels(spec)
    mg = kmod.masses(kg)
    g0, mu0 = mg.g0, mg.mu0
    chi_g = chis[0]
    if spec.is_bresse:
        chi_h = chis[1]
        mh = kmod.masses(kh)
        h0, nu0 = mh.g0, mh.mu0
        sg, sh = report.sigma_g, report.sigma_h
        l = c.l
        c0 = -(1.0 / (chi_g * chi_h)) * (c.rho1 / (c.varpi * c.k)) / (g0 * h0) * (
            chi_h * sg * c.k**2 * h0
            + (chi_g / c.rho1)
            * (sh * c.rho1 * (c.k + c.k0) ** 2 - c.gamma**2 * c.k * (3 * c.k + c.k0))
            * l * l * g0)
        beta0 = -(c.gamma**2 * c.k**3 / (c.rho1 * chi_g * chi_h)) * (
            mu0 * h0 * chi_h**2 / g0
            + 4 * l * l * nu0 * g0 * chi_g**2 / h0)
        cstar = (c.k / c.rho1) ** 2 * c.varpi * g0 * h0 * abs(chi_g * chi_h / beta0)

        def predicted(om):
            return (-1j * c.varpi * np.sqrt(c.rho1 / c.k) * beta0 * om**7,
                    chi_g * chi_h * (c.varpi * c.k / c.rho1) ** 2 * g0 * h0 * om**8)
        return c0, beta0, cstar, predicted
    sg = report.sigma_g
    c0 = -c.k * c.rho1 * sg / (chi_g * c.varpi * g0)
    beta0 = c.gamma**2 * c.k**2 / (chi_g * c.varpi * g0)
    cstar = (g0 * c.k / (mu0 * c.rho1)) * abs(chi_g / beta0)

    def predicted(om):
        return (-1j * c.varpi * mu0 * np.sqrt(c.rho1 / c.k) * beta0 * om**3,
                -chi_g * (c.varpi * g0 * c.k / c.rho1) * om**4)
    return c0, beta0, cstar, predicted


def _lambda_n(spec, c0, om):
    c = spec.coeffs
    rad = (c.k * om**2 + spec.effective_l**2 * c.k0 - c0) / c.rho1
    return np.sqrt(rad) if rad > 0 else None


def lower_bound(spec, ns, tol=mmod.DEFAULT_TOL):
    """Explicit resonance sequence: lam_n, the eliminated modal solve with
    unit first-row forcing, and the Cramer cross-check of the amplitude.

    The construction divides by the governing stability numbers, so it
    raises InfeasibleError where one of them vanishes by the relative
    tolerance ``tol`` of ``model.stability_numbers`` (DomainError outside
    [0, 1)): exactly where that classification reads exponential.

    The ratio column |A_n|/lam_n approaches the predicted constant cstar.
    Each row's ``check`` holds the measured and leading-order predicted
    det M_n and det A_n; its ``tol_hint`` scales with the kernels'
    Riemann-Lebesgue defect at lam_n, where the subleading corrections come
    from.
    """
    c = spec.coeffs
    c0, beta0, cstar, predicted = _construction_constants(spec, tol)
    kernels = _heat_kernels(spec)
    rows = []
    notes = []
    for n in ns:
        n = kmod._count(n, "mode index")
        om = modal_mod.omega(c.ell, n)
        lam = _lambda_n(spec, c0, om)
        if lam is None:
            notes.append(f"n={n} skipped: lambda_n^2 <= 0 at this mode")
            continue
        # one transform per kernel and row: matrix, columns and defect share it
        hats = [None if k is None else kmod.fourier_mu(k, lam) for k in kernels]
        M = _mn_matrix(spec, om, lam, kernels, hats)
        rhs = np.zeros(M.shape[0], dtype=complex)
        rhs[0] = 1.0
        sol = np.linalg.solve(M, rhs)
        det_m = complex(np.linalg.det(M))
        Ma = M.copy()
        Ma[:, 0] = rhs
        det_a = complex(np.linalg.det(Ma))
        amp = abs(sol[0])
        amp_cramer = abs(det_a / det_m)
        if abs(amp - amp_cramer) > CRAMER_TOL * max(amp, amp_cramer):
            notes.append(
                f"n={n}: Cramer and direct amplitudes disagree by "
                f"{abs(amp - amp_cramer) / max(amp, amp_cramer):.2e} (ill-conditioned)")
        pred_m, pred_a = predicted(om)
        defect = max(kmod._rl_defect(k, lam, hat)
                     for k, hat in zip(kernels, hats) if k is not None)
        check = DetCheck(
            n=n, lam=float(lam),
            det_m=det_m, det_m_predicted=complex(pred_m),
            gap_m=float(abs(det_m - pred_m) / abs(pred_m)),
            det_a=det_a, det_a_predicted=complex(pred_a),
            gap_a=float(abs(det_a - pred_a) / abs(pred_a)),
            tol_hint=float(10.0 * defect))
        rows.append(LowerBoundRow(
            n=n, omega=float(om), lam=float(lam), muhat=hats[0],
            nuhat=complex("nan") if hats[1] is None else hats[1],
            det_m=det_m, det_a=det_a, amp=float(amp),
            amp_cramer=float(amp_cramer), ratio=float(amp / lam), check=check))
    return LowerBoundSequence(
        model=spec.model, c0=float(c0), beta0=float(beta0), cstar=float(cstar),
        forcing_norm=float(np.sqrt(c.ell / (2 * c.rho1))),
        rows=tuple(rows), notes=tuple(notes))


def det_check(spec, n):
    """Measured vs predicted leading-order determinants at the resonance: the
    ``check`` of row n of ``lower_bound``."""
    rows = lower_bound(spec, [n]).rows
    if not rows:
        raise DomainError(f"lambda_n is not real at n={n}")
    return rows[0].check


def spectral_abscissa(spec, n_max, grid=None):
    """Per-mode max Re of the generator spectrum and the global maximum."""
    n_max = kmod._count(n_max, "spectral abscissa n_max")
    stack = modal_mod._layout(spec, grid)
    # state coordinates: on ref1 BGP at n = 4096 their abscissa is off by
    # 1.5e-8 relative, the closed-form energy coordinates' by 1.7e-6
    per = np.concatenate([
        np.linalg.eigvals(modal_mod._mode_arrays(stack, np.arange(sl.start, sl.stop) + 1)[0])
        .real.max(axis=1) for sl in modal_mod._chunk_slices(n_max, stack.dim ** 2)])
    arg = int(np.argmax(per))
    return SpectralAbscissa(ns=np.arange(1, n_max + 1), per_mode=per,
                            global_max=float(per[arg]), argmax_n=arg + 1)
