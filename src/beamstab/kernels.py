"""Relaxation kernels for hyperbolic heat conduction.

A memory kernel mu is a nonnegative, nonincreasing, summable function on
[0, inf) with finite value at zero; its primitive g(s) = int_s^inf mu(r) dr
is what enters the heat-flux convolution. Two representations are supported:

* ``prony``: mu(s) = sum_j a_j exp(-s/theta_j); everything has a closed form.
* ``tabulated``: samples on an increasing grid starting at s = 0, interpreted
  by linear interpolation, continued for s > s_last by the exponential tail
  mu(s_last) * exp(-delta_tail (s - s_last)).

Every kernel carries a rate ``delta`` for the envelope condition
mu' + delta*mu <= 0, which certifies exponential decay and hence the
truncation of history integrals.  Kernels are immutable and all operations
here are pure functions.

This module also holds the input checks that the library and the CLI
share: ``_object`` for a config object, ``_number`` for a config number
and ``_count``, the one check of a mode index, a mode count, a
history-node count and a grid-point count.
"""

import sys
from dataclasses import dataclass

import numpy as np

from .errors import AdmissibilityError, DomainError, SpecError

__all__ = [
    "MemoryKernel",
    "Masses",
    "AdmissibilityCheck",
    "AdmissibilityReport",
    "prony_kernel",
    "tabulated_kernel",
    "exponential_kernel",
    "kernel_from_config",
    "mu_at",
    "mu_integral",
    "first_moment",
    "masses",
    "check_admissibility",
    "fourier_mu",
    "rl_defect",
    "rescaled",
    "cg_mix",
]

UNIT_MASS_TOL = 1e-10
MAX_MODES = 1 << 20   # the cap on a mode index, and so on the modes 1..n_max a walk visits


@dataclass(frozen=True)
class MemoryKernel:
    """Immutable memory kernel in prony or tabulated form.

    ``delta`` is the envelope decay rate: mu(s2) <= mu(s1) exp(-delta (s2-s1))
    for all 0 <= s1 <= s2.
    """

    kind: str  # "prony" | "tabulated"
    delta: float
    terms: tuple = ()          # prony: ((a_j, theta_j), ...)
    s: np.ndarray = None       # tabulated grid, s[0] == 0
    mu: np.ndarray = None      # tabulated samples
    delta_tail: float = None   # tail rate beyond s[-1]


@dataclass(frozen=True)
class Masses:
    g_total: float  # int_0^inf g(s) ds  (= int s mu(s) ds)
    g0: float       # g(0) = int_0^inf mu(s) ds
    mu0: float      # mu(0)


@dataclass(frozen=True)
class AdmissibilityCheck:
    name: str
    passed: bool
    margin: float
    required: bool = True


@dataclass(frozen=True)
class AdmissibilityReport:
    checks: tuple

    @property
    def admissible(self):
        return all(c.passed for c in self.checks if c.required)

    def __getitem__(self, name):
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def prony_kernel(terms, delta=None):
    """Kernel mu(s) = sum_j a_j exp(-s/theta_j) with weights a_j >= 0.

    ``delta`` defaults to the largest admissible envelope rate min_j 1/theta_j.
    """
    terms = tuple((float(a), float(th)) for a, th in terms)
    if not terms:
        raise DomainError("prony kernel needs at least one term")
    for a, th in terms:
        if th <= 0:
            raise DomainError(f"relaxation time must be positive, got {th}")
        if a < 0:
            raise DomainError(f"prony weight must be nonnegative, got {a}")
    if delta is None:
        delta = min(1.0 / th for _, th in terms)
    return MemoryKernel(kind="prony", delta=float(delta), terms=terms)


def tabulated_kernel(s, mu, delta_tail, delta):
    """Kernel from samples (s_i, mu_i) on an increasing grid starting at 0."""
    s = np.asarray(s, dtype=float)
    mu = np.asarray(mu, dtype=float)
    if s.ndim != 1 or s.shape != mu.shape or s.size < 2:
        raise DomainError("tabulated kernel needs matching 1-d s and mu arrays")
    if s[0] != 0.0 or np.any(np.diff(s) <= 0):
        raise DomainError("tabulated grid must start at 0 and be strictly increasing")
    s = s.copy()
    mu = mu.copy()
    s.flags.writeable = False
    mu.flags.writeable = False
    return MemoryKernel(kind="tabulated", delta=float(delta), s=s, mu=mu,
                        delta_tail=float(delta_tail))


def exponential_kernel(varpi, sigma):
    """One-term kernel mu(s) = exp(-s/(varpi*sigma)) / (varpi*sigma)^2.

    Its primitive g(s) = exp(-s/(varpi*sigma))/(varpi*sigma) has unit total
    mass, and the induced heat flux obeys the relaxed (Cattaneo) flux law
    with relaxation time ``sigma`` and conductivity ``varpi``.
    """
    if varpi <= 0 or sigma <= 0:
        raise DomainError("varpi and sigma must be positive")
    th = varpi * sigma
    return prony_kernel([(1.0 / th**2, th)], delta=1.0 / th)


def _number(value, where):
    """A finite JSON number (not a boolean); anything else is a SpecError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not abs(value) <= sys.float_info.max:
        raise SpecError(f"config field {where} must be a number, got {value!r}")
    return value


def _count(value, what, least=1, most=MAX_MODES, error=DomainError):
    """``value`` as an int: ``error`` unless it is an integer, or a float of
    integral value such as 64.0 (never a bool), in [least, most].  The one
    count rule, for the library (DomainError) and the config (SpecError)."""
    if isinstance(value, (float, np.floating)) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise error(f"{what} must be an integer >= {least}, got {value!r}")
    if value > most:
        raise error(f"{what} = {value} is above the cap of {most}")
    return int(value)


def _grid(values, what):
    """``values`` as a float array: DomainError unless it is 1-d, finite and
    nonnegative.  The one grid rule, for lambda and time grids."""
    try:
        grid = np.asarray(values, dtype=float)
    except (TypeError, ValueError):  # ragged, or not numbers
        grid = None
    if grid is None or grid.ndim != 1 or not np.all(np.isfinite(grid) & (grid >= 0)):
        raise DomainError(f"{what} must be a 1-d array, finite and nonnegative")
    return grid


def _share(m, what, error=DomainError):
    """The one mixture-share rule, for the library (DomainError) and the
    config (SpecError): ``error`` unless 0 < m < 1."""
    if not 0.0 < m < 1.0:
        raise error(f"{what} must lie in (0, 1), got {m!r}")


def _distinct(x):
    """The distinct values of ``x``, sorted: each sorted value that differs
    from its predecessor.  ``np.unique`` gives the same, but on NumPy >= 2.3
    it imports ``numpy.ma`` to ask whether x is masked."""
    x = np.sort(np.ravel(x))
    keep = np.ones(x.size, dtype=bool)
    keep[1:] = x[1:] != x[:-1]
    return x[keep]


def _numbers(values, where):
    """A JSON list of numbers, checked with ``_number``."""
    if not isinstance(values, list):
        raise SpecError(f"config field {where} must be a list of numbers, got {values!r}")
    return [_number(v, where) for v in values]


def _object(value, fields, what, required=()):
    """A JSON object holding every ``required`` key and no key outside
    ``fields``; anything else is a SpecError.  The one object rule, for the
    config and each object in it."""
    if not isinstance(value, dict):
        raise SpecError(f"{what} must be an object")
    for key in required:
        if key not in value:
            raise SpecError(f"{what} is missing required field {key!r}")
    for key in value:
        if key not in fields:
            raise SpecError(f"{what} has unknown field {key!r}, not one of {', '.join(fields)}")
    return value


KERNEL_FIELDS = {"prony": (("type", "terms"), ("delta",)),  # (required, optional)
                 "tabulated": (("type", "s", "mu", "delta_tail", "delta"), ()),
                 "exponential": (("type", "varpi", "sigma"), ())}


def kernel_from_config(cfg):
    """Build a kernel from its JSON/dict description, whose fields are
    ``KERNEL_FIELDS[type]``; a missing, unknown or malformed field is a
    SpecError."""
    kind = cfg.get("type") if isinstance(cfg, dict) else None
    if isinstance(cfg, dict) and kind not in tuple(KERNEL_FIELDS):  # kind may be unhashable
        raise SpecError(f"kernel config type must be one of {', '.join(KERNEL_FIELDS)}, "
                        f"got {kind!r}")
    required, optional = KERNEL_FIELDS.get(kind, ((), ()))
    _object(cfg, required + optional, "kernel config", required)

    def number(key):
        return _number(cfg[key], f"kernel.{key}")

    if kind == "prony":
        terms = cfg["terms"]
        if not isinstance(terms, list) or not all(
                isinstance(t, list) and len(t) == 2 for t in terms):
            raise SpecError("config field kernel.terms must be a list of "
                            f"[a, theta] pairs, got {terms!r}")
        delta = None if cfg.get("delta") is None else number("delta")
        return prony_kernel([_numbers(t, "kernel.terms") for t in terms], delta=delta)
    if kind == "tabulated":
        return tabulated_kernel(_numbers(cfg["s"], "kernel.s"),
                                _numbers(cfg["mu"], "kernel.mu"),
                                number("delta_tail"), number("delta"))
    return exponential_kernel(number("varpi"), number("sigma"))


def mu_at(kernel, s):
    """Evaluate mu(s) for scalar or array s >= 0."""
    s_arr = np.asarray(s, dtype=float)
    if np.any(s_arr < 0):
        raise DomainError("mu is defined on s >= 0")
    if kernel.kind == "prony":
        out = np.zeros_like(s_arr)
        for a, th in kernel.terms:
            out = out + a * np.exp(-s_arr / th)
    else:
        grid, vals = kernel.s, kernel.mu
        out = np.interp(s_arr, grid, vals)
        beyond = s_arr > grid[-1]
        if np.any(beyond):
            out = np.where(
                beyond,
                vals[-1] * np.exp(-kernel.delta_tail * (s_arr - grid[-1])),
                out,
            )
    return out if np.ndim(s) else float(out)


def _tail_checked(kernel):
    if kernel.kind == "tabulated" and kernel.delta_tail <= 0:
        raise AdmissibilityError("tabulated kernel has non-summable tail (delta_tail <= 0)")


def mu_integral(kernel, a, b):
    """Exact integral of the kernel representation over [a, b]; b may be inf."""
    if a < 0 or b < a:
        raise DomainError("integration bounds must satisfy 0 <= a <= b")
    _tail_checked(kernel)
    if kernel.kind == "prony":
        total = 0.0
        for w, th in kernel.terms:
            hi = 0.0 if np.isinf(b) else np.exp(-b / th)
            total += w * th * (np.exp(-a / th) - hi)
        return total
    s, mu, dt = kernel.s, kernel.mu, kernel.delta_tail
    s_last, mu_last = s[-1], mu[-1]
    seg = 0.5 * (mu[1:] + mu[:-1]) * np.diff(s)
    plcum = np.concatenate([[0.0], np.cumsum(seg)])

    def cum(x):
        # integral of the representation over [0, x]
        if x <= s_last:
            j = np.searchsorted(s, x, side="right") - 1
            j = min(max(j, 0), len(s) - 2)
            h = s[j + 1] - s[j]
            slope = (mu[j + 1] - mu[j]) / h
            dx = x - s[j]
            return plcum[j] + mu[j] * dx + 0.5 * slope * dx * dx
        return plcum[-1] + (mu_last / dt) * (1.0 - np.exp(-dt * (x - s_last)))

    hi = plcum[-1] + mu_last / dt if np.isinf(b) else cum(b)
    return hi - cum(a)


def first_moment(kernel):
    """int_0^inf s mu(s) ds, which equals int_0^inf g(s) ds."""
    _tail_checked(kernel)
    if kernel.kind == "prony":
        return sum(a * th**2 for a, th in kernel.terms)
    s, mu, dt = kernel.s, kernel.mu, kernel.delta_tail
    # per cell: mu linear -> s*mu(s) integrates in closed form
    h = np.diff(s)
    m0, m1 = mu[:-1], mu[1:]
    s0 = s[:-1]
    slope = (m1 - m0) / h
    # int_{s0}^{s0+h} s (m0 + slope (s - s0)) ds
    cell = m0 * (s0 * h + 0.5 * h**2) + slope * (0.5 * s0 * h**2 + h**3 / 3.0)
    tail = mu[-1] * (s[-1] / dt + 1.0 / dt**2)
    return float(np.sum(cell) + tail)


def masses(kernel):
    """Total masses (int g, g(0) = int mu, mu(0)) of the kernel."""
    g_total = first_moment(kernel)
    if kernel.kind == "prony":
        return Masses(g_total=g_total, g0=sum(a * th for a, th in kernel.terms),
                      mu0=sum(a for a, _ in kernel.terms))
    return Masses(g_total=g_total, g0=mu_integral(kernel, 0.0, np.inf),
                  mu0=float(kernel.mu[0]))


def check_admissibility(kernel):
    """Evaluate every structural invariant; failures become report entries.

    The unit-total-mass entry is informational: normalization is only
    enforced when the kernel enters a memory-law system.
    """
    checks = []

    if kernel.kind == "prony":
        amin = min(a for a, _ in kernel.terms)
        thmin = min(th for _, th in kernel.terms)
        checks.append(AdmissibilityCheck("nonnegative", amin >= 0, amin))
        checks.append(AdmissibilityCheck("nonincreasing", amin >= 0, amin))
        checks.append(AdmissibilityCheck("summable", thmin > 0, thmin))
        mu0 = sum(a for a, _ in kernel.terms)
        checks.append(AdmissibilityCheck("bounded_at_zero", np.isfinite(mu0), mu0))
        # envelope rate cannot exceed the slowest decay 1/theta_max
        env_margin = min(1.0 / th for _, th in kernel.terms) - kernel.delta
        checks.append(AdmissibilityCheck(
            "envelope", kernel.delta > 0 and env_margin >= -1e-15, env_margin))
    else:
        mu = kernel.mu
        checks.append(AdmissibilityCheck("nonnegative", bool(np.min(mu) >= 0), float(np.min(mu))))
        dmin = float(np.min(mu[:-1] - mu[1:]))
        checks.append(AdmissibilityCheck("nonincreasing", dmin >= 0, dmin))
        checks.append(AdmissibilityCheck("summable", kernel.delta_tail > 0, kernel.delta_tail))
        checks.append(AdmissibilityCheck("bounded_at_zero", np.isfinite(mu[0]), float(mu[0])))
        # consecutive pairs suffice: the envelope inequality is transitive
        env = mu[:-1] * np.exp(-kernel.delta * np.diff(kernel.s)) - mu[1:]
        env_margin = float(np.min(env))
        tail_ok = kernel.delta_tail >= kernel.delta - 1e-15
        checks.append(AdmissibilityCheck(
            "envelope", kernel.delta > 0 and env_margin >= -1e-15 and tail_ok, env_margin))

    try:
        gap = abs(masses(kernel).g_total - 1.0)
        checks.append(AdmissibilityCheck("unit_mass", gap <= UNIT_MASS_TOL, gap, required=False))
    except AdmissibilityError:
        checks.append(AdmissibilityCheck("unit_mass", False, np.inf, required=False))

    return AdmissibilityReport(checks=tuple(checks))


def _filon_cell_weights(x):
    """Endpoint weights for int_0^1 (linear interpolant) * exp(-i x t) dt.

    Returns (A, B) with A the weight of the left endpoint value and B of the
    right.  Closed forms suffer cancellation for small |x|, so a truncated
    series takes over below |x| = 0.5.
    """
    x = np.asarray(x, dtype=float)
    A = np.empty(x.shape, dtype=complex)
    B = np.empty(x.shape, dtype=complex)
    small = np.abs(x) < 0.5
    xs = x[small]
    # series for C = int e^{-ixt}, B = int t e^{-ixt}
    Cs = np.zeros(xs.shape, dtype=complex)
    Bs = np.zeros(xs.shape, dtype=complex)
    term = np.ones(xs.shape, dtype=complex)  # (-ix)^k / k!
    for k in range(0, 16):
        Cs += term / (k + 1.0)
        Bs += term / (k + 2.0)
        term = term * (-1j * xs) / (k + 1.0)
    xl = x[~small]
    ix = 1j * xl
    e = np.exp(-ix)
    Cl = (1.0 - e) / ix
    Bl = -e / ix + (1.0 - e) / (ix * ix)
    B[small], B[~small] = Bs, Bl
    A[small] = Cs - Bs
    A[~small] = Cl - Bl
    return A, B


def fourier_mu(kernel, lam):
    """Half-line Fourier transform int_0^inf mu(s) exp(-i lam s) ds.

    Prony kernels use the closed form sum_j a_j theta_j / (1 + i lam theta_j).
    Tabulated kernels integrate the linear interpolant exactly against the
    oscillation cell by cell (Filon-type), so accuracy does not degrade when
    lam * (grid step) is large, plus the closed-form exponential tail.
    """
    lam = float(lam)
    if kernel.kind == "prony":
        out = 0.0 + 0.0j
        for a, th in kernel.terms:
            out += a * th / (1.0 + 1j * lam * th)
        return out
    _tail_checked(kernel)
    s, mu, dt = kernel.s, kernel.mu, kernel.delta_tail
    h = np.diff(s)
    A, B = _filon_cell_weights(lam * h)
    cells = h * np.exp(-1j * lam * s[:-1]) * (mu[:-1] * A + mu[1:] * B)
    tail = mu[-1] * np.exp(-1j * lam * s[-1]) / (dt + 1j * lam)
    return complex(np.sum(cells) + tail)


def rl_defect(kernel, lam):
    """|lam * fourier_mu(lam) + i mu(0)|, the quantified Riemann-Lebesgue gap.

    Tends to zero as lam grows for any admissible kernel.
    """
    return _rl_defect(kernel, lam, fourier_mu(kernel, lam))


def _rl_defect(kernel, lam, transform):
    """``rl_defect`` from the transform already evaluated at lam."""
    return abs(lam * transform + 1j * masses(kernel).mu0)


def normalized(kernel):
    """Scale the kernel to unit total g-mass (mass is linear in mu).

    Tabulated samples of a unit-mass function carry an interpolation mass
    error, so this is the supported way to feed them into a memory-law
    system, which requires exact normalization.
    """
    total = masses(kernel).g_total
    if not (np.isfinite(total) and total > 0):
        raise AdmissibilityError("kernel mass must be positive and finite")
    return _scaled(kernel, 1.0, total)


def _scaled(kernel, time, mass):
    """The kernel mu(s/time)/mass: prony terms (a_j/mass, time theta_j),
    tabulated samples at time s_i, every rate divided by time."""
    if kernel.kind == "prony":
        return prony_kernel([(a / mass, time * th) for a, th in kernel.terms],
                            delta=kernel.delta / time)
    return tabulated_kernel(kernel.s * time, kernel.mu / mass,
                            delta_tail=kernel.delta_tail / time, delta=kernel.delta / time)


def rescaled(kernel, eps):
    """Dirac-family rescaling: g_eps(s) = g(s/eps)/eps, mu_eps(s) = mu(s/eps)/eps^2.

    Preserves the total g-mass; concentrates the kernel near s = 0 as eps -> 0.
    """
    if eps <= 0:
        raise DomainError("eps must be positive")
    return _scaled(kernel, eps, eps**2)


def cg_mix(kernel, eps, m):
    """Parabolic-hyperbolic mixture (1-m)/eps * g(s/eps) + m g(s) at kernel level.

    Only the prony route is exact; tabulated kernels are resampled on the
    union grid, which is adequate for the stability-number sweeps this feeds.
    """
    if eps <= 0:
        raise DomainError("eps must be positive")
    _share(m, "mixture share m")
    if kernel.kind == "prony":
        fast = [((1.0 - m) * a / eps**2, eps * th) for a, th in kernel.terms]
        slow = [(m * a, th) for a, th in kernel.terms]
        return prony_kernel(fast + slow, delta=min(kernel.delta, kernel.delta / eps))
    fast = rescaled(kernel, eps)
    grid = _distinct(np.concatenate([fast.s, kernel.s]))
    vals = (1.0 - m) * mu_at(fast, grid) + m * mu_at(kernel, grid)
    return tabulated_kernel(
        grid, vals,
        delta_tail=min(kernel.delta_tail, fast.delta_tail),
        delta=min(kernel.delta, fast.delta),
    )
