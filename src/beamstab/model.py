"""System coefficients, stability numbers and stability classification.

Six model tags are supported.  The curved-beam (Bresse) family couples three
wave equations to two temperatures; the straight-beam (Timoshenko) family
drops the axial motion and keeps one temperature.  The heat law is selected
by the suffix: GP (memory convolution), MC (relaxed flux), F (classical).

    BGP  BMC  BF      curved beam, two temperatures
    TGP  TMC  TF      straight beam, one temperature

Each model has a governing combination of stability numbers whose vanishing
is equivalent to exponential decay of the solution semigroup; otherwise the
decay is polynomial of order 1/2 on smooth data, and that rate is sharp.

A relaxed flux with relaxation time sigma is the memory law of the
exponential kernel ``kernels.exponential_kernel(varpi, sigma)``, and
``SystemSpec.heat_kernels`` states that once: the MC stability numbers are
the GP numbers of that kernel, computed by the same arithmetic.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from . import kernels as kmod
from .errors import DomainError, InfeasibleError, SpecError

__all__ = [
    "MODELS",
    "BRESSE_MODELS",
    "TIMOSHENKO_MODELS",
    "EXPONENTIAL",
    "POLY_SQRT",
    "BeamCoefficients",
    "SystemSpec",
    "StabilityReport",
    "stability_numbers",
    "classify",
    "check_physical",
    "mode_condition",
    "tune_chi_zero",
    "governing_factors",
]

MODELS = ("BGP", "BMC", "TGP", "TMC", "BF", "TF")
BRESSE_MODELS = frozenset({"BGP", "BMC", "BF"})
TIMOSHENKO_MODELS = frozenset({"TGP", "TMC", "TF"})
MEMORY_MODELS = frozenset({"BGP", "TGP"})
RELAXED_MODELS = frozenset({"BMC", "TMC"})

EXPONENTIAL = "ExponentiallyStable"
POLY_SQRT = "PolynomialSqrtOptimal"

DEFAULT_TOL = 1e-9

# the structural constants that must be strictly positive
POSITIVE_COEFFS = ("rho1", "rho2", "rho3", "k", "k0", "b", "varpi", "gamma", "ell")
# every stability number a report may hold, in the order they are printed
NUMBER_NAMES = ("chi0", "chi1", "chi_g", "chi_h", "chi_sigma", "chi_tau",
                "sigma_g", "sigma_h")

# governing stability factors per model; the product must vanish for
# exponential stability
GOVERNING = {
    "BGP": ("chi_g", "chi_h"),
    "BMC": ("chi_sigma", "chi_tau"),
    "TGP": ("chi_g",),
    "TMC": ("chi_sigma",),
    "BF": ("chi0", "chi1"),
    "TF": ("chi0",),
}


@dataclass(frozen=True)
class BeamCoefficients:
    """Structural constants of the beam; all strictly positive.

    ``l`` is the initial curvature (zero for straight beams), ``ell`` the
    beam length.  ``sigma``/``tau`` are flux relaxation times and only
    meaningful for the MC models.
    """

    rho1: float
    rho2: float
    rho3: float
    k: float
    k0: float
    b: float
    varpi: float
    gamma: float
    l: float
    ell: float
    sigma: float = None
    tau: float = None

    def __post_init__(self):
        for name in POSITIVE_COEFFS:
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0):
                raise SpecError(f"coefficient {name} must be strictly positive, got {v}")
        if not (np.isfinite(self.l) and self.l >= 0):
            raise SpecError(f"curvature l must be nonnegative, got {self.l}")
        for name, v in (("sigma", self.sigma), ("tau", self.tau)):
            if v is not None and not (np.isfinite(v) and v > 0):
                raise SpecError(f"relaxation time {name} must be strictly positive, got {v}")


@dataclass(frozen=True)
class SystemSpec:
    """A model tag plus everything needed to realize it.

    Memory-law tags require admissible kernels of unit total g-mass
    (kernel_h only for the curved beam); relaxed-flux tags require the
    relaxation times.  Straight-beam tags ignore l, k0, kernel_h and tau.
    """

    model: str
    coeffs: BeamCoefficients
    kernel_g: kmod.MemoryKernel = None
    kernel_h: kmod.MemoryKernel = None

    def __post_init__(self):
        if self.model not in MODELS:
            raise SpecError(f"unknown model tag {self.model!r}; expected one of {MODELS}")
        c = self.coeffs
        if self.model in MEMORY_MODELS:
            if self.kernel_g is None:
                raise SpecError(f"{self.model} requires kernel_g")
            _require_system_kernel(self.kernel_g, "kernel_g")
            if self.model == "BGP":
                if self.kernel_h is None:
                    raise SpecError("BGP requires kernel_h")
                _require_system_kernel(self.kernel_h, "kernel_h")
        if self.model in RELAXED_MODELS:
            if c.sigma is None:
                raise SpecError(f"{self.model} requires the relaxation time sigma")
            if self.model == "BMC" and c.tau is None:
                raise SpecError("BMC requires the relaxation time tau")

    @property
    def is_bresse(self):
        return self.model in BRESSE_MODELS

    @property
    def effective_l(self):
        """Curvature actually used: straight-beam tags behave as l = 0."""
        return self.coeffs.l if self.is_bresse else 0.0

    def heat_kernels(self):
        """(kernel_g, kernel_h) of the heat law, kernel_h None on a straight
        beam: a memory tag's kernels; for a relaxed-flux tag the exponential
        kernels of its relaxation times, ``exponential_kernel(varpi, sigma)``
        and ``(varpi, tau)``; (None, None) for the classical law."""
        c = self.coeffs
        if self.model in MEMORY_MODELS:
            return self.kernel_g, self.kernel_h if self.is_bresse else None
        if self.model in RELAXED_MODELS:
            return (kmod.exponential_kernel(c.varpi, c.sigma),
                    kmod.exponential_kernel(c.varpi, c.tau) if self.is_bresse else None)
        return None, None


def _require_system_kernel(kernel, name):
    rep = kmod.check_admissibility(kernel)
    if not rep.admissible:
        bad = [c.name for c in rep.checks if c.required and not c.passed]
        raise SpecError(f"{name} is not admissible (failed: {', '.join(bad)})")
    gap = rep["unit_mass"].margin
    if gap > kmod.UNIT_MASS_TOL:
        raise SpecError(
            f"{name} must have unit total g-mass inside a memory-law system "
            f"(|mass - 1| = {gap:.3e})")


@dataclass(frozen=True)
class StabilityReport:
    """All stability numbers defined for a model and the classification.

    ``scales`` holds, for each number, the magnitude of its ingredient terms;
    vanishing is always judged relative to that scale.  ``phydef_ok`` is the
    pair (k0 == b rho1/rho2, b > k rho2/rho1).
    """

    model: str
    chi0: float
    chi1: float
    sigma_g: float = None
    sigma_h: float = None
    chi_g: float = None
    chi_h: float = None
    chi_sigma: float = None
    chi_tau: float = None
    classification: str = ""
    governing: tuple = ()
    tol: float = DEFAULT_TOL
    phydef_ok: tuple = (False, False)
    scales: dict = field(default_factory=dict)


def _chi_memory(c, heat_mass, chi_factor):
    """chi for a memory law: (rho3/x - rho1/k) * chi_factor + gamma^2/x
    with x = varpi*g(0); returns (value, scale-of-terms)."""
    x = heat_mass
    t1 = (c.rho3 / x) * chi_factor
    t2 = (c.rho1 / c.k) * chi_factor
    t3 = c.gamma**2 / x
    return t1 - t2 + t3, abs(t1) + abs(t2) + abs(t3)


def _chi_elastic(c):
    """(chi0, chi1): the stability numbers of the elastic constants."""
    return c.b - c.k * c.rho2 / c.rho1, c.k0 - c.k


def _heat_numbers(c, kernels):
    """(varpi*g(0), chi, scale of chi) per heat kernel of (kernel_g,
    kernel_h), None where the kernel is None: ``_chi_memory`` folds
    kernel_g's varpi*g(0) with chi0 and kernel_h's with chi1."""
    numbers = []
    for kernel, factor in zip(kernels, _chi_elastic(c)):
        if kernel is None:
            numbers.append(None)
        else:
            x = c.varpi * kmod.masses(kernel).g0
            numbers.append((x, *_chi_memory(c, x, factor)))
    return numbers


def stability_numbers(spec, tol=DEFAULT_TOL):
    """Compute every stability number defined for the model and classify.

    chi0/chi1 depend on the elastic constants only; the thermal numbers
    fold in varpi*g(0) of each heat kernel (``SystemSpec.heat_kernels``).
    So the MC numbers are the GP numbers of the exponential kernels:
    chi_sigma and chi_tau are the chi_g and chi_h of
    ``exponential_kernel(varpi, sigma)`` and ``(varpi, tau)``, bit for bit.
    ``classify`` judges them with ``tol``, and raises DomainError for a
    ``tol`` outside [0, 1).
    """
    c = spec.coeffs
    chi0, chi1 = _chi_elastic(c)
    scales = {"chi0": c.b + c.k * c.rho2 / c.rho1, "chi1": c.k0 + c.k}
    kwargs = {}
    # each heat kernel's chi goes by the model's governing name
    for sigma_name, chi_name, numbers in zip(
            ("sigma_g", "sigma_h"), GOVERNING[spec.model],
            _heat_numbers(c, spec.heat_kernels())):
        if numbers is not None:
            mass, kwargs[chi_name], scales[chi_name] = numbers
            kwargs[sigma_name] = mass - c.rho3 * c.k / c.rho1

    report = StabilityReport(
        model=spec.model, chi0=chi0, chi1=chi1, tol=tol,
        governing=GOVERNING[spec.model], phydef_ok=_phydef(c), scales=scales,
        **kwargs)
    return replace(report, classification=classify(report, spec.model, tol))


def governing_factors(report, model):
    """(name, value, scale) triples for the model's governing product."""
    out = []
    for name in GOVERNING[model]:
        v = getattr(report, name)
        if v is None:
            raise SpecError(f"report lacks {name} required by model {model}")
        out.append((name, v, report.scales.get(name, abs(v) or 1.0)))
    return out


def _tolerance(tol):
    """``tol`` if it lies in [0, 1), else DomainError: below 0 (or NaN) no
    number vanishes, and at 1 or above every one does, since |chi| never
    exceeds the sum of its terms' magnitudes.  The CLI's check of the config
    field ``tolerance`` too."""
    if not 0 <= tol < 1:
        raise DomainError(f"tolerance must lie in [0, 1), got {tol!r}")
    return tol


def classify(report, model, tol=DEFAULT_TOL):
    """Vanishing test on the governing number(s), relative to their scales,
    with a relative tolerance ``tol`` in [0, 1) (``_tolerance``)."""
    _tolerance(tol)
    for _name, value, scale in governing_factors(report, model):
        if abs(value) <= tol * scale:
            return EXPONENTIAL
    return POLY_SQRT


def _phydef(c, rel_tol=1e-12):
    eq = abs(c.k0 - c.b * c.rho1 / c.rho2) <= rel_tol * max(c.k0, c.b * c.rho1 / c.rho2)
    gt = c.b > c.k * c.rho2 / c.rho1
    return (bool(eq), bool(gt))


def check_physical(coeffs, report):
    """Physical-constraint check and its compatibility with exponential decay.

    Returns (phydef_ok, exp_condition_compatible).  For the classical-law
    models the constraints force both chi0 and chi1 positive, so the
    exponential condition can never hold alongside them; for the hyperbolic
    models compatibility is just whether the computed product vanishes, which
    is the report's classification.
    """
    return _phydef(coeffs), report.classification == EXPONENTIAL


def mode_condition(coeffs, n_max, tol=1e-9):
    """All n <= n_max with l*ell within tol of n*pi (degenerate energy weight);
    n_max is a mode count (``kernels._count``)."""
    n_max = kmod._count(n_max, "n_max")
    return _resonant_modes(coeffs, np.arange(1, n_max + 1), tol).tolist()


def _resonant_modes(coeffs, ns, tol=1e-9):
    """The mode indices in the array ``ns`` with l*ell within tol of n*pi."""
    return ns[np.abs(coeffs.l * coeffs.ell - ns * np.pi) < tol]


def tune_chi_zero(coeffs, target):
    """Solve chi = 0 for the heat-law parameter.

    The root is the required varpi*g(0) (resp. varpi*h(0)).  For
    ``chi_g``/``chi_h`` that value is returned; for ``chi_sigma``/``chi_tau``
    the relaxation time, whose exponential kernel has varpi*g(0) = 1/time,
    so its reciprocal.  Raises if no strictly positive solution exists.
    """
    c = coeffs
    chi0, chi1 = _chi_elastic(c)
    factor = {"chi_g": chi0, "chi_h": chi1, "chi_sigma": chi0, "chi_tau": chi1}.get(target)
    if factor is None:
        raise DomainError(f"unknown tuning target {target!r}")
    num = c.rho3 * factor + c.gamma**2
    if factor == 0 or num == 0 or (num > 0) != (factor > 0):
        raise InfeasibleError(
            f"{target} = 0 has no positive solution for these coefficients")
    # (rho3/x - rho1/k) factor + gamma^2/x = 0  =>  x = k(rho3 f + g^2)/(rho1 f)
    x = c.k * num / (c.rho1 * factor)
    return x if target in ("chi_g", "chi_h") else 1.0 / x
