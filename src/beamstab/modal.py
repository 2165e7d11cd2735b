"""Per-mode generators and energy weights.

With the boundary conditions used here (Dirichlet for the deflection and the
temperatures, Neumann for rotation and axial stretch, flux cosine modes) the
trigonometric modes sin/cos(omega_n x), omega_n = n pi / ell, are invariant
under every model's generator, so each Fourier mode closes into a small
ODE system du/dt = G_n u, where G_n is a real matrix acting on complex
states.  The associated energy is the form u* W_n u with W_n real symmetric;
the factor ell/2 from integrating sin^2/cos^2 is kept inside W_n.

Memory (convolution) laws are realized two ways:

* ``prony-reduction``: one auxiliary state per exponential term,
  y_j = int a_j exp(-s/theta_j) d(s) ds, which closes exactly and is the
  default where every kernel is prony;
* ``sgrid-upwind``: first-order upwind transport of history samples on a
  geometric grid built from the slower-decaying kernel, the only route
  where either kernel is tabulated and an independent cross-check for
  prony ones.

``_memory_scheme`` makes this choice for the library and the config alike,
and no layout has more than MAX_DIM states per mode (``_labels``); prony
terms count like history nodes.

Both carry an exact discrete dissipation identity: the energy decay rate
equals -(varpi/2) times a nonnegative memory functional, a quadratic form
omega_n^2 y* M y of each temperature's memory states y (``_gamma_matrix``,
read by ``dissipation_rate`` and, for every state at once, ``_identity_gap``).

The beam table.  The beam equations are stated once, in ``_beam``.  With
phi, psi, w the deflection, rotation and axial stretch and l the curvature
(the straight beam has l = 0, no w and no theta_a):

    densities   rho1 for phi_t, rho2 for psi_t, rho1 for w_t
    temps       theta_b, theta_a (each of capacity rho3)
    strains     (slot, stiffness, form): (defl, k, omega phi + psi + l w),
                (rot, b, omega psi), (axial, k0, l phi + omega w)
    couplings   (temperature, displacement, power of omega, factor):
                (theta_b, psi, 1, gamma), (theta_a, w, 1, gamma),
                (theta_a, phi, 0, l gamma)

A form maps a displacement to (power of omega, factor), and the strain
energy is sum stiffness (form u)^2.  ``_elastic`` evaluates the table at
omega_n: the strain energy S = sum stiffness a a^T, a = factor omega^power,
and the couplings C[theta, u] = factor omega^power.  Every coordinate system
takes its beam entries from there:

* state coordinates (``_mode_arrays``): on the strain block G_n has the
  velocities in the displacement rows and -S u / rho in the velocity rows,
  and W_n is S on the displacements; every other entry is scaled back
  from the energy coordinates by the closed-form weights (below);
* energy coordinates (``_coupling``): K[slot, u_t] = factor sqrt(stiffness
  / rho) and K[theta, u_t] = factor / sqrt(rho rho3), in K1 for power 1 and
  K0 for power 0, with K[u_t, row] = -K[row, u_t];
* the lower-bound matrix (``resolvent.mn_matrix``): -rho lam^2 + S on the
  displacements, C^T in the temperature columns and lam^2 C in the
  temperature rows.

Each heat law (memory, flux, the classical diagonal) is written once, in
``_coupling``, and reaches the state coordinates through its weights.
Every stack has a heat block (``HeatBlock``): the memory or flux states,
and for the classical law its temperatures.

Energy coordinates.  v = F_n u with F_n^T F_n = W_n (times 2/ell) turns the
W-norm into the 2-norm, and F_n has a closed form, slot by slot of u:

    defl              sqrt(k) (omega phi + psi + l w)   (strains)
    rot               sqrt(b) omega psi
    axial             sqrt(k0) (l phi + omega w)
    velocities        sqrt(rho1), sqrt(rho2), sqrt(rho1) times the rate
    temperatures      sqrt(rho3) theta
    prony state y_j   omega sqrt(varpi / (a_j theta_j)) y_j
    flux state q      sqrt(relax) q
    upwind state y_i  omega sqrt(varpi m_i) y_i   (m_i the cell mass)

with relax = sigma or tau.  The energy-coordinate generator F_n G_n F_n^{-1}
is then omega_n K1 + K0 plus, for the classical law, omega_n^2 H2 on its
heat block, where the n-independent K = (K0, K1) of a ``ModeStack`` comes
from the beam table and the heat-law blocks (``_coupling``): K1 is skew by
construction, K0 is a skew S0 plus the diagonal D of the memory and flux
rates (-1/theta_j, -1/(relax varpi)); on the upwind grid K0 also holds the
transport block, -1/h_i on the diagonal and sqrt(m_i/m_{i-1})/h_i below it;
H2 is the classical law's -varpi/rho3 on each temperature.  F_n is singular
exactly at the curvature resonance omega_n = l, where SingularWeightError is
raised.

Off the strain block F_n is the diagonal t of the scales above, t^2 = w0 +
w2 omega_n^2 the weights rho, rho3, relax, varpi omega^2 / (a_j theta_j) and
varpi m_i omega^2 (``ModeStack.weights``).  So ``_mode_arrays`` takes
G_n = t^-1 Gh_n t and W_n = t^2 (times ell/2) there and builds only the
strain block from ``_elastic``, which keeps the displacements' grading: it
makes the state-coordinate eigenvalues of high modes more accurate
(``resolvent.spectral_abscissa``).

Every mode index, mode count and grid-node count passes the one count rule,
``kernels._count``; an array of mode indices needs an integer dtype.
"""

from dataclasses import dataclass
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from . import kernels as kmod
from . import model as mmod
from .errors import AdmissibilityError, DomainError, SingularWeightError, SpecError

__all__ = [
    "MemoryGrid",
    "MemoryBlock",
    "ModeSystem",
    "DissipationInfo",
    "make_grid",
    "grid_tail_mass",
    "omega",
    "assemble",
    "weight_matrix",
    "dissipation_rate",
    "weight_sqrt",
    "matrix_text",
]

GRID_TAIL_REL = 1e-10
CHUNK_ELEMENTS = 25_600   # entries of one stacked (N, d, d) array: 256 modes at d = 10
MAX_DIM = 1 << 10   # states of one mode: its d x d generator holds at most 2^20 entries, 8 MiB


@dataclass(frozen=True)
class MemoryGrid:
    """History grid: nodes s_1 < ... < s_M (s_1 > 0) and the truncation
    point s_max.  It holds no kernel data: each memory block that uses the
    grid carries its own kernel's cell masses (``MemoryBlock.node_mass``).
    """

    s: np.ndarray
    s_max: float

    def __post_init__(self):
        if self.s.ndim != 1 or self.s.size < 1:
            raise DomainError("grid needs a 1-d node array")
        if self.s[0] <= 0 or np.any(np.diff(self.s) <= 0):
            raise DomainError("grid nodes must be strictly increasing with s_1 > 0")

    @property
    def size(self):
        return self.s.size

    @property
    def spacing(self):
        """h_i = s_i - s_{i-1} with the inflow node s_0 = 0."""
        return np.diff(np.concatenate([[0.0], self.s]))


@dataclass(frozen=True)
class MemoryBlock:
    """Where a temperature's memory/flux states live inside a mode vector."""

    temp: str            # label of the owning temperature state
    start: int
    size: int
    scheme: str          # "prony-reduction" | "sgrid-upwind" | "flux" | "none"
    aj: tuple = ()
    thj: tuple = ()
    grid: MemoryGrid = None
    node_mass: np.ndarray = None   # sgrid: the exact kernel mass of each cell (s_{i-1}, s_i]


@dataclass(frozen=True)
class ModeSystem:
    """One Fourier mode: du/dt = G u with energy (1/2) u* W u."""

    model: str
    n: int
    omega: float
    generator: np.ndarray
    weight: np.ndarray
    labels: tuple
    scheme: str
    memory: tuple
    varpi: float
    ell: float

    @property
    def dim(self):
        return self.generator.shape[0]

    def index(self, label):
        return self.labels.index(label)


class HeatBlock(NamedTuple):
    """The energy-coordinate generators of a stack split into the beam
    indices b and the heat indices ``h``: the states of the stack's
    ``blocks`` (memory, flux), or the classical law's temperatures,

        Gh_n = [[B_n, U_n], [-U_n^T, H_n]],

    B_n = omega_n B1 + B0, U_n = omega_n U1 + U0 and H_n = H0 + omega_n^2 H2
    with B1 = K1[b, b], B0 = K0[b, b], U1 = K1[b, h], U0 = K0[b, h] and
    H0 = K0[h, h].  On memory and flux stacks the temperatures are beam
    states, U0 = 0, H2 = 0 and H0 is lower triangular with the memory, flux
    or transport rates on its diagonal; on the classical law H0 = 0, H2 is
    -varpi/rho3 on each temperature, and U0 is nonzero only on the curved
    beam (its l gamma coupling).  ``_coupling`` leaves K1[h, h] zero.
    ``gram`` = (||K0||_F^2, <K0, K1>, ||K1||_F^2), so that
    ||Gh_n||_F <= (||K0||_F^2 + 2 omega_n <K0, K1> + omega_n^2
    ||K1||_F^2)^(1/2) + omega_n^2 ||H2||_F."""

    h: np.ndarray
    B0: np.ndarray
    B1: np.ndarray
    U0: np.ndarray
    U1: np.ndarray
    H0: np.ndarray
    H2: np.ndarray
    gram: tuple


@dataclass(frozen=True, eq=False)
class ModeStack:
    """The n-independent part of a system's modes, built once by ``_layout``
    and read-only, so threads may share it.

    ``K`` = (K0, K1) and the heat block's H2 give the energy-coordinate
    generators omega_n K1 + K0 + omega_n^2 H2 (module docstring; H2 is zero
    but for the classical law).  ``heat`` is the heat-block partition of the
    generators (``HeatBlock``), which every stack has.  ``weights`` =
    (w0, w2) gives each slot's closed-form energy weight w0 + w2 omega_n^2
    off the strain block (module docstring); the strain slots hold 1 there,
    as ``_mode_arrays`` builds their block from the beam table.
    """

    spec: mmod.SystemSpec
    labels: tuple
    blocks: tuple
    scheme: str
    index: MappingProxyType
    K: tuple
    heat: HeatBlock
    weights: tuple

    @property
    def dim(self):
        return len(self.labels)

    def chunks(self, n_max):
        """(ns, Gh) for the modes 1..n_max in consecutive chunks of at most
        CHUNK_ELEMENTS stacked (N, d, d) entries (one mode at least), Gh
        their energy-coordinate generators (``_generators``)."""
        for sl in _chunk_slices(n_max, self.dim ** 2):
            ns = np.arange(sl.start + 1, sl.stop + 1)
            yield ns, _generators(self, ns)

    def mode(self, n):
        """The mode-n system; raises SingularWeightError when the energy form
        degenerates (curvature resonance l*ell = n*pi)."""
        n = kmod._count(n, "mode index")
        G, W = _mode_arrays(self, [n])
        G.flags.writeable = W.flags.writeable = False
        c = self.spec.coeffs
        return ModeSystem(
            model=self.spec.model, n=n, omega=omega(c.ell, n),
            generator=G[0], weight=W[0], labels=self.labels, scheme=self.scheme,
            memory=self.blocks, varpi=c.varpi, ell=c.ell)


def _heat_block(K0, K1, h, H2):
    """The ``HeatBlock`` of coupling matrices (K0, K1) whose heat states are
    the indices ``h``, with the omega_n^2 term H2 on them."""
    b = np.delete(np.arange(len(K0)), h)
    U0, U1 = K0[np.ix_(b, h)], K1[np.ix_(b, h)]
    assert (np.array_equal(K0[np.ix_(h, b)], -U0.T) and np.array_equal(K1[np.ix_(h, b)], -U1.T)
            and not K1[np.ix_(h, h)].any())
    parts = [h, K0[np.ix_(b, b)], K1[np.ix_(b, b)], U0, U1, K0[np.ix_(h, h)], H2]
    for a in parts:
        a.flags.writeable = False
    gram = tuple(float(np.vdot(x, y)) for x, y in ((K0, K0), (K0, K1), (K1, K1)))
    return HeatBlock(*parts, gram=gram)


def _chunk_slices(N, row):
    """Consecutive slices of the rows 0..N-1 of a stacked array of ``row``
    entries per row (d * d for an (N, d, d) stack), each of at most
    CHUNK_ELEMENTS entries (one row at least)."""
    size = max(1, CHUNK_ELEMENTS // row)
    return [slice(lo, min(lo + size, N)) for lo in range(0, N, size)]


@dataclass(frozen=True)
class DissipationInfo:
    rate: float
    gamma: dict = None        # per-temperature memory functional (GP only)
    identity_gap: float = None
    gamma_form: str = None


def omega(ell, n):
    """Modal frequency n*pi/ell of a mode index n (``kernels._count``)."""
    return kmod._count(n, "mode index") * np.pi / ell


def grid_tail_mass(kernel, s_max):
    """Exact kernel mass beyond s_max (used to certify truncation)."""
    return kmod.mu_integral(kernel, s_max, np.inf)


def make_grid(kernel, M):
    """History grid for a kernel: M nodes geometric in s from 1e-4 s_max to
    s_max, so refined near s = 0, where s_max is where the envelope
    certifies a relative tail mass below 1e-10.

    A grid may be shared by the two kernels of a curved-beam system; build it
    from the slower-decaying one (``_grid_kernel``) so the truncation
    certificate covers both.
    """
    M = kmod._count(M, "grid node count", least=8)
    if kernel.delta <= 0:
        raise AdmissibilityError("kernel lacks a positive envelope decay rate")
    m = kmod.masses(kernel)
    if not (m.g0 > 0 and np.isfinite(m.g0)):
        raise AdmissibilityError("kernel mass must be positive and finite")
    s_max = np.log(m.mu0 / (kernel.delta * GRID_TAIL_REL * m.g0)) / kernel.delta
    s = s_max * 1e-4 ** (1.0 - np.arange(1, M + 1) / M)
    s.flags.writeable = False
    return MemoryGrid(s=s, s_max=float(s_max))


def _cell_masses(kernel, s):
    """Exact kernel mass over each cell (s_{i-1}, s_i] of the nodes, s_0 = 0."""
    edges = np.concatenate([[0.0], s])
    return np.array([kmod.mu_integral(kernel, a, b) for a, b in zip(edges[:-1], edges[1:])])


def _temps(spec):
    """(tag, kernel) of each temperature: theta_b with kernel_g and, on a
    curved beam, theta_a with kernel_h."""
    return [("b", spec.kernel_g)] + ([("a", spec.kernel_h)] if spec.is_bresse else [])


def _grid_kernel(spec):
    """The kernel a memory system's history grid is built from: the
    slower-decaying one (the smallest ``delta``; kernel_g on a tie)."""
    return min((kernel for _, kernel in _temps(spec)), key=lambda kernel: kernel.delta)


def _memory_scheme(spec, requested=None):
    """The scheme realizing spec's heat law: 'flux' for a relaxed flux,
    'none' for the classical law; a memory law takes ``requested``, by
    default 'prony-reduction' where every kernel is prony and else
    'sgrid-upwind', the only scheme for a tabulated kernel."""
    if spec.model not in mmod.MEMORY_MODELS:
        if requested is not None:
            raise SpecError(f"memory scheme {requested!r} applies to memory-law models, "
                            f"not {spec.model}")
        return "flux" if spec.model in mmod.RELAXED_MODELS else "none"
    if requested not in (None, "prony-reduction", "sgrid-upwind"):
        raise SpecError(f"unknown memory.scheme {requested!r}; "
                        "expected 'prony-reduction' or 'sgrid-upwind'")
    prony = all(kernel.kind == "prony" for _, kernel in _temps(spec))
    if requested == "prony-reduction" and not prony:
        raise SpecError("memory scheme 'prony-reduction' needs prony kernels; "
                        "a tabulated kernel takes 'sgrid-upwind'")
    return requested or ("prony-reduction" if prony else "sgrid-upwind")


def _labels(spec, scheme, nodes=0):
    """The state labels of spec's modes under ``scheme``: the beam's, then
    each temperature followed by its heat states, a flux, one per prony
    term or ``nodes`` on the upwind grid.  DomainError above MAX_DIM."""
    labels = ["defl", "defl_t", "rot", "rot_t"] + (["axial", "axial_t"] if spec.is_bresse else [])
    for tag, kernel in _temps(spec):
        labels.append(f"temp_{tag}")
        if scheme == "flux":
            labels.append(f"flux_{tag}")
        elif scheme != "none":
            size = len(kernel.terms) if scheme == "prony-reduction" else nodes
            labels += [f"hist_{tag}{i}" for i in range(size)]
    kmod._count(len(labels), f"states per {spec.model} mode on the {scheme} layout",
                most=MAX_DIM)
    return tuple(labels)


def _node_cap(spec):
    """The most history nodes per temperature of an upwind layout within
    MAX_DIM states (``_labels``)."""
    return (MAX_DIM - len(_labels(spec, "sgrid-upwind"))) // len(_temps(spec))


def _layout(spec, grid):
    """The system's ``ModeStack``: labels, memory/flux blocks, the coupling
    matrices K, the heat-block partition and the closed-form weights, built
    once and shared by every mode of the system."""
    scheme = _memory_scheme(spec, None if grid is None else "sgrid-upwind")
    if scheme == "sgrid-upwind" and grid is None:
        raise SpecError("tabulated kernels need a history grid (make_grid)")
    labels = _labels(spec, scheme, grid and grid.size)
    index = {name: i for i, name in enumerate(labels)}
    # each temperature's heat states run up to the next temperature
    temps = _temps(spec) if scheme != "none" else []
    ends = [index[f"temp_{tag}"] for tag, _ in temps] + [len(labels)]
    blocks = tuple(_make_block(f"temp_{tag}", lo + 1, hi - lo - 1, scheme, kernel, grid)
                   for (tag, kernel), lo, hi in zip(temps, ends, ends[1:]))
    K, weights, (h, H2) = _coupling(spec, index, blocks, scheme)
    for a in (*K, *weights):
        a.flags.writeable = False
    return ModeStack(spec=spec, labels=labels, blocks=blocks, scheme=scheme,
                     index=MappingProxyType(index), K=K, heat=_heat_block(*K, h, H2),
                     weights=weights)


def _beam(spec):
    """The beam equations (module docstring) as one table (rho, temps,
    strains, couplings): ``rho`` maps each displacement to the density of
    its velocity; ``temps`` names the temperatures; a strain is (slot,
    stiffness, form), ``form`` mapping a displacement to (power of omega,
    factor); a thermal coupling is (temperature, displacement, power of
    omega, factor)."""
    c, l = spec.coeffs, spec.effective_l
    rho, temps = {"defl": c.rho1, "rot": c.rho2}, ["temp_b"]
    shear = {"defl": (1, 1.0), "rot": (0, 1.0)}
    strains = [("defl", c.k, shear), ("rot", c.b, {"rot": (1, 1.0)})]
    couplings = [("temp_b", "rot", 1, c.gamma)]
    if spec.is_bresse:
        rho["axial"] = c.rho1
        temps.append("temp_a")
        shear["axial"] = (0, l)
        strains.append(("axial", c.k0, {"defl": (0, l), "axial": (1, 1.0)}))
        couplings += [("temp_a", "axial", 1, c.gamma), ("temp_a", "defl", 0, l * c.gamma)]
    return rho, temps, strains, couplings


def _elastic(beam, om):
    """(S, C) of the ``_beam`` table at the frequencies ``om``: the strain
    energy S = sum stiffness a a^T, (N, u, u) over the displacements in the
    order of ``rho``, a = factor omega^power, and the thermal couplings C,
    (N, theta, u) over the temperatures in the order of ``temps``."""
    rho, temps, strains, couplings = beam
    col = {u: i for i, u in enumerate(rho)}
    S = np.zeros((om.size, len(rho), len(rho)))
    C = np.zeros((om.size, len(temps), len(rho)))
    for _, stiffness, form in strains:
        a = np.zeros((om.size, len(rho)))
        for u, (p, f) in form.items():
            a[:, col[u]] = f * om ** p
        S += stiffness * (a[:, :, None] * a[:, None, :])
    for temp, u, p, f in couplings:
        C[:, temps.index(temp), col[u]] = f * om ** p
    return S, C


def _coupling(spec, index, blocks, scheme):
    """(K0, K1) of the energy coordinates, the weights (w0, w2) of
    ``ModeStack.weights`` (module docstring) and the heat states with their
    omega_n^2 term, (h, H2) of ``HeatBlock``: the beam entries from the
    ``_beam`` table, the heat-law blocks from ``blocks``."""
    c, sq = spec.coeffs, np.sqrt
    rho, temps, strains, couplings = _beam(spec)
    d = len(index)
    K0, K1 = np.zeros((d, d)), np.zeros((d, d))
    w0, w2 = np.ones(d), np.zeros(d)
    w0[[index[u + "_t"] for u in rho]] = [*rho.values()]
    w0[[index[name] for name in temps]] = c.rho3
    # (row, displacement, power of omega, entry); its velocity column gets the
    # entry, and K[column, row] = -K[row, column]
    table = [(slot, u, p, f * sq(stiffness / rho[u]))
             for slot, stiffness, form in strains for u, (p, f) in form.items()]
    table += [(temp, u, p, f / sq(rho[u] * c.rho3)) for temp, u, p, f in couplings]
    for row, u, p, v in table:
        i, j = index[row], index[u + "_t"]
        (K0, K1)[p][i, j], (K0, K1)[p][j, i] = v, -v
    heat, rate2 = [i for blk in blocks for i in range(blk.start, blk.start + blk.size)], 0.0
    if scheme == "none":   # the classical law: its temperatures, -varpi/rho3 omega^2 on each
        heat, rate2 = [index[name] for name in temps], -c.varpi / c.rho3
    for blk in blocks:
        iT, rows = index[blk.temp], np.arange(blk.start, blk.start + blk.size)
        if blk.scheme == "flux":
            relax = c.sigma if blk.temp == "temp_b" else c.tau
            u, rate, w = 1.0 / sq(c.rho3 * relax), -1.0 / (relax * c.varpi), (relax, 0.0)
        elif blk.scheme == "prony-reduction":
            aj, thj = np.array(blk.aj), np.array(blk.thj)
            u, rate = -sq(c.varpi * aj * thj / c.rho3), -1.0 / thj
            w = 0.0, c.varpi / (aj * thj)
        else:  # sgrid-upwind: the transport block
            m, h = blk.node_mass, blk.grid.spacing
            u, rate, w = -sq(c.varpi * m / c.rho3), -1.0 / h, (0.0, c.varpi * m)
            # past a cell with no kernel mass (no energy) the entry is 0, not 0/0
            ratio = np.divide(m[1:], m[:-1], out=np.zeros(m.size - 1), where=m[:-1] > 0)
            K0[rows[1:], rows[:-1]] = sq(ratio) / h[1:]
        K1[iT, rows], K1[rows, iT] = u, -u
        K0[rows, rows] = rate
        w0[rows], w2[rows] = w
    return (K0, K1), (w0, w2), (np.array(heat), rate2 * np.eye(len(heat)))


def _make_block(temp, start, size, scheme, kernel, grid):
    if scheme == "prony-reduction":
        aj = tuple(a for a, _ in kernel.terms)
        thj = tuple(th for _, th in kernel.terms)
        return MemoryBlock(temp=temp, start=start, size=size, scheme=scheme, aj=aj, thj=thj)
    if scheme == "sgrid-upwind":
        # exact per-kernel cell masses: a shared grid may serve two kernels
        if grid_tail_mass(kernel, grid.s_max) > 1e-6 * kmod.masses(kernel).g0:
            raise AdmissibilityError(
                f"history grid truncates too much of the {temp} kernel; "
                "build the grid from the slower-decaying kernel")
        node_mass = _cell_masses(kernel, grid.s)
        node_mass.flags.writeable = False
        return MemoryBlock(temp=temp, start=start, size=size, scheme=scheme,
                           grid=grid, node_mass=node_mass)
    return MemoryBlock(temp=temp, start=start, size=size, scheme=scheme)


def _mode_indices(spec, ns, check_condition=True):
    """``ns`` as an array of mode indices: DomainError unless its dtype is an
    integer one and its extremes are mode indices (``kernels._count``), and
    unless ``check_condition`` is false, SingularWeightError at the
    curvature resonance."""
    ns = np.asarray(ns)
    if ns.dtype.kind not in "iu":
        raise DomainError(f"mode indices need an integer dtype, got {ns.dtype}")
    for n in (ns.min(), ns.max()):
        kmod._count(n, "mode index")
    if check_condition and spec.is_bresse:
        bad = mmod._resonant_modes(spec.coeffs, ns)
        if bad.size:
            raise SingularWeightError(
                f"energy weight is singular at modes {bad.tolist()} "
                "(l*ell hits a multiple of pi)")
    return ns


def _generators(stack, ns, check_condition=True):
    """Stacked real energy-coordinate generators, (N, d, d), of the modes
    ``ns`` of a ``ModeStack``: omega_n K1 + K0, plus omega_n^2 H2 on the
    heat block where H2 is not zero; ``check_condition`` as in
    ``_mode_indices``."""
    ns = _mode_indices(stack.spec, ns, check_condition)
    om = (ns * np.pi / stack.spec.coeffs.ell)[:, None, None]
    G = om * stack.K[1]
    G += stack.K[0]
    if stack.heat.H2.any():
        G[:, stack.heat.h[:, None], stack.heat.h] += om ** 2 * stack.heat.H2
    return G


def _mode_arrays(stack, ns, check_condition=True):
    """Stacked real (G, W), each (N, d, d), of the modes ``ns`` of a
    ``ModeStack`` in the state coordinates (module docstring): the
    generators scaled back by the closed-form weights t^2 = w0 + w2 omega_n^2,
    G = t^-1 Gh t and W = t^2, but for the strain block of the beam table."""
    G = _generators(stack, ns, check_condition)
    om = np.asarray(ns) * np.pi / stack.spec.coeffs.ell
    rho, _, _, _ = beam = _beam(stack.spec)
    disp, vel = (np.array([stack.index[name] for name in names])
                 for names in (rho, [u + "_t" for u in rho]))
    w0, w2 = stack.weights
    t2 = w0 + w2 * om[:, None] ** 2
    # G[i, j] = Gh[i, j] t_j / t_i, in place.  A slot of zero weight (an
    # upwind cell with no kernel mass) carries no energy, and _coupling
    # leaves it nothing in Gh but its own rate, which t = 1 keeps
    t = np.sqrt(t2, out=np.ones_like(t2), where=t2 > 0)
    G *= t[:, None, :]
    G /= t[:, :, None]
    W, slots = np.zeros_like(G), np.arange(stack.dim)
    W[:, slots, slots] = t2
    # the strain block: the velocities in the displacement rows, -S u / rho
    # in the velocity rows, W = S on the displacements.  0 - x keeps empty
    # entries +0
    S, _ = _elastic(beam, om)
    G[:, disp[:, None], vel] = np.eye(disp.size)
    G[:, vel[:, None], disp] = 0.0 - S / w0[vel, None]
    W[:, disp[:, None], disp] = S
    W *= stack.spec.coeffs.ell / 2.0
    return G, W


def assemble(spec, n, grid=None):
    """Build the mode-n system; raises SingularWeightError when the energy
    form degenerates (curvature resonance l*ell = n*pi)."""
    return _layout(spec, grid).mode(n)


def weight_matrix(spec, n, grid=None):
    """The energy Gram matrix alone, without the resonance check; a singular
    weight is reported by the caller's factorization, never raised here."""
    ns = [kmod._count(n, "mode index")]
    return _mode_arrays(_layout(spec, grid), ns, check_condition=False)[1][0]


def weight_sqrt(W):
    """Hermitian square root and inverse square root of a weight matrix or a
    stack (N, d, d) of them: a test oracle for ``resolvent._weight_factors``."""
    ew, V = np.linalg.eigh(W)
    low, high = ew[..., 0], ew[..., -1]
    if np.any(low <= 1e-12 * high):
        raise SingularWeightError(
            f"weight matrix is numerically singular (eig ratio {np.min(low / high):.2e})")
    sq = np.sqrt(ew)[..., None, :]
    Vt = np.swapaxes(V, -1, -2)
    return (V * sq) @ Vt, (V / sq) @ Vt


def _gamma_matrix(blk, ell):
    """The matrix M of one temperature's discrete memory functional, so that
    Gamma = omega_n^2 y* M y with y the states of its block ``blk``.

    Chosen so that the dissipation identity
    Re<Gu, u>_W = -(varpi/2) * sum_over_temperatures Gamma
    holds exactly for the realized scheme.  The prony form is
    (ell/2) sum_j 2 omega^2 |y_j|^2/(a_j theta_j^2); the upwind form is the
    quadrature of -mu' |d|^2 by kernel-mass differences plus the scheme's
    own (nonnegative) numerical dissipation and outflow terms: with
    w_i = m_i / h_i and y_0 = 0,

        sum_i w_i |y_i - y_{i-1}|^2 + sum_{i<M} (w_i - w_{i+1}) |y_i|^2 + w_M |y_M|^2,

    whose matrix is 2 w_i on the diagonal and -w_i beside it at (i, i-1)
    and (i-1, i), times (ell/2) omega^2.
    """
    if blk.scheme == "prony-reduction":
        aj, thj = np.array(blk.aj), np.array(blk.thj)
        return np.diag(ell / (aj * thj**2))
    if blk.scheme == "sgrid-upwind":
        w = blk.node_mass / blk.grid.spacing
        M = np.diag(2.0 * w)
        i = np.arange(1, w.size)
        M[i, i - 1] = M[i - 1, i] = -w[1:]
        return (ell / 2.0) * M
    raise DomainError("memory functional is defined for memory-law modes only")


def dissipation_rate(mode, state):
    """Re<G u, u>_W together with the memory functionals for memory modes.

    For prony and upwind memory realizations the identity
    rate = -(varpi/2) (Gamma_b + Gamma_a) is exact up to rounding; the gap is
    reported so callers can assert it.  Each Gamma is the quadratic form of
    its block's ``_gamma_matrix``.
    """
    u = np.asarray(state, dtype=complex)
    if u.shape != (mode.dim,):
        raise DomainError(f"state has shape {u.shape}, mode dimension is {mode.dim}")
    rate = float(np.real(np.conj(u) @ (mode.weight @ (mode.generator @ u))))
    if mode.scheme not in ("prony-reduction", "sgrid-upwind"):
        return DissipationInfo(rate=rate)
    gamma = {}
    for blk in mode.memory:
        y = u[blk.start:blk.start + blk.size]
        M = _gamma_matrix(blk, mode.ell)
        gamma[blk.temp] = mode.omega**2 * float(np.real(np.conj(y) @ (M @ y)))
    gap = abs(rate + 0.5 * mode.varpi * sum(gamma.values()))
    form = "prony-exact" if mode.scheme == "prony-reduction" else "upwind-cellmass"
    return DissipationInfo(rate=rate, gamma=gamma, identity_gap=gap, gamma_form=form)


def _identity_gap(stack, ns):
    """The relative gap of the dissipation identity on the modes ``ns`` of a
    memory-layout ``ModeStack``, exact over every state: per mode
    ||X + (varpi/2) omega_n^2 M||_2 / ||X||_2, with X = sym(WG) in the state
    coordinates (Re<Gu, u>_W = u* X u) and M the sum of the temperatures'
    ``_gamma_matrix``.  None on the other layouts."""
    if stack.scheme not in ("prony-reduction", "sgrid-upwind"):
        return None
    ns = np.asarray(ns)
    c = stack.spec.coeffs
    G, W = _mode_arrays(stack, ns)
    X = W @ G
    X = (X + np.swapaxes(X, 1, 2)) / 2.0
    M = np.zeros((stack.dim, stack.dim))
    for blk in stack.blocks:
        sl = slice(blk.start, blk.start + blk.size)
        M[sl, sl] = _gamma_matrix(blk, c.ell)
    om2 = (ns * np.pi / c.ell)[:, None, None] ** 2
    return (np.linalg.norm(X + 0.5 * c.varpi * om2 * M, 2, axis=(1, 2))
            / np.linalg.norm(X, 2, axis=(1, 2)))


def matrix_text(mode):
    """Plain-text dump of the generator and weight (debugging aid): the
    nonzero entries of each as ``row col value`` lines."""
    lines = [f"% mode n={mode.n} model={mode.model} scheme={mode.scheme} dim={mode.dim}"]
    for name, A in (("generator", mode.generator), ("weight", mode.weight)):
        lines.append(f"% {name} (row col value)")
        lines += [f"{i + 1} {j + 1} {A[i, j]:.17g}" for i, j in zip(*np.nonzero(A))]
    return "\n".join(lines) + "\n"
