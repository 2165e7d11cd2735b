import numpy as np
import pytest
from hypothesis import strategies as st

import beamstab as bs
from beamstab import modal

ELL = np.pi


def ref1_coeffs(**overrides):
    kw = dict(rho1=1.0, rho2=1.0, rho3=1.0, k=1.0, k0=2.0, b=2.0, varpi=1.0,
              gamma=1.0, l=0.5, ell=ELL, sigma=1.0, tau=1.0)
    kw.update(overrides)
    return bs.BeamCoefficients(**kw)


@pytest.fixture(scope="session")
def unit_exp():
    # mu(s) = exp(-s): unit g-mass, mu(0) = g(0) = 1
    return bs.prony_kernel([(1.0, 1.0)])


@pytest.fixture(scope="session")
def ref1(unit_exp):
    c = ref1_coeffs()
    return {
        "BGP": bs.SystemSpec("BGP", c, kernel_g=unit_exp, kernel_h=unit_exp),
        "BMC": bs.SystemSpec("BMC", c),
        "TGP": bs.SystemSpec("TGP", c, kernel_g=unit_exp),
        "TMC": bs.SystemSpec("TMC", c),
        "BF": bs.SystemSpec("BF", c),
        "TF": bs.SystemSpec("TF", c),
    }


@pytest.fixture(scope="session")
def refexp(unit_exp):
    # varpi = 2 with the same unit-mass kernels, so varpi*g(0) = 2 and both
    # memory stability numbers vanish
    c = ref1_coeffs(varpi=2.0)
    return bs.SystemSpec("BGP", c, kernel_g=unit_exp, kernel_h=unit_exp)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240811)


def random_states(rng, dim, count):
    return rng.normal(size=(count, dim)) + 1j * rng.normal(size=(count, dim))


def wnorm(W, u):
    return float(np.sqrt(np.real(np.conj(u) @ (W @ u))))


def _coeffs(draw, model, fast_rotation=False):
    """Random admissible coefficients; ``fast_rotation`` makes the rotation
    wave speed sqrt(b/rho2) exceed the shear one sqrt(k/rho1) by over 16x."""
    pos = st.floats(0.3, 3.0)
    kw = {name: draw(pos) for name in ("rho1", "rho2", "rho3", "k", "k0", "b",
                                       "varpi", "gamma")}
    if fast_rotation:
        kw.update(k=draw(st.floats(0.01, 0.03)), rho1=draw(st.floats(1.0, 2.0)),
                  b=draw(st.floats(8.0, 20.0)), rho2=draw(st.floats(0.2, 0.5)))
        assert np.sqrt(kw["b"] / kw["rho2"]) > 16 * np.sqrt(kw["k"] / kw["rho1"])
    kw["l"] = draw(st.floats(0.1, 0.9)) if model[0] == "B" else 0.0
    kw["sigma"] = draw(pos)
    kw["tau"] = draw(pos)
    return bs.BeamCoefficients(ell=np.pi, **kw)


def _prony(draw):
    terms = draw(st.lists(st.tuples(st.floats(0.2, 2.0), st.floats(0.3, 4.0)),
                          min_size=1, max_size=3))
    return bs.normalized(bs.prony_kernel(terms))


@st.composite
def admissible_specs(draw, models):
    """Systems of the given model tags with random admissible coefficients
    and random normalized prony kernels."""
    model = draw(st.sampled_from(models))
    c = _coeffs(draw, model, fast_rotation=draw(st.booleans()))
    kg = _prony(draw) if model.endswith("GP") else None
    kh = _prony(draw) if model == "BGP" else None
    return bs.SystemSpec(model, c, kernel_g=kg, kernel_h=kh)


def reference_mode_arrays(stack, ns, check_condition=True):
    """Stacked real (G, W) of the modes ``ns`` of a ``ModeStack`` in the
    state coordinates, every heat law written out in them: the assembly
    ``modal._mode_arrays`` had before it derived them from the energy
    coordinates, kept as the reference that the derived ones are checked
    against."""
    spec = stack.spec
    c = spec.coeffs
    ns = modal._mode_indices(spec, ns, check_condition)
    idx = stack.index
    om = ns * np.pi / c.ell
    rho, temps, _, _ = beam = modal._beam(spec)
    disp, vel, temps = (np.array([idx[name] for name in names])
                        for names in (rho, [u + "_t" for u in rho], temps))
    dens = np.array([*rho.values()])

    # the beam (modal's docstring): the velocities in the displacement rows,
    # -(S u + C^T theta)/rho in the velocity rows, C u_t / rho3 in the
    # temperature rows; W = S on the displacements, rho on the velocities
    # and rho3 on the temperatures.  0 - x keeps empty entries +0
    S, C = modal._elastic(beam, om)
    G, W = np.zeros((2, ns.size, stack.dim, stack.dim))
    G[:, disp, vel] = 1.0
    G[:, vel[:, None], disp] = 0.0 - S / dens[:, None]
    G[:, vel[:, None], temps] = 0.0 - np.swapaxes(C, 1, 2) / dens[:, None]
    G[:, temps[:, None], vel] = C / c.rho3
    W[:, disp[:, None], disp] = S
    W[:, vel, vel] = dens
    W[:, temps, temps] = c.rho3

    # heat law: the classical law is a diagonal on each temperature; the
    # others couple a temperature to its memory/flux block
    if stack.scheme == "none":
        G[:, temps, temps] = (-c.varpi * om**2 / c.rho3)[:, None]
    for blk in stack.blocks:
        iT = idx[blk.temp]
        sl = slice(blk.start, blk.start + blk.size)
        rows = np.arange(blk.start, blk.start + blk.size)
        if blk.scheme == "flux":
            relax = c.sigma if blk.temp == "temp_b" else c.tau
            G[:, iT, blk.start] = om / c.rho3
            G[:, blk.start, iT] = -om / relax
            G[:, rows, rows] = np.diag(stack.K[0])[rows]
            W[:, rows, rows] += relax
        elif blk.scheme == "prony-reduction":
            aj, thj = np.array(blk.aj), np.array(blk.thj)
            G[:, iT, sl] = -(c.varpi / c.rho3) * om[:, None] ** 2
            G[:, rows, rows] = np.diag(stack.K[0])[rows]
            G[:, sl, iT] = aj * thj
            W[:, rows, rows] += c.varpi * om[:, None] ** 2 / (aj * thj)
        else:  # sgrid-upwind
            h = blk.grid.spacing
            G[:, iT, sl] = -(c.varpi / c.rho3) * om[:, None] ** 2 * blk.node_mass
            G[:, rows, rows] = -1.0 / h
            G[:, rows[1:], rows[:-1]] = 1.0 / h[1:]
            G[:, sl, iT] = 1.0
            W[:, rows, rows] += c.varpi * om[:, None] ** 2 * blk.node_mass

    W *= c.ell / 2.0
    return G, W


def memory_gamma(mode, blk, u):
    """Discrete memory functional of one temperature at the state ``u``, term
    by term: the per-vector formulas that ``modal._gamma_matrix`` states as
    a matrix, kept as its reference.

    The prony form is (ell/2) sum_j 2 omega^2 |y_j|^2/(a_j theta_j^2); the
    upwind form is the quadrature of -mu' |d|^2 by kernel-mass differences
    plus the scheme's own (nonnegative) numerical dissipation and outflow
    terms.
    """
    om2 = mode.omega**2
    half_ell = mode.ell / 2.0
    y = u[blk.start:blk.start + blk.size]
    if blk.scheme == "prony-reduction":
        aj, thj = np.array(blk.aj), np.array(blk.thj)
        return half_ell * float(np.sum(2.0 * om2 / (aj * thj**2) * np.abs(y) ** 2))
    assert blk.scheme == "sgrid-upwind"
    h = blk.grid.spacing
    w = blk.node_mass / h
    dprev = np.concatenate([[0.0 + 0.0j], y[:-1]])
    jump = np.sum(w * np.abs(y - dprev) ** 2)
    tele = np.sum((w[:-1] - w[1:]) * np.abs(y[:-1]) ** 2) + w[-1] * abs(y[-1]) ** 2
    return half_ell * om2 * float(jump + tele)
