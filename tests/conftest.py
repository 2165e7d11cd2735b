import numpy as np
import pytest
from hypothesis import strategies as st

import beamstab as bs

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
