"""Workload definitions: the configs a seed generates and the CLI commands run on them.

Each workload is a list of steps.  A step is one ``beamstab`` CLI command on
one generated config, writing into its own output directory, plus the output
checks that decide whether the command succeeded.  Seed 0 gives the reference
configs; any other seed shifts the lower lambda-grid endpoint, both t-grid
endpoints and the tabulated kernel's sample spacing by at most ``SHIFT``
relative.  The upper lambda endpoint stays fixed because it sets the number
of modes a sweep evaluates, so every seed does the same amount of work and
passes the same checks.
"""

import random

SHIFT = 0.03

REF_COEFFICIENTS = {"rho1": 1, "rho2": 1, "rho3": 1, "k": 1, "k0": 2, "b": 2,
                    "varpi": 1, "gamma": 1, "l": 0.5,
                    "ell": 3.141592653589793}

# Why each workload exists; the same sentences are in BENCHMARK.json.
WHY = {
    "prony-sweep": (
        "BGP prony resolvent sweep: batched modal assembly and resolvent "
        "solve/SVD/eigvals on up to 4k stacked 10x10 modes; kernels and dynamics "
        "idle, so sweep pruning and chunking show here"),
    "tabulated-history": (
        "TGP tabulated kernel on the upwind history grid: the only path "
        "through Filon transforms, mu_integral cell masses and 37x37 modes; "
        "shows layout caching and memory elimination"),
    "time-domain": (
        "BGP prony with no sweep: per-mode eig/SVD propagation in dynamics "
        "plus batched spectra and lower bounds; sweep changes must leave it "
        "unchanged, a batched propagator shows here"),
}


class _Shifter:
    """Seeded relative shifts; seed 0 is the identity."""

    def __init__(self, seed):
        self.seed = seed
        self.rng = random.Random(seed)

    def __call__(self, value):
        if self.seed == 0:
            return value
        return value * (1.0 + self.rng.uniform(-SHIFT, SHIFT))


def _bgp(varpi=1):
    coeffs = dict(REF_COEFFICIENTS, varpi=varpi)
    return {
        "model": "BGP",
        "coefficients": coeffs,
        "kernel_g": {"type": "prony", "terms": [[1.0, 1.0]]},
        "kernel_h": {"type": "exponential", "varpi": 1, "sigma": 1},
        "tolerance": 1e-9,
        "output": {"dir": "out", "formats": ["csv", "svg"]},
    }


def _tabulated_kernel(shift):
    """A beamstab.normalized exp(-s) table: 401 samples on [0, ~23]."""
    import numpy as np

    import beamstab

    s = np.linspace(0.0, shift(23.0), 401)
    kern = beamstab.normalized(
        beamstab.tabulated_kernel(s, np.exp(-s), delta_tail=1.0, delta=1.0))
    return {"type": "tabulated", "s": kern.s.tolist(), "mu": kern.mu.tolist(),
            "delta_tail": 1.0, "delta": 1.0}


LOWERBOUND_N = [16, 64, 256, 1024, 4096]
BGP_CONSTANTS = {"c0": 1.25, "beta0": -2.0, "cstar": 0.5}


def _step(name, command, config, *checks):
    return {"name": name, "command": command, "config": config,
            "checks": list(checks)}


def prony_sweep(shift):
    cfg = _bgp()
    cfg["sweep"] = {"lambda_min": shift(100.0), "lambda_max": 1000.0,
                    "points": 13, "n_max": 64}
    steps = [_step("sweep", "sweep", "bgp", ["sweep_exponent", 2.0, 0.1])]
    return {"bgp": cfg}, steps


def tabulated_history(shift):
    cfg = {
        "model": "TGP",
        "coefficients": dict(REF_COEFFICIENTS),
        "kernel_g": _tabulated_kernel(shift),
        "memory": {"nodes": 32},
        "tolerance": 1e-9,
        "sweep": {"lambda_min": shift(10 ** 1.25), "lambda_max": 10 ** 1.75,
                  "points": 8, "n_max": 64},
        "decay": {"t_min": shift(100.0), "t_max": shift(1e4), "points": 9,
                  "n_max": 128},
        "spectrum": {"n_max": 64},
        "lowerbound": {"n_list": LOWERBOUND_N},
        "output": {"dir": "out", "formats": ["csv", "svg"]},
    }
    steps = [
        _step("sweep", "sweep", "tgp", ["sweep_exponent", 2.0, 0.1]),
        _step("decay", "decay", "tgp", ["decay_slope", -0.5, 0.1]),
        _step("spectrum", "spectrum", "tgp", ["abscissa_negative"]),
        _step("lowerbound", "lowerbound", "tgp", ["lowerbound", None]),
        _step("check", "check", "tgp", ["check_pass"]),
    ]
    return {"tgp": cfg}, steps


def time_domain(shift):
    t_lo, t_hi = shift(100.0), shift(1e4)
    poly = {}
    for n_max in (512, 1024):
        cfg = _bgp()
        cfg["decay"] = {"t_min": t_lo, "t_max": t_hi, "points": 9, "n_max": n_max}
        cfg["spectrum"] = {"n_max": 4096}
        cfg["lowerbound"] = {"n_list": LOWERBOUND_N}
        poly[n_max] = cfg
    twin = _bgp(varpi=2)
    twin["decay"] = {"t_min": shift(1.0), "t_max": shift(300.0), "points": 10,
                     "n_max": 256}
    twin["spectrum"] = {"n_max": 256}
    configs = {"bgp": poly[512], "bgp2": poly[1024], "twin": twin}
    steps = [
        _step("decay", "decay", "bgp", ["decay_slope", -0.5, 0.1]),
        _step("decay2", "decay", "bgp2", ["decay_slope", -0.5, 0.1],
              ["decay_doubling", "decay", 0.02]),
        _step("twin_spectrum", "spectrum", "twin", ["abscissa_negative"]),
        _step("twin_decay", "decay", "twin",
              ["decay_rate_vs_abscissa", "twin_spectrum", 0.1]),
        _step("spectrum", "spectrum", "bgp", ["abscissa_negative"]),
        _step("lowerbound", "lowerbound", "bgp", ["lowerbound", BGP_CONSTANTS]),
        _step("check", "check", "bgp", ["check_pass"]),
        _step("stability", "stability", "bgp",
              ["classification", "PolynomialSqrtOptimal"]),
        _step("limit", "limit", "bgp", ["limit_gaps_decrease"]),
    ]
    return configs, steps


GENERATORS = {
    "prony-sweep": prony_sweep,
    "tabulated-history": tabulated_history,
    "time-domain": time_domain,
}


def build(workload, seed):
    """(configs, steps) for a workload; configs map a name to a JSON-able dict."""
    return GENERATORS[workload](_Shifter(seed))
