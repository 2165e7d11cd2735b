"""Batch command-line interface.

    beamstab <command> --config PATH [--threads N] [--out DIR]

Commands: stability, sweep, lowerbound, decay, spectrum, limit, check.
A single JSON config describes the system and the per-command blocks; every
output file starts with a header recording the tool version and a hash of
the config, so runs are reproducible byte for byte.

Exit codes: 0 success, 2 config/spec error, 3 numeric error
(``NUMERIC_ERRORS``, which include the overflow or division by zero,
``ArithmeticError``, of a config whose magnitudes reach 1e+-300); every
other package error exits 2, and a malformed or
out-of-range config field does so from ``load_config``, before any work.
Each config object declares its fields once (``TOP_FIELDS``,
``model.POSITIVE_COEFFS``, ``BLOCKS``, ``kernels.KERNEL_FIELDS``) and passes
the one object rule, ``kernels._object``, so an unknown or misspelled field
exits 2 too, as does a config file that cannot be read or is not UTF-8 JSON.
``output.formats`` decides the CSV tables and SVG charts a command writes;
its JSON summary is always written.  An output directory (``output.dir``,
``--out``, ``--dump-modes``) that names an existing file, or a path below
one, exits 2 before any work, and so does a write that still fails.

Every count field (``n_max``, ``points``, ``memory.nodes``, the entries of
``lowerbound.n_list``) passes the one count rule, ``kernels._count``, with
the caps below as its bounds.  A rule the library also applies is checked
by its owner there, before any work: the memory scheme, the history grid
and the states of one mode in ``modal``, the mixture share in ``kernels``,
the coefficients and kernels a model needs in ``model``.  ``decay.points``
takes the fit's sample floor from ``resolvent``; the decay fit follows the
stability classification: exponential where the governing number vanishes,
algebraic otherwise.  A kernel's error names its field, ``kernel_g`` or
``kernel_h``.
"""

import argparse
import copy
import json
import sys
from dataclasses import dataclass
from pathlib import Path

try:  # CPython's own SHA-256 first: hashlib would map OpenSSL's libcrypto
    from _sha2 import sha256          # Python >= 3.12
except ImportError:
    try:
        from _sha256 import sha256    # Python <= 3.11
    except ImportError:
        from hashlib import sha256

import numpy as np

from . import __version__, dynamics, kernels, modal, model, resolvent, svg
from .errors import (BeamstabError, FitError, NumericError, SpecError, SpectralPointError,
                     UnsupportedMapError)
from .kernels import MAX_MODES, _count, _number, _numbers, _object, _share

NUMERIC_ERRORS = (NumericError, SpectralPointError, FitError,
                  np.linalg.LinAlgError, ArithmeticError)

# every optional block, with its fields and their defaults
BLOCKS = {
    "memory": dict(scheme=None, nodes=128),
    "sweep": dict(lambda_min=1e2, lambda_max=1e4, points=13, n_max=64, peak_refine=True),
    "decay": dict(t_min=1e2, t_max=1e4, points=9, n_max=128),
    "lowerbound": dict(n_list=[16, 64, 256]),
    "spectrum": dict(n_max=64),
    "limit": dict(eps_list=[1e-1, 1e-2, 1e-3, 1e-4], m=None),
    "output": dict(formats=["csv"], dir="out"),
}
TOP_FIELDS = ("model", "coefficients", "kernel_g", "kernel_h", "tolerance", *BLOCKS)
# The cap on the points of a sweep or decay grid, checked before any work.
# The cap on the modes 1..n_max a command walks is ``kernels.MAX_MODES``,
# and on the states of one mode ``modal.MAX_DIM``.
MAX_POINTS = 10_000


def _fmt(x):
    """17 significant digits, '.' decimal, reproducible."""
    return format(float(x), ".17g")


@dataclass
class RunConfig:
    spec: model.SystemSpec
    tolerance: float
    grid: modal.MemoryGrid
    sweep: dict
    lowerbound: dict
    decay: dict
    spectrum: dict
    limit: dict
    out_dir: Path
    formats: tuple
    config_hash: str


def _field_count(value, where, least=1, most=MAX_MODES):
    """A config count: the one count rule, ``kernels._count``."""
    return _count(value, f"config field {where}", least, most, SpecError)


def _output_dir(path, where):
    """``path`` as an output directory, refused with SpecError where it or
    its nearest existing parent is not a directory; creates nothing."""
    path = Path(path)
    for p in (path, *path.parents):
        if p.exists():
            if not p.is_dir():
                raise SpecError(f"{where} {path} cannot be a directory: {p} exists "
                                "and is not one")
            break
    return path


def load_config(path, out_override=None):
    """Parse and fully validate a run config; no computation happens here."""
    try:
        raw_text = Path(path).read_text(encoding="utf-8")
        raw = json.loads(raw_text)
    except FileNotFoundError as exc:
        raise SpecError(f"config file not found: {exc.filename}") from None
    except OSError as exc:
        raise SpecError(f"config file {path} cannot be read: {exc.strerror}") from None
    except (ValueError, RecursionError) as exc:  # not UTF-8, or not JSON
        raise SpecError(f"config file {path} is not valid JSON: {exc}") from None
    cfg_hash = sha256(raw_text.encode("utf-8")).hexdigest()[:12]
    _object(raw, TOP_FIELDS, "config", required=("model", "coefficients"))

    tag = raw["model"]
    if not isinstance(tag, str):
        raise SpecError(f"config field model must be a string, got {tag!r}")
    positive = model.POSITIVE_COEFFS
    csrc = {"l": 0.0, **_object(raw["coefficients"], (*positive, "l", "sigma", "tau"),
                                "config field coefficients", required=positive)}
    kwargs = {f: float(_number(v, f"coefficients.{f}")) for f, v in csrc.items()
              if not (v is None and f in ("sigma", "tau"))}  # relaxation times may be null

    def kernel(name, tags):  # every kernel is read; the spec takes those its model uses
        try:
            kern = kernels.kernel_from_config(raw[name]) if name in raw else None
        except BeamstabError as exc:
            raise type(exc)(f"{name}: {exc}") from None
        return kern if tag in tags else None
    spec = model.SystemSpec(model=tag, coeffs=model.BeamCoefficients(**kwargs),
                            kernel_g=kernel("kernel_g", model.MEMORY_MODELS),
                            kernel_h=kernel("kernel_h", ("BGP",)))
    tolerance = model._tolerance(
        float(_number(raw.get("tolerance", model.DEFAULT_TOL), "tolerance")))
    # the blocks in BLOCKS order, each given field over a copy of its default
    mem, sweep_blk, decay_blk, lb_blk, spectrum_blk, limit_blk, out_blk = (
        {**copy.deepcopy(defaults),
         **_object(raw.get(name, {}), defaults, f"config block {name}")}
        for name, defaults in BLOCKS.items())

    scheme = modal._memory_scheme(spec, mem["scheme"])
    # the node count is checked even when no grid is built; the scheme's
    # layout is capped too, where prony terms count like nodes
    nodes = _field_count(mem["nodes"], "memory.nodes", 8, modal._node_cap(spec))
    modal._labels(spec, scheme, nodes)

    # a sweep too short for a growth fit reports no fit; a decay run needs its fit
    for b, name, lo_key, hi_key, least_points in (
            (sweep_blk, "sweep", "lambda_min", "lambda_max", 2),
            (decay_blk, "decay", "t_min", "t_max", resolvent.FIT_MIN_POINTS)):
        lo, hi = (_number(b[key], f"{name}.{key}") for key in (lo_key, hi_key))
        if not (0 < lo < hi):  # the grids are geometric
            raise SpecError(f"config block {name} needs 0 < {lo_key} < {hi_key}")
        b["points"] = _field_count(b["points"], f"{name}.points", least_points, MAX_POINTS)
        b["n_max"] = _field_count(b["n_max"], f"{name}.n_max")
    if not isinstance(sweep_blk["peak_refine"], bool):
        raise SpecError(f"config field sweep.peak_refine must be true or false, "
                        f"got {sweep_blk['peak_refine']!r}")
    n_list = lb_blk["n_list"]
    if not isinstance(n_list, list) or not n_list:
        raise SpecError(f"config field lowerbound.n_list must be a nonempty list of "
                        f"mode indices, got {n_list!r}")
    lb_blk["n_list"] = [_field_count(n, "lowerbound.n_list") for n in n_list]
    spectrum_blk["n_max"] = _field_count(spectrum_blk["n_max"], "spectrum.n_max")
    if limit_blk["m"] is not None:
        _share(_number(limit_blk["m"], "limit.m"), "config field limit.m, the mixture share,",
               SpecError)
    eps = [float(e) for e in _numbers(limit_blk["eps_list"], "limit.eps_list")]
    if not eps or any(e <= 0 for e in eps) or any(nxt >= prev for prev, nxt in zip(eps, eps[1:])):
        raise SpecError("config block limit.eps_list must be positive and decreasing")

    formats, out_dir = out_blk["formats"], out_blk["dir"]
    if not isinstance(formats, list) or not all(isinstance(f, str) for f in formats):
        raise SpecError(f"config field output.formats must be a list of strings, "
                        f"got {formats!r}")
    bad = set(formats) - {"csv", "svg"}
    if bad:
        raise SpecError(f"unknown output formats: {sorted(bad)}")
    if not isinstance(out_dir, str):
        raise SpecError(f"config field output.dir must be a string, got {out_dir!r}")
    out_dir = _output_dir(out_override or out_dir,
                          "--out" if out_override else "config field output.dir")

    # the history grid is the one computation here, made after every check
    return RunConfig(
        spec=spec, tolerance=tolerance,
        grid=modal.make_grid(modal._grid_kernel(spec), nodes)
        if scheme == "sgrid-upwind" else None,
        sweep=sweep_blk, lowerbound=lb_blk, decay=decay_blk,
        spectrum=spectrum_blk, limit=limit_blk, out_dir=out_dir,
        formats=tuple(formats), config_hash=cfg_hash)


def _header(cfg, command):
    return f"# beamstab {__version__} config={cfg.config_hash} command={command}"


def _write(out_dir, name, text):
    """Write one output file, creating its directory; SpecError where that fails."""
    path = out_dir / name
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise SpecError(f"cannot write {path}: {exc.strerror or exc}") from None
    return path


def _write_csv(cfg, command, name, columns, rows):
    if "csv" not in cfg.formats:
        return None
    lines = [_header(cfg, command), ",".join(columns)]
    lines += [",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row)
              for row in rows]
    return _write(cfg.out_dir, name, "\n".join(lines) + "\n")


def _write_json(cfg, command, name, payload):
    body = {"tool": f"beamstab {__version__}", "config_hash": cfg.config_hash,
            "command": command}
    body.update(payload)
    return _write(cfg.out_dir, name, json.dumps(body, indent=2, sort_keys=True) + "\n")


def _write_svg(cfg, name, *series, **style):
    """Render ``svg.line_chart(*series, **style)`` only if svg is listed."""
    if "svg" not in cfg.formats:
        return None
    return _write(cfg.out_dir, name, svg.line_chart(*series, **style))


def cmd_stability(cfg, args):
    rep = model.stability_numbers(cfg.spec, tol=cfg.tolerance)
    phydef, compatible = model.check_physical(cfg.spec.coeffs, rep)
    print(f"model {rep.model}: {rep.classification}")
    numbers = {name: getattr(rep, name) for name in model.NUMBER_NAMES
               if getattr(rep, name) is not None}
    for name, v in numbers.items():
        print(f"  {name} = {_fmt(v)}")
    print(f"  governing product: {' * '.join(rep.governing)}"
          f" (vanishing tolerance {_fmt(rep.tol)} relative)")
    print(f"  physical constraints: equal_wave_speeds={phydef[0]}"
          f" poisson_positive={phydef[1]} exponential_compatible={compatible}")
    payload = {
        "model": rep.model, "classification": rep.classification,
        "governing": list(rep.governing), "tolerance": rep.tol,
        "numbers": numbers,
        "phydef_ok": list(phydef), "exp_condition_compatible": compatible,
    }
    _write_json(cfg, "stability", "stability.json", payload)
    return 0


def cmd_sweep(cfg, args):
    blk = cfg.sweep
    lams = np.geomspace(blk["lambda_min"], blk["lambda_max"], blk["points"])
    samples = resolvent.sweep(
        cfg.spec, lams, blk["n_max"], grid=cfg.grid,
        peak_refine=blk["peak_refine"], threads=args.threads)
    rows = [(s.lam, s.value, s.argmax_n) for s in samples]
    _write_csv(cfg, "sweep", "sweep.csv", ("lambda", "value", "argmax_n"), rows)
    counts = ("modes_in_range", "modes_eigvals", "eigvals_computed", "norm_evals", "svds")
    work = {key: sum(s.work[key] for s in samples) for key in counts}
    work["pruning"] = samples[0].work["pruning"]
    payload = {"samples": len(samples),
               "max_value": max(s.value for s in samples),
               "min_value": min(s.value for s in samples),
               "work": work}
    try:
        fit = resolvent.fit_growth(samples)
        payload["fit"] = {"exponent": fit.exponent, "intercept": fit.intercept,
                          "residual": fit.residual, "count": fit.count}
        print(f"sweep: {len(samples)} samples, log-log exponent {fit.exponent:.3f}")
    except FitError:
        print(f"sweep: {len(samples)} samples (too few for a growth fit)")
    _write_json(cfg, "sweep", "sweep_fit.json", payload)
    _write_svg(cfg, "sweep.svg", [s.lam for s in samples], [[s.value for s in samples]],
               labels=["sup_n resolvent norm"], title="resolvent sweep",
               logx=True, logy=True)
    return 0


def cmd_lowerbound(cfg, args):
    seq = resolvent.lower_bound(cfg.spec, cfg.lowerbound["n_list"], tol=cfg.tolerance)
    rows = [(r.n, r.omega, r.lam, r.muhat.real, r.muhat.imag,
             r.det_m.real, r.det_m.imag, r.det_a.real, r.det_a.imag,
             r.amp, r.amp_cramer, r.ratio, seq.cstar,
             r.check.gap_m, r.check.gap_a, r.check.tol_hint) for r in seq.rows]
    _write_csv(cfg, "lowerbound", "lowerbound.csv",
               ("n", "omega", "lambda", "muhat_re", "muhat_im",
                "det_m_re", "det_m_im", "det_a_re", "det_a_im",
                "amp", "amp_cramer", "ratio", "cstar",
                "det_m_gap", "det_a_gap", "det_tol_hint"), rows)
    payload = {"c0": seq.c0, "beta0": seq.beta0, "cstar": seq.cstar,
               "forcing_norm": seq.forcing_norm, "notes": list(seq.notes)}
    _write_json(cfg, "lowerbound", "lowerbound.json", payload)
    print(f"lower bound: c0={_fmt(seq.c0)} beta0={_fmt(seq.beta0)} "
          f"cstar={_fmt(seq.cstar)}")
    for r in seq.rows:
        print(f"  n={r.n}: |A|/lambda = {r.ratio:.6f}")
    return 0


def cmd_decay(cfg, args):
    blk = cfg.decay
    ts = np.geomspace(blk["t_min"], blk["t_max"], blk["points"])
    work = {}
    stack = modal._layout(cfg.spec, cfg.grid)
    vals = dynamics.semiuniform_series(stack, ts, blk["n_max"], work=work)
    rep = model.stability_numbers(cfg.spec, tol=cfg.tolerance)
    fit = dynamics.decay_fit(
        ts, vals, "exponential" if rep.classification == model.EXPONENTIAL else "algebraic")
    _write_csv(cfg, "decay", "decay.csv", ("t", "value"), list(zip(ts, vals)))
    mode1 = stack.mode(1)
    u0 = np.zeros(mode1.dim, dtype=complex)
    u0[mode1.index("defl_t")] = 1.0
    traj = dynamics.propagate(mode1, u0, np.linspace(0.0, float(blk["t_max"]) ** 0.5, 64))
    _write_csv(cfg, "decay", "decay_energy.csv", ("t", "energy"),
               list(zip(traj.t, traj.energy)))
    payload = {"kind": fit.kind, "rate": fit.rate, "constant": fit.constant,
               "residual": fit.residual, "window": list(fit.window),
               "n_max": blk["n_max"], "work": work}
    _write_json(cfg, "decay", "decay_fit.json", payload)
    _write_svg(cfg, "decay.svg", ts, [vals], labels=["semiuniform norm"],
               title="smoothed-propagator decay", logx=(fit.kind == "algebraic"), logy=True)
    print(f"decay: kind={fit.kind} rate={fit.rate:.6f} residual={fit.residual:.3e} "
          f"(n_max={blk['n_max']})")
    return 0


def cmd_spectrum(cfg, args):
    n_max = cfg.spectrum["n_max"]
    sa = resolvent.spectral_abscissa(cfg.spec, n_max, grid=cfg.grid)
    _write_csv(cfg, "spectrum", "spectrum.csv", ("n", "abscissa"),
               list(zip(sa.ns.tolist(), sa.per_mode)))
    _write_json(cfg, "spectrum", "spectrum.json",
                {"global_max": sa.global_max, "argmax_n": sa.argmax_n,
                 "n_max": n_max})
    print(f"spectrum: global abscissa {sa.global_max:.6e} at n={sa.argmax_n} "
          f"(n_max={n_max})")
    return 0


def cmd_limit(cfg, args):
    rows = dynamics.singular_limit(cfg.spec, cfg.limit["eps_list"],
                                   m=cfg.limit.get("m"))
    out = []
    for r in rows:
        out.append((r.eps, r.chi_g, r.target_g, r.gap_g,
                    "" if r.chi_h is None else _fmt(r.chi_h),
                    "" if r.target_h is None else _fmt(r.target_h),
                    "" if r.gap_h is None else _fmt(r.gap_h)))
    _write_csv(cfg, "limit", "limit.csv",
               ("eps", "chi_g_eps", "target_g", "gap_g",
                "chi_h_eps", "target_h", "gap_h"), out)
    last = rows[-1]   # eps_list decreases: the row nearest the limit
    _write_json(cfg, "limit", "limit.json",
                {"eps": last.eps, "target_g": last.target_g, "gap_g": last.gap_g,
                 "target_h": last.target_h, "gap_h": last.gap_h})
    print("singular limit:")
    for r in rows:
        print(f"  eps={r.eps:g}: chi_g={r.chi_g:.6f} (target {r.target_g:.6f})")
    return 0


def _battery(cfg, stack):
    """The invariant battery behind ``check``: yields (name, ok, detail)."""
    spec = cfg.spec
    if spec.model in model.MEMORY_MODELS:
        for kname, kern in (("kernel_g", spec.kernel_g), ("kernel_h", spec.kernel_h)):
            if kern is None:
                continue
            rep = kernels.check_admissibility(kern)
            for c in rep.checks:
                yield (f"admissibility.{kname}.{c.name}", c.passed,
                       f"margin={c.margin:.3e}")
        defects = [kernels.rl_defect(spec.kernel_g, 10.0 ** p) for p in range(1, 5)]
        ok = all(x > y for x, y in zip(defects, defects[1:]))
        yield ("riemann_lebesgue_decay", ok,
               " ".join(f"{d:.3e}" for d in defects))

    viol = model.mode_condition(spec.coeffs, 100)
    yield ("mode_condition_n_le_100", not viol, f"violations={viol}")

    # exact over every state of each mode: in the energy coordinates W = I,
    # so sup Re<Gu,u>_W/|u|_W^2 is the top eigenvalue of sym(Gh_n), and
    # ||exp(tG)||_W is the 2-norm of exp(t Gh_n)
    ns = (1, 2, 4, 8, 16)
    Gh = modal._generators(stack, ns)
    sup = np.linalg.eigvalsh(Gh + Gh.transpose(0, 2, 1))[:, -1].max() / 2
    yield ("dissipativity", sup <= 1e-10, f"sup Re<Gu,u>/|u|^2 = {sup:.3e}")
    gap = modal._identity_gap(stack, ns)
    if gap is not None:
        yield ("dissipation_identity", gap.max() <= 1e-8,
               f"max ||X + (varpi/2) Gamma||_2/||X||_2 = {gap.max():.3e}")
    *_, U = dynamics._propagator(Gh)
    contraction = max(float(np.linalg.svd(U(k, t), compute_uv=False)[0])
                      for k in range(len(ns)) for t in (0.5, 5.0, 50.0))
    yield ("contraction", contraction <= 1.0 + 1e-10,
           f"max ||exp(tG)||_W = {contraction:.12f}")

    try:
        twin = dynamics.mc_twin(spec)  # one-term exponential memory kernels only
    except UnsupportedMapError:
        twin = None
    if twin is not None:
        # the flux map acts on the prony realization, with or without a grid
        memory = stack if cfg.grid is None else modal._layout(spec, None)
        flux = modal._layout(twin, None)
        ts = np.linspace(0.0, 10.0, 11)
        err = 0.0
        for n in (1, 2, 4):
            mg, mm = memory.mode(n), flux.mode(n)
            # the map's matrix: its images of the basis states are its columns
            L = dynamics.lambda_map(dynamics.ModalState(n, np.eye(mg.dim)), memory).vec.T
            *_, U = dynamics._propagator(np.stack([mg.generator, mm.generator]))
            A = np.stack([L @ U(0, t) - U(1, t) @ L for t in ts])
            # ||A||_{W_m -> W_f}^2 is the top eigenvalue of the pencil (A* W_f A, W_m)
            B = np.conj(np.swapaxes(A, 1, 2)) @ mm.weight @ A
            top = np.max(np.linalg.eigvals(np.linalg.solve(mg.weight, B)).real)
            err = max(err, float(np.sqrt(max(top, 0.0))))
        yield ("flux_map_commutation", err <= 1e-8,
               f"max ||Lambda exp(tG_m) - exp(tG_f) Lambda||_W = {err:.3e}")


def cmd_check(cfg, args):
    stack = modal._layout(cfg.spec, cfg.grid)
    results = list(_battery(cfg, stack))
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    payload = {"status": "pass" if all(ok for _, ok, _ in results) else "fail",
               "checks": [{"name": n, "ok": bool(ok), "detail": d}
                          for n, ok, d in results]}
    _write_json(cfg, "check", "check.json", payload)
    if args.dump_modes:
        for n in (1, 2):
            _write(Path(args.dump_modes), f"mode_{n}.txt", modal.matrix_text(stack.mode(n)))
    return 0


COMMANDS = {
    "stability": cmd_stability,
    "sweep": cmd_sweep,
    "lowerbound": cmd_lowerbound,
    "decay": cmd_decay,
    "spectrum": cmd_spectrum,
    "limit": cmd_limit,
    "check": cmd_check,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="beamstab",
        description="Stability laboratory for thermoelastic beam systems.")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=True, help="JSON run configuration")
    parser.add_argument("--out", default=None, help="output directory override")
    parser.add_argument("--threads", type=int, default=None,
                        help="cap on worker threads for sweeps")
    parser.add_argument("--dump-modes", default=None, metavar="DIR",
                        help="(check) dump mode matrices as text")
    args = parser.parse_args(argv)
    if args.threads is not None and args.threads < 1:
        print("error: --threads must be >= 1", file=sys.stderr)
        return 2
    try:
        cfg = load_config(args.config, out_override=args.out)
        if args.dump_modes:
            _output_dir(args.dump_modes, "--dump-modes")
        return COMMANDS[args.command](cfg, args)
    except NUMERIC_ERRORS as exc:
        ctx = ""
        if isinstance(exc, SpectralPointError):
            ctx = f" (lambda={exc.lam}, n={exc.n})"
        print(f"numeric error: {exc}{ctx}", file=sys.stderr)
        return 3
    except BeamstabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
