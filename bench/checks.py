"""Output checks: each decides from a command's output files whether it succeeded.

Tolerances follow the acceptance suite (criteria 4, 5, 6, 7 and 9).  A check
is named in a workload step as ``[kind, *args]``; ``run_check`` returns
``(ok, detail)`` and never raises, so a missing or malformed output counts as
a failed command rather than a crash.
"""

import csv
import json


def _json(path):
    return json.loads(path.read_text(encoding="utf-8"))


def _csv_rows(path):
    """Data rows of a CLI CSV file (the first line is the provenance header)."""
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or not lines[0].startswith("# beamstab "):
        raise ValueError(f"{path.name} lacks the provenance header")
    return list(csv.DictReader(lines[1:]))


def sweep_exponent(out, outs, target, tol):
    exponent = _json(out / "sweep_fit.json")["fit"]["exponent"]
    return abs(exponent - target) <= tol, f"growth exponent {exponent:.4f} ({target} +- {tol})"


def decay_slope(out, outs, target, tol):
    fit = _json(out / "decay_fit.json")
    ok = fit["kind"] == "algebraic" and abs(fit["rate"] - target) <= tol
    return ok, f"{fit['kind']} slope {fit['rate']:.4f} ({target} +- {tol})"


def decay_doubling(out, outs, other, tol):
    rate = _json(out / "decay_fit.json")["rate"]
    base = _json(outs[other] / "decay_fit.json")["rate"]
    gap = abs(rate - base)
    return gap < tol, f"slope change under n_max doubling {gap:.2e} (< {tol})"


def decay_rate_vs_abscissa(out, outs, spectrum_step, rel):
    fit = _json(out / "decay_fit.json")
    delta = -_json(outs[spectrum_step] / "spectrum.json")["global_max"]
    ok = (fit["kind"] == "exponential" and delta > 0
          and abs(fit["rate"] - delta) <= rel * delta)
    return ok, f"exponential rate {fit['rate']:.5f} vs abscissa {delta:.5f} (within {rel:.0%})"


def abscissa_negative(out, outs):
    spec = _json(out / "spectrum.json")
    rows = _csv_rows(out / "spectrum.csv")
    ok = spec["global_max"] < 0 and len(rows) == spec["n_max"]
    return ok, f"global abscissa {spec['global_max']:.3e} over {len(rows)} modes"


def lowerbound(out, outs, constants):
    """Exact constants (when given), last ratio -> cstar, determinant gaps."""
    payload = _json(out / "lowerbound.json")
    rows = _csv_rows(out / "lowerbound.csv")
    bad = []
    for name, want in (constants or {}).items():
        if abs(payload[name] - want) > 1e-12 * max(1.0, abs(want)):
            bad.append(f"{name}={payload[name]!r} != {want}")
    last = float(rows[-1]["ratio"])
    if abs(last - payload["cstar"]) > 1e-3:
        bad.append(f"last ratio {last:.6f} not within 1e-3 of cstar")
    for r in rows:
        hint = float(r["det_tol_hint"])
        if not (float(r["det_m_gap"]) < hint and float(r["det_a_gap"]) < hint):
            bad.append(f"determinant gaps at n={r['n']} exceed {hint:.2e}")
    detail = "; ".join(bad) or (f"cstar={payload['cstar']:.6f}, last ratio {last:.6f}, "
                               f"{len(rows)} determinant gaps within tol_hint")
    return not bad, detail


def check_pass(out, outs):
    status = _json(out / "check.json")["status"]
    return status == "pass", f"check.json status {status!r}"


def classification(out, outs, expected):
    got = _json(out / "stability.json")["classification"]
    return got == expected, f"classification {got} (expected {expected})"


def limit_gaps_decrease(out, outs):
    gaps = [float(r["gap_g"]) for r in _csv_rows(out / "limit.csv")]
    ok = len(gaps) >= 2 and all(b < a for a, b in zip(gaps, gaps[1:]))
    return ok, "chi_g gaps " + " > ".join(f"{g:.1e}" for g in gaps)


CHECKS = {f.__name__: f for f in (
    sweep_exponent, decay_slope, decay_doubling, decay_rate_vs_abscissa,
    abscissa_negative, lowerbound, check_pass, classification,
    limit_gaps_decrease)}


def run_check(spec, out, outs):
    """Apply one ``[kind, *args]`` check to a step's output directory."""
    kind, *args = spec
    try:
        return CHECKS[kind](out, outs, *args)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return False, f"{kind}: unreadable output ({type(exc).__name__}: {exc})"


def differing_files(a, b):
    """Names of files that differ between two output directories (both ways)."""
    names = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    names |= {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    return sorted(str(n) for n in names
                  if not ((a / n).is_file() and (b / n).is_file()
                          and (a / n).read_bytes() == (b / n).read_bytes()))
