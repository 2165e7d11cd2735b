"""The one count rule, ``kernels._count``, at every entry point that takes a
mode index, a mode count, a history-node count or a grid-point count, in
the library and in the CLI config, and the range [0, 1) of the stability
tolerance.

A count is an int, or a float of integral value such as 16.0, never a bool,
in [least, most]; the library raises DomainError and the CLI exits 2.
"""

import json

import numpy as np
import pytest

import beamstab as bs
from beamstab import cli, modal
from test_cli import REF1_BASE

MAX_MODES = 2 ** 20
REFUSED = None

# (value, the count it stands for, or REFUSED); "cap+1" is one above the
# entry's own cap
COUNT_VALUES = {
    "2.5": (2.5, REFUSED),
    "bool": (True, REFUSED),
    "zero": (0, REFUSED),
    "float": (16.0, 16),
    "numpy-int": (np.int64(16), 16),
    "cap+1": (None, REFUSED),
}
TOL_VALUES = {
    "negative": (-1.0, REFUSED),
    "nan": (float("nan"), REFUSED),
    "one": (1.0, REFUSED),
    "above-one": (2.0, REFUSED),
    "zero": (0.0, 0.0),
}


def _sample_rows(samples):
    return [(s.lam, s.value, s.argmax_n) for s in samples]


def _abscissa(a):
    return a.ns.tolist(), a.per_mode.tobytes(), a.global_max, a.argmax_n


# library entry points: name -> (call(spec, value), cap); every result is
# compared through repr, so 16 and 16.0 would differ
LIBRARY = {
    "omega": (lambda s, n: bs.omega(s.coeffs.ell, n), MAX_MODES),
    "assemble": (lambda s, n: (lambda m: (m.n, m.omega, m.generator.tobytes(),
                                          m.weight.tobytes()))(bs.assemble(s, n)),
                 MAX_MODES),
    "weight_matrix": (lambda s, n: bs.weight_matrix(s, n).tobytes(), MAX_MODES),
    "lower_bound": (lambda s, n: bs.lower_bound(s, [n]).rows, MAX_MODES),
    "det_check": (lambda s, n: bs.det_check(s, n), MAX_MODES),
    "mn_matrix": (lambda s, n: bs.mn_matrix(s, n, 3.0).tobytes(), MAX_MODES),
    "lambda_map": (lambda s, n: bs.lambda_map(
        bs.ModalState(n, np.ones(10, dtype=complex)), s).vec.tobytes(), MAX_MODES),
    "mode_condition": (lambda s, n: bs.mode_condition(s.coeffs, n), MAX_MODES),
    "make_grid": (lambda s, n: (lambda g: (g.s.tobytes(), g.s_max))(
        bs.make_grid(s.kernel_g, n)), MAX_MODES),
    "sweep": (lambda s, n: _sample_rows(bs.sweep(s, [10.0], n)), MAX_MODES),
    "spectral_abscissa": (lambda s, n: _abscissa(bs.spectral_abscissa(s, n)), MAX_MODES),
    "semiuniform_series": (lambda s, n: bs.semiuniform_series(s, [1.0], n).tobytes(),
                           MAX_MODES),
}
LIBRARY_TOL = {
    "stability_numbers": lambda s, tol: bs.stability_numbers(s, tol=tol).classification,
    "classify": lambda s, tol: bs.classify(bs.stability_numbers(s), s.model, tol),
}

# CLI count fields: name -> (command, block, key, cap)
CLI = {
    "sweep.n_max": ("sweep", "sweep", "n_max", MAX_MODES),
    "sweep.points": ("sweep", "sweep", "points", 10_000),
    "decay.n_max": ("decay", "decay", "n_max", MAX_MODES),
    "decay.points": ("decay", "decay", "points", 10_000),
    "spectrum.n_max": ("spectrum", "spectrum", "n_max", MAX_MODES),
    "memory.nodes": ("spectrum", "memory", "nodes", 508),   # d = 8 + 2M <= 1024
    "lowerbound.n_list": ("lowerbound", "lowerbound", "n_list", MAX_MODES),
}
SMALL = {"sweep": {"lambda_min": 5, "lambda_max": 50, "points": 4, "n_max": 8},
         "decay": {"t_min": 1, "t_max": 50, "points": 8, "n_max": 8},
         "spectrum": {"n_max": 8},
         "lowerbound": {"n_list": [16]}}

CASES = ([("library", e, v) for e in LIBRARY for v in COUNT_VALUES]
         + [("library-tol", e, v) for e in LIBRARY_TOL for v in TOL_VALUES]
         + [("cli", f, v) for f in CLI for v in COUNT_VALUES]
         + [("cli", "tolerance", v) for v in TOL_VALUES])


def _config(tmp_path, name, field, value, memory=None):
    """The config of ``SMALL`` and the ``memory`` block (for memory.nodes,
    an upwind history grid's by default) with ``field`` set to ``value``,
    written to ``name``.json and reading and writing ``tmp_path/out``."""
    if memory is None and field == "memory.nodes":
        memory = {"scheme": "sgrid-upwind", "nodes": 8}
    cfg = dict(REF1_BASE, **json.loads(json.dumps(SMALL)), memory=memory or {},
               output={"dir": str(tmp_path / "out")})
    if field == "tolerance":
        cfg["tolerance"] = value
    else:
        _, block, key, _ = CLI[field]
        cfg[block][key] = [value] if key == "n_list" else value
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg, default=int))   # np.int64(16) is written 16
    return path


@pytest.fixture
def no_work(monkeypatch):
    """Grid building and mode assembly fail if a refused request reaches them."""
    def unreachable(*args, **kwargs):
        raise AssertionError("a refused count reached the computation")

    for name in ("make_grid", "_generators", "_mode_arrays"):
        monkeypatch.setattr(modal, name, unreachable)


@pytest.mark.parametrize("kind, target, value_id", CASES,
                         ids=[f"{k}-{t}-{v}" for k, t, v in CASES])
def test_one_count_rule(request, ref1, refexp, tmp_path, capsys, kind, target, value_id):
    values = TOL_VALUES if kind == "library-tol" or target == "tolerance" else COUNT_VALUES
    value, meant = values[value_id]
    if value_id == "cap+1":
        value = (LIBRARY[target] if kind == "library" else CLI[target])[-1] + 1
    if kind.startswith("library"):
        call = LIBRARY[target][0] if kind == "library" else LIBRARY_TOL[target]
        spec = ref1["BGP"] if kind == "library" else refexp
        if meant is REFUSED:
            with pytest.raises(bs.DomainError):
                call(spec, value)
        else:
            assert repr(call(spec, value)) == repr(call(spec, meant))
        return
    if meant is REFUSED:   # exit 2 with one error line naming the field, before any work
        request.getfixturevalue("no_work")
        path = _config(tmp_path, "cfg", target, value)
        command = "stability" if target == "tolerance" else CLI[target][0]
        assert cli.main([command, "--config", str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and target in err[0]
        assert not (tmp_path / "out").exists()
        return
    got = cli.load_config(_config(tmp_path, "cfg", target, value))
    want = cli.load_config(_config(tmp_path, "want", target, meant))
    if target == "tolerance":
        assert repr(got.tolerance) == repr(want.tolerance)
    elif target == "memory.nodes":
        assert got.grid.s.tobytes() == want.grid.s.tobytes()
    else:   # the commands read these blocks only, so they write the same bytes
        block = CLI[target][1]
        assert repr(getattr(got, block)) == repr(getattr(want, block))


def test_mode_index_arrays_need_an_integer_dtype(ref1):
    # the hot path checks a whole array at once: its dtype and its extremes
    stack = modal._layout(ref1["BGP"], None)
    for ns in ([1.0, 2.0], [True], [0, 1], [1, MAX_MODES + 1]):
        with pytest.raises(bs.DomainError):
            modal._mode_arrays(stack, np.array(ns))
    assert modal._generators(stack, np.array([1, 2], dtype=np.int32)).shape == (2, 10, 10)


@pytest.mark.parametrize("field, value, memory", [
    ("memory.nodes", 8.5, {"nodes": 16}),
    ("sweep.points", 0, {"scheme": "sgrid-upwind", "nodes": 8}),
], ids=["unused-nodes", "before-the-grid"])
def test_every_count_is_checked_before_any_work(tmp_path, capsys, no_work, field, value,
                                                memory):
    # prony kernels build no history grid, yet memory.nodes passes the rule;
    # an upwind grid is built only after every field has passed
    path = _config(tmp_path, "cfg", field, value, memory)
    assert cli.main(["stability", "--config", str(path)]) == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
