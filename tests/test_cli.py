import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from beamstab import cli, dynamics, model, resolvent
from conftest import reference_mode_arrays

GOLDEN = Path(__file__).parent / "data" / "golden_sweep"
GOLDEN_DECAY = Path(__file__).parent / "data" / "golden_decay"
GOLDEN_CLI = Path(__file__).parent / "data" / "golden_cli"
GOLDEN_NAMES = ("bgp_prony", "bmc", "tgp_tabulated", "tf", "bf")
# the golden sweep configs' commands that exit 2: singular limits need a
# memory kernel, and the lower bound a heat kernel (the relaxed flux has its
# exponential ones)
REFUSED = {("bmc", "limit"), ("tf", "limit"), ("bf", "limit"),
           ("tf", "lowerbound"), ("bf", "lowerbound")}

REF1_BASE = {
    "model": "BGP",
    "coefficients": {"rho1": 1, "rho2": 1, "rho3": 1, "k": 1, "k0": 2, "b": 2,
                     "varpi": 1, "gamma": 1, "l": 0.5,
                     "ell": 3.141592653589793},
    "kernel_g": {"type": "prony", "terms": [[1.0, 1.0]]},
    "kernel_h": {"type": "prony", "terms": [[1.0, 1.0]]},
}


def write_config(tmp_path, name="cfg.json", **extra):
    cfg = dict(REF1_BASE)
    cfg.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


class TestConfigErrors:
    def test_missing_kernel_h(self, tmp_path, capsys):
        cfg = dict(REF1_BASE)
        del cfg["kernel_h"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        rc = cli.main(["stability", "--config", str(path)])
        assert rc == 2
        assert "kernel_h" in capsys.readouterr().err

    def test_missing_coefficient(self, tmp_path, capsys):
        cfg = dict(REF1_BASE)
        cfg["coefficients"] = {k: v for k, v in cfg["coefficients"].items()
                               if k != "rho2"}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        rc = cli.main(["stability", "--config", str(path)])
        assert rc == 2
        assert "rho2" in capsys.readouterr().err

    def test_unknown_model(self, tmp_path, capsys):
        path = write_config(tmp_path, model="QQQ")
        assert cli.main(["stability", "--config", str(path)]) == 2

    @pytest.mark.parametrize("make, message", [
        (lambda path: None, "config file not found"),
        (lambda path: path.mkdir(), "cannot be read: Is a directory"),
        (lambda path: path.write_bytes(b"\xff\xfe{}"), "is not valid JSON: 'utf-8' codec"),
    ], ids=["missing", "directory", "not-utf8"])
    def test_missing_file(self, tmp_path, capsys, make, message):
        path = tmp_path / "cfg.json"
        make(path)
        out = tmp_path / "out"
        assert cli.main(["stability", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]
        assert not out.exists()

    def test_bad_sweep_block(self, tmp_path, capsys):
        path = write_config(tmp_path,
                            sweep={"lambda_min": 10, "lambda_max": 5, "points": 4})
        assert cli.main(["sweep", "--config", str(path)]) == 2

    @pytest.mark.parametrize("extra, message", [
        ({"model": "BMC", "coefficients": dict(REF1_BASE["coefficients"],
                                               sigma=1.5, tau=0.7),
          "memory": {"scheme": "sgrid-upwind"}}, "memory-law models"),
        ({"memory": {"scheme": "upwind"}}, "unknown memory.scheme"),
        ({"memory": {"scheme": "sgrid-upwind", "nodes": "abc"}}, "memory.nodes"),
        ({"sweep": {"points": "x"}}, "sweep.points"),
        ({"sweep": {"points": 10**400}}, "sweep.points"),
        ({"sweep": {"lambda_min": "1"}}, "sweep.lambda_min"),
        ({"decay": {"t_min": 0}}, "decay needs 0 < t_min < t_max"),
        ({"lowerbound": {"n_list": ["a"]}}, "lowerbound.n_list"),
        ({"limit": {"eps_list": "abc"}}, "limit.eps_list"),
        ({"output": []}, "block output must be an object"),
        ({"output": {"formats": [["csv"]]}}, "output.formats"),
        ({"coefficients": 5}, "coefficients must be an object"),
        (5, "config must be an object"),
        ({"kernel_g": {"type": "prony", "terms": 5}}, "kernel.terms"),
        ({"kernel_g": {"type": "prony", "terms": [[1.0]]}}, "kernel.terms"),
        ({"kernel_g": {"type": "prony", "terms": [["a", 1.0]]}}, "kernel.terms"),
        ({"kernel_g": {"type": "prony", "terms": [[1.0, 1.0]], "delta": "x"}},
         "kernel.delta"),
        ({"kernel_h": {"type": "exponential", "varpi": "a", "sigma": 1}},
         "kernel.varpi"),
        ({"kernal_h": REF1_BASE["kernel_h"]}, "config has unknown field 'kernal_h'"),
        ({"decay": {"n_maxx": 2048}}, "config block decay has unknown field 'n_maxx'"),
        ({"coefficients": dict(REF1_BASE["coefficients"], rho4=1)},
         "config field coefficients has unknown field 'rho4'"),
        ({"kernel_g": {"type": "prony", "terms": [[1.0, 1.0]], "thetas": [1.0]}},
         "kernel_g: kernel config has unknown field 'thetas'"),
        ({"kernel_h": {"type": "exponential", "varpi": 1, "sigma": 1, "sigm": 1}},
         "kernel_h: kernel config has unknown field 'sigm'"),
        ({"model": "TGP", "kernel_h": {"type": "exponential", "varpi": 1}},
         "kernel_h: kernel config is missing required field 'sigma'"),
        # the history grid is always geometric and the decay fit follows the
        # classification: neither field exists, whatever its value
        ({"memory": {"policy": "geometric"}}, "config block memory has unknown field 'policy'"),
        ({"decay": {"kind": "auto"}}, "config block decay has unknown field 'kind'"),
    ], ids=["bmc-scheme", "unknown-scheme", "nodes", "points", "points-overflow",
            "lambda-min", "t-min-zero", "n-list", "eps-list", "output-list",
            "formats-nested", "coefficients-number", "top-level-number",
            "terms-number", "terms-short", "terms-string", "prony-delta",
            "exponential-varpi", "top-level-field", "block-field", "coefficient-field",
            "kernel-field", "kernel-h-field", "unused-kernel-field", "policy",
            "decay-kind"])
    def test_malformed_field_exits_2(self, tmp_path, capsys, extra, message):
        if isinstance(extra, dict):
            path = write_config(tmp_path, **extra)
        else:  # the whole config
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(extra))
        assert cli.main(["stability", "--config", str(path)]) == 2
        assert message in capsys.readouterr().err

    @pytest.fixture
    def no_work(self, monkeypatch):
        """Grid building and mode assembly fail if a request reaches them."""
        from beamstab import modal

        def unreachable(*args, **kwargs):
            raise AssertionError("a capped request reached the computation")

        monkeypatch.setattr(modal, "make_grid", unreachable)
        monkeypatch.setattr(modal, "_generators", unreachable)
        monkeypatch.setattr(modal, "_mode_arrays", unreachable)

    @pytest.mark.parametrize("extra, message", [
        ({"memory": {"scheme": "sgrid-upwind", "nodes": 10**6}}, "memory.nodes"),
        ({"sweep": {"points": 10**9}}, "sweep.points"),
        ({"decay": {"points": 10**9}}, "decay.points"),
    ], ids=["nodes", "sweep-points", "decay-points"])
    def test_capped_request_exits_2(self, tmp_path, capsys, no_work, extra, message):
        # every command validates the whole config; ``stability`` builds no
        # lambda or time grid, so an uncapped run allocates nothing either
        path = write_config(tmp_path, output={"dir": str(tmp_path / "out")}, **extra)
        assert cli.main(["stability", "--config", str(path)]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, extra, message", [
        ("spectrum", {"spectrum": {"n_max": 2**20 + 1}}, "spectrum.n_max"),
        ("decay", {"decay": {"n_max": 10**10}}, "decay.n_max"),
    ], ids=["spectrum", "decay"])
    def test_mode_request_is_capped(self, tmp_path, capsys, monkeypatch, no_work,
                                    command, extra, message):
        from beamstab import dynamics

        def unreachable(*args, **kwargs):
            raise AssertionError("a capped mode request reached the computation")

        monkeypatch.setattr(resolvent, "spectral_abscissa", unreachable)
        monkeypatch.setattr(dynamics, "semiuniform_series", unreachable)
        path = write_config(tmp_path, output={"dir": str(tmp_path / "out")}, **extra)
        assert cli.main([command, "--config", str(path)]) == 2
        assert f"{message} = {extra[command]['n_max']} is above the cap" in (
            capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, extra, message", [
        ("stability", {"limit": {"m": 5}}, "limit.m, the mixture share, must lie in (0, 1)"),
        ("limit", {"limit": {"m": 0}}, "limit.m, the mixture share, must lie in (0, 1)"),
        ("sweep", {"limit": {"m": "x"}}, "limit.m must be a number"),
        ("stability", {"decay": {"points": 5}}, "decay.points must be an integer >= 8"),
        ("spectrum", {"sweep": {"peak_refine": "false"}},
         "sweep.peak_refine must be true or false, got 'false'"),
    ], ids=["share", "share-zero", "share-string", "decay-points", "peak-refine-string"])
    def test_unread_field_is_checked(self, tmp_path, capsys, command, extra, message):
        # every command checks the fields only another command reads
        path = write_config(tmp_path, output={"dir": str(tmp_path / "out")}, **extra)
        assert cli.main([command, "--config", str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]
        assert not (tmp_path / "out").exists()

    def test_sweep_mode_cache_is_capped(self, tmp_path, capsys, no_work):
        # N_max = 4e6 modes at d = 10 span 4e8 generator entries, above the
        # cap of 2^26 that bounds a sweep's work (it forms them a chunk at a time)
        path = write_config(tmp_path, output={"dir": str(tmp_path / "out")},
                            sweep={"lambda_min": 10, "lambda_max": 1e6, "points": 8,
                                   "n_max": 16})
        assert cli.main(["sweep", "--config", str(path)]) == 2
        assert "lambda_max=1e+06 or n_max=16" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("tag, largest", [("BGP", 508), ("TGP", 1019)])
    def test_node_cap_follows_the_layout(self, tmp_path, monkeypatch, tag, largest):
        from beamstab import modal
        # the rule load_config applies: d = 8 + 2M curved, 5 + M straight
        for nodes in (8, 12):
            cfg = cli.load_config(write_config(
                tmp_path, model=tag, memory={"scheme": "sgrid-upwind", "nodes": nodes}))
            d = modal._layout(cfg.spec, cfg.grid).dim
            assert d == (8 + 2 * nodes if tag == "BGP" else 5 + nodes)
        built = []
        monkeypatch.setattr(modal, "make_grid", lambda kernel, M: built.append(M))
        # a prony-reduction config builds no grid, and its node cap is the
        # upwind layout's all the same
        for scheme in ("sgrid-upwind", None):
            for nodes in (largest, largest + 1):
                path = write_config(tmp_path, model=tag,
                                    memory={"scheme": scheme, "nodes": nodes})
                if nodes == largest:
                    cli.load_config(path)
                else:
                    with pytest.raises(cli.SpecError, match="memory.nodes"):
                        cli.load_config(path)
        assert built == [largest]

    def test_block_defaults_are_not_shared(self, tmp_path):
        path = write_config(tmp_path)
        cli.load_config(path).limit["eps_list"].append(5.0)
        assert cli.load_config(path).limit["eps_list"] == [0.1, 0.01, 0.001, 0.0001]

    def test_no_partial_output_on_config_error(self, tmp_path):
        out = tmp_path / "never"
        path = write_config(tmp_path, output={"dir": str(out)},
                            limit={"eps_list": [0.1, 0.2]})
        assert cli.main(["limit", "--config", str(path)]) == 2
        assert not out.exists()


@pytest.mark.parametrize("case", ["out-file", "out-below-file", "output-dir-file",
                                  "dump-modes-below-file"])
def test_output_path_below_a_file_is_refused(tmp_path, monkeypatch, capsys, case):
    # exit 2 with one error line naming the path, before any work, creating nothing
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    target = blocker / "sub" if case.endswith("below-file") else blocker
    out = tmp_path / "out"
    path = write_config(tmp_path, output={"dir": str(target if case == "output-dir-file" else out)})
    argv = ["check", "--config", str(path)]
    if case.startswith("out-"):
        argv += ["--out", str(target)]
    elif case.startswith("dump-modes"):
        argv += ["--dump-modes", str(target)]

    def unreachable(*args, **kwargs):
        raise AssertionError("the command ran before its output path was checked")

    monkeypatch.setattr(cli.modal, "_layout", unreachable)
    assert cli.main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(target) in err[0]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker", "cfg.json"]
    assert blocker.read_text() == ""


def test_failed_write_exits_2(tmp_path, capsys):
    # a directory where the summary goes: the write fails after the work
    path = write_config(tmp_path, output={"dir": str(tmp_path / "out")})
    (tmp_path / "out" / "stability.json").mkdir(parents=True)
    assert cli.main(["stability", "--config", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: cannot write ")
    assert str(tmp_path / "out" / "stability.json") in err[0]


def _golden_config(tmp_path, name="cfg.json", base="bgp_prony", **extra):
    """A golden sweep config with ``extra`` fields, writing to tmp_path/out."""
    cfg = json.loads((GOLDEN / base / "config.json").read_text())
    cfg.update(extra, output={"dir": str(tmp_path / "out")})
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


TABULATED = json.loads((GOLDEN / "tgp_tabulated" / "config.json").read_text())["kernel_g"]
PRONY_TWO = json.loads((GOLDEN / "bgp_prony" / "config.json").read_text())["kernel_g"]


class TestLayoutRules:
    """The library decides the scheme, the grid's kernel and the states of
    a mode; a config gets the same answers."""

    def assert_refused(self, tmp_path, capsys, path, message):
        assert cli.main(["spectrum", "--config", str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]
        assert not (tmp_path / "out").exists()

    def test_prony_reduction_refuses_a_tabulated_kernel(self, tmp_path, capsys):
        path = _golden_config(tmp_path, base="tgp_tabulated",
                              memory={"scheme": "prony-reduction", "nodes": 16})
        self.assert_refused(tmp_path, capsys, path, "'prony-reduction' needs prony kernels")

    def test_tabulated_kernel_h_takes_the_upwind_grid(self, tmp_path, capsys):
        bodies = []
        for scheme in (None, "sgrid-upwind"):
            out = tmp_path / f"out_{scheme}"
            path = _golden_config(tmp_path, kernel_h=TABULATED,
                                  memory={"scheme": scheme, "nodes": 16})
            assert cli.main(["spectrum", "--config", str(path), "--out", str(out)]) == 0
            # the first line holds the config's hash
            bodies.append((out / "spectrum.csv").read_text().split("\n", 1)[1])
        assert bodies[0] == bodies[1]
        assert not capsys.readouterr().err

    def test_grid_comes_from_the_slower_kernel(self, tmp_path, capsys):
        # the prony kernel_h (delta 1/3) decays slower than the table (delta 1)
        path = _golden_config(tmp_path, kernel_g=TABULATED, kernel_h=PRONY_TWO,
                              memory={"nodes": 16})
        cfg = cli.load_config(path)
        assert cfg.spec.kernel_h.delta < cfg.spec.kernel_g.delta
        assert cfg.grid.s_max == cli.modal.make_grid(cfg.spec.kernel_h, 16).s_max
        assert cli.main(["spectrum", "--config", str(path)]) == 0
        assert not capsys.readouterr().err

    def test_cells_past_a_kernels_support_carry_no_energy(self, tmp_path):
        # on 48 nodes from the slower prony kernel_g, the table's last cells
        # hold no mass: the transport entry sqrt(m_i/m_{i-1}) past such a
        # cell is 0, not 0/0, and the state coordinates keep only the cell's
        # own rate, with the spectrum of the assembly that still feeds it
        path = _golden_config(tmp_path, kernel_h=TABULATED, memory={"nodes": 48},
                              decay={"n_max": 16}, spectrum={"n_max": 16})
        cfg = cli.load_config(path)
        stack = cli.modal._layout(cfg.spec, cfg.grid)
        assert np.sum(stack.blocks[1].node_mass == 0) >= 2
        assert np.all(np.isfinite(stack.K[0]))
        ns = np.arange(1, 17)
        want = np.linalg.eigvals(reference_mode_arrays(stack, ns)[0]).real.max(axis=1)
        got = resolvent.spectral_abscissa(cfg.spec, 16, grid=cfg.grid).per_mode
        assert got == pytest.approx(want, rel=1e-8, abs=0)
        for command in ("spectrum", "decay", "check"):
            assert cli.main([command, "--config", str(path)]) == 0
        check = json.loads((tmp_path / "out" / "check.json").read_text())
        assert check["status"] == "pass"

    def test_prony_terms_count_like_nodes(self, tmp_path, capsys, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("a capped layout reached the computation")

        monkeypatch.setattr(cli.modal, "_mode_arrays", unreachable)
        monkeypatch.setattr(cli.modal, "_coupling", unreachable)
        # 1,100 terms of one unit-mass kernel: 6 beam states, 2 temperatures
        # and 1,100 + 1 prony states (kernel_h has one term)
        path = _golden_config(tmp_path, kernel_g={"type": "prony",
                                                  "terms": [[1.0 / 1100, 1.0]] * 1100})
        self.assert_refused(tmp_path, capsys, path, "= 1109 is above the cap of 1024")


def _singular_mode_9(monkeypatch):
    """Zero the generator of mode 9, so that 0 is in its spectrum."""
    from beamstab import modal
    generators = modal._generators

    def patched(stack, ns):
        G = generators(stack, ns)
        G[np.asarray(ns) == 9] = 0.0
        return G

    monkeypatch.setattr(modal, "_generators", patched)


# the faster kernel_h has cell masses down to 5e-18 on the grid of kernel_g:
# W is positive definite but spans 18 decades
UPWIND_16 = {"memory": {"scheme": "sgrid-upwind", "nodes": 16}}
SMALL_DECAY = {"decay": {"t_min": 1, "t_max": 50, "points": 8, "n_max": 16}}


@pytest.mark.parametrize("base, extra, argv, patch, rc, message", [
    ("ref1", {"decay": {"points": 5}}, ["decay"], None, 2,
     "error: config field decay.points must be an integer >= 8, got 5"),
    ("ref1", SMALL_DECAY, ["decay"], _singular_mode_9, 3, "(lambda=0.0, n=9)"),
    ("ref1", {}, ["stability", "--threads", "0"], None, 2, "--threads must be >= 1"),
    ("tgp_tabulated", {"limit": {"m": 0.5}}, ["limit"], None, 0, ""),
    ("bgp_prony", UPWIND_16, ["sweep"], None, 0, ""),
    ("bgp_prony", UPWIND_16, ["decay"], None, 0, ""),
    ("bgp_prony", UPWIND_16, ["check"], None, 0, ""),
    ("bgp_prony", UPWIND_16, ["spectrum"], None, 0, ""),
], ids=["fit-error", "spectral-point", "threads-0", "tabulated-mixture",
        "upwind-bgp-sweep", "upwind-bgp-decay", "upwind-bgp-check",
        "upwind-bgp-spectrum"])
def test_exit_code(tmp_path, capsys, monkeypatch, base, extra, argv, patch, rc, message):
    cfg = (dict(REF1_BASE) if base == "ref1"
           else json.loads((GOLDEN / base / "config.json").read_text()))
    cfg.update(extra, output={"dir": str(tmp_path / "out")})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    if patch is not None:
        patch(monkeypatch)
    assert cli.main([argv[0], "--config", str(path), *argv[1:]]) == rc
    err = capsys.readouterr().err
    assert (message in err) if rc else not err


@pytest.mark.parametrize("base, command, field, value", [
    ("bmc", "stability", ("coefficients", "sigma"), 1e300),
    ("bgp_prony", "sweep", ("coefficients", "ell"), 1e308),
    ("tgp_tabulated", "stability", ("kernel_g", "delta_tail"), 1e-300),
    ("bgp_prony", "stability", ("coefficients", "gamma"), 1e300),
    ("bgp_prony", "lowerbound", ("coefficients", "k"), 1e-300),
    ("bgp_prony", "stability", ("kernel_g", "terms", 0, 1), 1e300),
], ids=["sigma", "ell", "delta_tail", "gamma", "k", "prony-theta"])
def test_overflow_exits_3(tmp_path, capsys, base, command, field, value):
    # a valid config whose magnitudes overflow a float or divide by zero
    # (OverflowError, ZeroDivisionError) ends with one numeric-error line and
    # no output, not a traceback
    cfg = json.loads((GOLDEN / base / "config.json").read_text())
    leaf = cfg
    for key in field[:-1]:
        leaf = leaf[key]
    leaf[field[-1]] = value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(path), "--out", str(out)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("numeric error: ")
    assert not out.exists()


class TestStability:
    def test_ref1_report(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = write_config(tmp_path, output={"dir": str(out)})
        assert cli.main(["stability", "--config", str(path)]) == 0
        text = capsys.readouterr().out
        assert "PolynomialSqrtOptimal" in text
        data = json.loads((out / "stability.json").read_text())
        assert data["classification"] == "PolynomialSqrtOptimal"
        assert data["numbers"]["chi_g"] == pytest.approx(1.0)
        assert data["config_hash"]

    def test_exponential_case(self, tmp_path, capsys):
        cfg = dict(REF1_BASE)
        cfg["coefficients"] = dict(cfg["coefficients"], varpi=2)
        path = tmp_path / "cfg.json"
        out = tmp_path / "out"
        cfg["output"] = {"dir": str(out)}
        path.write_text(json.dumps(cfg))
        assert cli.main(["stability", "--config", str(path)]) == 0
        data = json.loads((out / "stability.json").read_text())
        assert data["classification"] == "ExponentiallyStable"

    def test_lowerbound_reads_the_tolerance(self, tmp_path, capsys):
        # chi_g is 5e-7 relative: zero by tolerance 1e-3, so the construction
        # that divides by it is refused, as the classification says
        out = tmp_path / "out"
        path = write_config(
            tmp_path, coefficients=dict(REF1_BASE["coefficients"], varpi=2 * (1 + 1e-6)),
            tolerance=1e-3, lowerbound={"n_list": [16, 64]}, output={"dir": str(out)})
        assert cli.main(["stability", "--config", str(path)]) == 0
        assert "ExponentiallyStable" in capsys.readouterr().out
        assert cli.main(["lowerbound", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "error: lower-bound construction undefined: chi_g vanishes"]
        assert not captured.out
        assert not (out / "lowerbound.csv").exists()


class TestOutputs:
    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        path = write_config(
            tmp_path,
            sweep={"lambda_min": 5, "lambda_max": 50, "points": 8, "n_max": 8},
            output={"dir": str(out1), "formats": ["csv", "svg"]})
        assert cli.main(["sweep", "--config", str(path)]) == 0
        assert cli.main(["sweep", "--config", str(path), "--out", str(out2)]) == 0
        for name in ("sweep.csv", "sweep_fit.json", "sweep.svg"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_threads_do_not_change_bytes(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        path = write_config(
            tmp_path,
            sweep={"lambda_min": 5, "lambda_max": 50, "points": 8, "n_max": 8},
            output={"dir": str(out1)})
        assert cli.main(["sweep", "--config", str(path)]) == 0
        assert cli.main(["sweep", "--config", str(path), "--out", str(out2),
                         "--threads", "4"]) == 0
        for name in ("sweep.csv", "sweep_fit.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    SMALL_RUNS = dict(sweep={"lambda_min": 5, "lambda_max": 50, "points": 8, "n_max": 8},
                      decay={"t_min": 1, "t_max": 50, "points": 8, "n_max": 8})

    def test_svg_alone_writes_no_csv(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, output={"dir": str(out), "formats": ["svg"]},
                            **self.SMALL_RUNS)
        for command in ("sweep", "decay", "limit"):
            assert cli.main([command, "--config", str(path)]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "decay.svg", "decay_fit.json", "limit.json", "sweep.svg", "sweep_fit.json"]

    def test_default_renders_no_chart(self, tmp_path, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("a chart was rendered with svg not listed")

        monkeypatch.setattr(cli.svg, "line_chart", unreachable)
        out = tmp_path / "out"
        path = write_config(tmp_path, output={"dir": str(out)}, **self.SMALL_RUNS)
        for command in ("sweep", "decay"):
            assert cli.main([command, "--config", str(path)]) == 0
        assert not list(out.glob("*.svg"))
        assert (out / "sweep.csv").exists() and (out / "decay.csv").exists()

    def test_header_line_and_ratio_column(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, output={"dir": str(out)},
                            lowerbound={"n_list": [16, 64, 256]})
        assert cli.main(["lowerbound", "--config", str(path)]) == 0
        lines = (out / "lowerbound.csv").read_text().splitlines()
        assert lines[0].startswith("# beamstab 0.1.0 config=")
        cols = lines[1].split(",")
        ratios = [float(row.split(",")[cols.index("ratio")]) for row in lines[2:]]
        # the amplitude ratio approaches the predicted constant 1/2
        gaps = [abs(r - 0.5) for r in ratios]
        assert gaps[2] < gaps[1] < gaps[0]
        assert gaps[2] < 1e-4

    def test_limit_csv(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, output={"dir": str(out)},
                            limit={"eps_list": [0.1, 0.01]})
        assert cli.main(["limit", "--config", str(path)]) == 0
        lines = (out / "limit.csv").read_text().splitlines()
        assert lines[1].split(",")[0] == "eps"
        assert len(lines) == 4
        # the summary holds the targets and the gaps at the smallest eps
        row = dict(zip(lines[1].split(","), lines[3].split(",")))
        summary = json.loads((out / "limit.json").read_text())
        assert summary["eps"] == 0.01
        for key in ("target_g", "gap_g", "target_h", "gap_h"):
            assert summary[key] == float(row[key])

    def test_decay_and_spectrum(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(
            tmp_path, output={"dir": str(out)},
            decay={"t_min": 1, "t_max": 50, "points": 8, "n_max": 8},
            spectrum={"n_max": 8})
        assert cli.main(["decay", "--config", str(path)]) == 0
        assert cli.main(["spectrum", "--config", str(path)]) == 0
        fit = json.loads((out / "decay_fit.json").read_text())
        assert fit["kind"] == "algebraic"
        spec = json.loads((out / "spectrum.json").read_text())
        assert spec["global_max"] < 0
        assert (out / "decay_energy.csv").exists()

    def test_decay_auto_detects_exponential_case(self, tmp_path):
        cfg = dict(REF1_BASE)
        cfg["coefficients"] = dict(cfg["coefficients"], varpi=2)
        out = tmp_path / "out"
        cfg["output"] = {"dir": str(out)}
        cfg["decay"] = {"t_min": 1, "t_max": 100, "points": 8, "n_max": 8}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["decay", "--config", str(path)]) == 0
        fit = json.loads((out / "decay_fit.json").read_text())
        assert fit["kind"] == "exponential"
        assert fit["rate"] > 0

    def test_tabulated_kernel_config(self, tmp_path):
        import beamstab as bs
        s = np.linspace(0.0, 23.0, 2001)
        tab = bs.normalized(
            bs.tabulated_kernel(s, np.exp(-s), delta_tail=1.0, delta=1.0))
        cfg = {
            "model": "TGP",
            "coefficients": dict(REF1_BASE["coefficients"]),
            "kernel_g": {"type": "tabulated", "s": list(s),
                         "mu": [float(x) for x in tab.mu],
                         "delta_tail": 1.0, "delta": 1.0},
            "memory": {"nodes": 32},
            "output": {"dir": str(tmp_path / "out")},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["stability", "--config", str(path)]) == 0
        data = json.loads((tmp_path / "out" / "stability.json").read_text())
        assert data["numbers"]["chi_g"] == pytest.approx(1.0, abs=1e-4)
        assert cli.main(["check", "--config", str(path)]) == 0


class TestGoldenSweep:
    """Sweep outputs, re-captured when the generators moved to closed-form
    energy coordinates (samples moved by rounding, argmax_n and pruning
    kept); the ``work`` counters in sweep_fit.json are pinned:
    eigvals_computed, modes_eigvals, modes_in_range, norm_evals and svds,
    in that order.  The classical-law configs tf and bf were captured
    before its temperatures became a heat block."""

    WORK_KEYS = ("eigvals_computed", "modes_eigvals", "modes_in_range", "norm_evals", "svds")
    WORK = {"bgp_prony": (677, 1624, 3731, 1968, 20),
            "bmc": (782, 1674, 4478, 2029, 23),
            "tgp_tabulated": (240, 928, 928, 180, 16),
            "tf": (1200, 3731, 3731, 4933, 20),
            "bf": (1200, 3731, 3731, 5004, 20)}

    @pytest.mark.parametrize("name, pruning", [("bgp_prony", "certified"),
                                               ("bmc", "certified"),
                                               ("tgp_tabulated", "certified"),
                                               ("tf", "none"), ("bf", "none")])
    def test_bytes_unchanged(self, tmp_path, name, pruning):
        src = GOLDEN / name
        out = tmp_path / "out"
        assert cli.main(["sweep", "--config", str(src / "config.json"),
                         "--out", str(out)]) == 0
        assert (out / "sweep.csv").read_bytes() == (src / "sweep.csv").read_bytes()
        fit = json.loads((out / "sweep_fit.json").read_text(encoding="utf-8"))
        work = fit.pop("work")
        text = json.dumps(fit, indent=2, sort_keys=True) + "\n"
        assert text.encode("utf-8") == (src / "sweep_fit.json").read_bytes()
        assert work == {"pruning": pruning, **dict(zip(self.WORK_KEYS, self.WORK[name]))}


class TestGoldenDecay:
    """Decay outputs: decay_energy.csv recorded before the batched
    propagator, decay.csv and decay_fit.json re-captured when the
    generators moved to closed-form energy coordinates (values moved by
    rounding), the classical-law tf and bf before its temperatures became
    a heat block; the ``work`` object in decay_fit.json is not pinned here."""

    @pytest.mark.parametrize("name", ["bgp_prony", "bmc", "tgp_tabulated", "tf", "bf"])
    def test_bytes_unchanged(self, tmp_path, name):
        src = GOLDEN_DECAY / name
        out = tmp_path / "out"
        assert cli.main(["decay", "--config", str(src / "config.json"),
                         "--out", str(out)]) == 0
        for csv_name in ("decay.csv", "decay_energy.csv"):
            assert (out / csv_name).read_bytes() == (src / csv_name).read_bytes()
        raw = (out / "decay_fit.json").read_text(encoding="utf-8")
        assert "Infinity" not in raw and "NaN" not in raw
        fit = json.loads(raw)
        work = fit.pop("work")
        text = json.dumps(fit, indent=2, sort_keys=True) + "\n"
        assert text.encode("utf-8") == (src / "decay_fit.json").read_bytes()
        assert work["modes_propagated"] <= fit["n_max"] and work["expm_modes"] == 0
        assert work["modes_propagated"] == fit["n_max"] or work["tail"] == "certified"
        assert 0 < work["norm_evals"] < fit["n_max"] * 9
        assert work["pruning"] == "certified"

    def test_top_bound_below_the_max_is_gated(self, tmp_path):
        # a later chunk whose largest bound is already below the running max
        # runs no SVD at that time point: 12 in all, not the 19 of an ungated top
        src = GOLDEN_DECAY / "tgp_tabulated"
        out = tmp_path / "out"
        assert cli.main(["decay", "--config", str(src / "config.json"),
                         "--out", str(out)]) == 0
        work = json.loads((out / "decay_fit.json").read_text(encoding="utf-8"))["work"]
        assert work["norm_evals"] == 12


class TestGoldenCommands:
    """Outputs of the commands around the lower bound, the classification and
    the mode assembly, recorded before the resonance solve and the assembly
    loop were merged (tf and bf before the classical law's temperatures
    became a heat block; check.json when its dissipativity, dissipation
    identity and flux-map commutation became exact over all states); run on
    the golden sweep configs."""

    FILES = {"stability": ("stability.json",),
             "lowerbound": ("lowerbound.csv", "lowerbound.json"),
             "check": ("check.json",),
             "limit": ("limit.csv",),
             "spectrum": ("spectrum.csv", "spectrum.json")}

    @pytest.mark.parametrize("name", GOLDEN_NAMES)
    @pytest.mark.parametrize("command", sorted(FILES))
    def test_bytes_unchanged(self, tmp_path, name, command):
        out = tmp_path / "out"
        rc = cli.main([command, "--config", str(GOLDEN / name / "config.json"),
                       "--out", str(out)])
        if (name, command) in REFUSED:
            assert rc == 2
            return
        assert rc == 0
        for file_name in self.FILES[command]:
            want = (GOLDEN_CLI / name / file_name).read_bytes()
            assert (out / file_name).read_bytes() == want


def test_relaxed_flux_and_its_exponential_twin_agree(tmp_path):
    # a relaxed flux is the memory law of its exponential kernels: the golden
    # bmc config and its BGP twin, built as the packaging smoke test builds
    # bmc_twin.json, give the same sweep, decay series and spectrum up to
    # rounding (measured: 2.6e-15, 3.6e-10 and 1.2e-11 relative)
    bmc = json.loads((GOLDEN / "bmc" / "config.json").read_text())
    coeffs = {k: v for k, v in bmc["coefficients"].items() if k not in ("sigma", "tau")}
    exp = lambda s: {"type": "exponential", "varpi": 1, "sigma": s}
    path = tmp_path / "bmc_twin.json"
    path.write_text(json.dumps(dict(bmc, model="BGP", coefficients=coeffs,
                                    kernel_g=exp(1.5), kernel_h=exp(0.7))))
    flux, twin = (cli.load_config(p) for p in (GOLDEN / "bmc" / "config.json", path))
    blk = flux.sweep
    lams = np.geomspace(blk["lambda_min"], blk["lambda_max"], blk["points"])
    for a, b in zip(*(resolvent.sweep(cfg.spec, lams, blk["n_max"]) for cfg in (flux, twin))):
        assert a.argmax_n == b.argmax_n
        assert a.value == pytest.approx(b.value, rel=1e-12, abs=0)
    ts = np.geomspace(flux.decay["t_min"], flux.decay["t_max"], flux.decay["points"])
    for n_max in (128, 1024):
        a, b = (dynamics.semiuniform_series(cfg.spec, ts, n_max) for cfg in (flux, twin))
        assert a == pytest.approx(b, rel=1e-8, abs=0)
    a, b = (resolvent.spectral_abscissa(cfg.spec, 64).per_mode for cfg in (flux, twin))
    assert a == pytest.approx(b, rel=1e-9, abs=0)


def test_lowerbound_solves_the_resonance_once(tmp_path, monkeypatch):
    calls = {"stability_numbers": 0, "det_check": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(model, "stability_numbers",
                        counted("stability_numbers", model.stability_numbers))
    monkeypatch.setattr(resolvent, "det_check",
                        counted("det_check", resolvent.det_check))
    path = write_config(tmp_path, output={"dir": str(tmp_path / "out")},
                        lowerbound={"n_list": [16, 64, 256, 1024, 4096]})
    assert cli.main(["lowerbound", "--config", str(path)]) == 0
    assert calls == {"stability_numbers": 1, "det_check": 0}


def _count_calls(monkeypatch, owner, name):
    """Wrap ``owner.name`` so that calls to it are counted in the returned list."""
    calls = []
    fn = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


@pytest.mark.parametrize("config, kernels", [("ref1", 2), ("tgp_tabulated", 1)])
def test_lowerbound_transforms_each_kernel_once_per_row(tmp_path, monkeypatch,
                                                        config, kernels):
    from beamstab import kernels as kmod
    path = (write_config(tmp_path, lowerbound={"n_list": [16, 64, 256, 1024, 4096]})
            if config == "ref1" else GOLDEN / config / "config.json")
    calls = _count_calls(monkeypatch, kmod, "fourier_mu")
    assert cli.main(["lowerbound", "--config", str(path), "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "lowerbound.csv").read_text().splitlines()[2:]
    assert len(rows) >= 3 and len(calls) == kernels * len(rows)


def test_load_config_integrates_the_table_at_most_twice(monkeypatch):
    # the grid holds nodes only: the cell masses are each memory block's,
    # formed with the mode stack, so load_config integrates no cell
    from beamstab import kernels as kmod
    calls = _count_calls(monkeypatch, kmod, "mu_integral")
    cfg = cli.load_config(GOLDEN / "tgp_tabulated" / "config.json")
    assert cfg.grid is not None and cfg.grid.size == 16
    assert len(calls) <= 2


@pytest.mark.parametrize("config, layouts", [("ref1", 2), ("tgp_tabulated", 1)])
def test_check_builds_one_mode_stack_per_system(tmp_path, monkeypatch, config, layouts):
    # ref1: the system's stack and the flux twin's, which the flux map reads
    # too; decay shares one stack between the series and the mode-1 trajectory
    from beamstab import modal
    path = write_config(tmp_path) if config == "ref1" else GOLDEN / config / "config.json"
    calls = _count_calls(monkeypatch, modal, "_layout")
    assert cli.main(["check", "--config", str(path), "--out", str(tmp_path),
                     "--dump-modes", str(tmp_path / "modes")]) == 0
    assert len(calls) <= layouts
    calls.clear()
    assert cli.main(["decay", "--config", str(path), "--out", str(tmp_path)]) == 0
    assert len(calls) == 1


class TestCheck:
    def test_all_pass_and_dump(self, tmp_path, capsys):
        out = tmp_path / "out"
        dump = tmp_path / "modes"
        path = write_config(tmp_path, output={"dir": str(out)})
        rc = cli.main(["check", "--config", str(path),
                       "--dump-modes", str(dump)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "FAIL" not in text
        data = json.loads((out / "check.json").read_text())
        assert data["status"] == "pass"
        lines = (dump / "mode_1.txt").read_text().splitlines()
        assert lines[0].startswith("% mode n=1")
        assert lines[1] == "% generator (row col value)"
        generator = lines[2:lines.index("% weight (row col value)")]
        assert generator and all(len(line.split()) == 3 for line in generator)

    @pytest.mark.parametrize("config, failing", [
        ("ref1", ["dissipation_identity", "flux_map_commutation"]),
        ("tgp_tabulated", ["dissipation_identity"])])
    def test_a_wrong_heat_weight_fails(self, tmp_path, monkeypatch, config, failing):
        # G and W are scaled from the same weights, so a wrong weight leaves
        # them consistent: only the independent memory functional and, for a
        # one-term exponential kernel, the flux map can see it.  Scale the
        # first heat state's weight (a prony term of ref1, an upwind cell of
        # the table) by 1 + 1e-6; the flux twin's has no omega^2 part
        coupling = cli.modal._coupling

        def scaled(spec, index, blocks, scheme):
            K, (w0, w2), heat = coupling(spec, index, blocks, scheme)
            if blocks:
                w2[blocks[0].start] *= 1 + 1e-6
            return K, (w0, w2), heat

        monkeypatch.setattr(cli.modal, "_coupling", scaled)
        path = write_config(tmp_path) if config == "ref1" else GOLDEN / config / "config.json"
        assert cli.main(["check", "--config", str(path), "--out", str(tmp_path)]) == 0
        checks = json.loads((tmp_path / "check.json").read_text())["checks"]
        assert [c["name"] for c in checks if not c["ok"]] == failing

    def test_relaxed_model_check(self, tmp_path, capsys):
        cfg = {
            "model": "TMC",
            "coefficients": dict(REF1_BASE["coefficients"], sigma=1.0),
            "output": {"dir": str(tmp_path / "out")},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["check", "--config", str(path)]) == 0
        assert "FAIL" not in capsys.readouterr().out


# modules that no command needs, and what loading them would cost a run:
# numpy.random about 1.7 MB of peak memory, OpenSSL's _hashlib (which hashlib
# loads) about 3.3 MB, numpy.ma (which np.unique loads on NumPy >= 2.3) about
# 1.3 MB; scipy is for the rare expm fallback, concurrent.futures for --threads
UNNEEDED = ("numpy.random", "numpy.ma", "_hashlib", "scipy", "concurrent.futures")


def test_no_command_loads_a_module_it_does_not_need(tmp_path):
    # every command on every golden sweep config, in one process; a NumPy that
    # loads its submodules eagerly (1.x) has numpy.random, and maybe more,
    # loaded by `import numpy` already, so only beamstab's own imports are
    # asserted
    script = ("import json, sys\n"
              "import numpy\n"
              "before = set(sys.modules)\n"
              "from beamstab import cli\n"
              "unneeded, runs = json.loads(sys.argv[1])\n"
              "for command, path, out, rc in runs:\n"
              "    assert cli.main([command, '--config', path, '--out', out]) == rc\n"
              "print(json.dumps([m for m in unneeded if m in sys.modules and m not in before]))\n")
    runs = [(command, str(GOLDEN / name / "config.json"), str(tmp_path / name),
             2 if (name, command) in REFUSED else 0)
            for name in GOLDEN_NAMES for command in cli.COMMANDS]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", script, json.dumps([UNNEEDED, runs])],
                          check=True, env=env, capture_output=True, text=True)
    assert json.loads(done.stdout.splitlines()[-1]) == []


def test_config_hash_is_the_sha256_of_the_text():
    # every output header names it; hashlib is the reference the built-in
    # SHA-256 that load_config uses must match
    import hashlib
    path = GOLDEN / "bgp_prony" / "config.json"
    text = path.read_text(encoding="utf-8")
    assert cli.load_config(path).config_hash == hashlib.sha256(text.encode()).hexdigest()[:12]
