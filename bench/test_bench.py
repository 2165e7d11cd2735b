"""Tests of the benchmark itself: names, schema, seeds, output checks, tracing.

They run the CLI only on small configs, so they take a few seconds.
"""

import json
import re
import shutil
from pathlib import Path

import pytest

import checks
import run as bench
import tracing
import workloads
from beamstab import cli

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_names_use_the_allowed_characters():
    names = (list(workloads.GENERATORS) + list(bench.END_TO_END) + bench.PER_LAYER)
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert len(names) == len(set(names))
    assert all(UNIT.match(bench.unit_of(n)) for n in names)


def test_benchmark_json_matches_the_code():
    spec = benchmark_json()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.GENERATORS)
    assert all(w["why"] == workloads.WHY[w["name"]] for w in spec["workloads"])
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == bench.PER_LAYER
    assert all(m["unit"] == bench.unit_of(m["name"]) for m in spec["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_seed_zero_is_the_reference_and_seeds_repeat():
    configs, _ = workloads.build("prony-sweep", 0)
    assert configs["bgp"]["sweep"]["lambda_min"] == 100.0
    assert workloads.build("time-domain", 7) == workloads.build("time-domain", 7)


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_seeds_shift_endpoints_but_keep_the_work_size(workload):
    base, base_steps = workloads.build(workload, 0)
    other, other_steps = workloads.build(workload, 12345)
    assert base_steps == other_steps
    assert base != other
    for name, cfg in base.items():
        for block in ("sweep", "decay"):
            if block not in cfg:
                continue
            a, b = cfg[block], other[name][block]
            assert a["points"] == b["points"] and a["n_max"] == b["n_max"]
            for key in a:
                if key.endswith(("_min", "_max")) and key != "n_max":
                    assert abs(b[key] / a[key] - 1) <= workloads.SHIFT


def test_importtime_parsing():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:       200 |       1000 |   numpy",
        "import time:        50 |         50 |       scipy._lib",
        "import time:       300 |        350 |     scipy",
        "import time:       400 |       2000 |     scipy.linalg",
        "import time:        10 |       2500 |   beamstab.dynamics",
        "import time:        20 |       4000 | beamstab",
    ])
    assert bench.parse_importtime(text) == pytest.approx((4000e-6, 2350e-6))


def fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_subtracts_direct_children():
    t = tracing.Tracer(clock=fake_clock([0.0, 1.0, 3.0, 4.0, 6.0, 10.0]))
    ns = {"outer": lambda: (ns["inner"](), ns["inner"]()), "inner": lambda: None}
    t.wrap(ns, "inner", "inner")
    t.wrap(ns, "outer", "outer")
    ns["outer"]()
    stats = t.stats()
    assert stats["outer"] == {"calls": 1, "total": 10.0, "self": 6.0}
    assert stats["inner"] == {"calls": 2, "total": 4.0, "self": 4.0}
    assert [s[3] for s in t.spans] == [-1, 0, 0]


def test_missing_target_is_absent_not_a_crash():
    renamed = tuple(x for x in tracing.TARGETS if x[2] != "modal.layout")
    t = tracing.Tracer()
    t.install(renamed + (("beamstab.modal", "_renamed_layout", "modal.layout", None),))
    t.uninstall()
    assert t.absent == ["modal.layout"]
    metrics = tracing.layer_metrics(t)
    assert "modal.layout.calls" not in metrics
    assert "modal.mode_arrays.calls" in metrics


# A small version of the time-domain and prony-sweep steps, on real CLI output.
SMALL_STEPS = [
    workloads._step("sweep", "sweep", "bgp", ["sweep_exponent", 2.0, 0.1]),
    workloads._step("decay", "decay", "bgp", ["decay_slope", -0.5, 0.1]),
    workloads._step("decay2", "decay", "bgp2", ["decay_slope", -0.5, 0.1],
                    ["decay_doubling", "decay", 0.02]),
    workloads._step("twin_spectrum", "spectrum", "twin", ["abscissa_negative"]),
    workloads._step("twin_decay", "decay", "twin",
                    ["decay_rate_vs_abscissa", "twin_spectrum", 0.1]),
    workloads._step("lowerbound", "lowerbound", "bgp",
                    ["lowerbound", workloads.BGP_CONSTANTS]),
    workloads._step("check", "check", "bgp", ["check_pass"]),
    workloads._step("stability", "stability", "bgp",
                    ["classification", "PolynomialSqrtOptimal"]),
    workloads._step("limit", "limit", "bgp", ["limit_gaps_decrease"]),
]


def small_configs(tmp):
    bgp = workloads._bgp()
    bgp.update(sweep={"lambda_min": 100, "lambda_max": 200, "points": 8, "n_max": 16},
               decay={"t_min": 100, "t_max": 1e4, "points": 9, "n_max": 256},
               lowerbound={"n_list": workloads.LOWERBOUND_N})
    bgp2 = dict(bgp, decay=dict(bgp["decay"], n_max=512))
    twin = workloads._bgp(varpi=2)
    twin.update(decay={"t_min": 1, "t_max": 300, "points": 10, "n_max": 64},
                spectrum={"n_max": 64})
    paths = {}
    for name, cfg in (("bgp", bgp), ("bgp2", bgp2), ("twin", twin)):
        paths[name] = tmp / f"{name}.json"
        paths[name].write_text(json.dumps(cfg), encoding="utf-8")
    return paths


def run_steps(paths, out_root, tracer=None):
    if tracer is not None:
        tracer.install()
    try:
        for step in SMALL_STEPS:
            rc = cli.main([step["command"], "--config", str(paths[step["config"]]),
                           "--out", str(out_root / step["name"])])
            assert rc == 0
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {s["name"]: out_root / s["name"] for s in SMALL_STEPS}


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("bench")
    paths = small_configs(tmp)
    plain = run_steps(paths, tmp / "plain")
    tracer = tracing.Tracer()
    traced = run_steps(paths, tmp / "traced", tracer)
    return tmp, plain, traced, tracer


def test_every_check_passes_on_real_output(small_run):
    _, outs, _, _ = small_run
    for step in SMALL_STEPS:
        for spec in step["checks"]:
            ok, detail = checks.run_check(spec, outs[step["name"]], outs)
            assert ok, (step["name"], detail)


def test_traced_and_untraced_outputs_are_identical(small_run):
    _, plain, traced, _ = small_run
    for name in plain:
        assert checks.differing_files(plain[name], traced[name]) == []


def test_traced_run_reports_every_layer_metric(small_run):
    _, _, _, tracer = small_run
    metrics = tracing.layer_metrics(tracer)
    assert list(metrics) == list(tracing.LAYER_METRICS)
    assert tracer.absent == []
    assert metrics["modal.modes_assembled"] > 0
    assert metrics["resolvent.norm_evals"] > 0
    assert metrics["kernels.mu_integral.calls"] == 0  # prony kernels only
    assert metrics["dynamics.expm_fallbacks"] == 0
    assert cli.COMMANDS["sweep"] is cli.cmd_sweep  # uninstalled


def test_command_split_attributes_self_time_to_modules(small_run):
    _, _, _, tracer = small_run
    split = tracer.command_split()
    sweep, decay = split["sweep"], split["decay"]
    assert (sweep["resolvent"] + sweep["modal"]) > 0.8 * sum(sweep.values())
    assert decay["dynamics"] > 0.5 * sum(decay.values())
    assert sum(sum(c.values()) for c in split.values()) == pytest.approx(
        sum(end - start for name, start, end, parent in tracer.spans
            if parent < 0 and name in tracer.commands))


def _edit_json(path, edit):
    data = json.loads(path.read_text(encoding="utf-8"))
    edit(data)
    path.write_text(json.dumps(data), encoding="utf-8")


def _edit_csv_cell(column, value, row=-1):
    def edit(path):
        lines = path.read_text(encoding="utf-8").splitlines()
        header = lines[1].split(",")
        cells = lines[row].split(",")
        cells[header.index(column)] = value
        lines[row] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return edit


CORRUPTIONS = [
    ("sweep", "sweep_fit.json", lambda d: d["fit"].update(exponent=1.5)),
    ("decay", "decay_fit.json", lambda d: d.update(rate=-0.3)),
    ("decay2", "decay_fit.json", lambda d: d.update(rate=d["rate"] + 0.05)),
    ("twin_spectrum", "spectrum.json", lambda d: d.update(global_max=1e-3)),
    ("twin_decay", "decay_fit.json", lambda d: d.update(rate=d["rate"] * 1.2)),
    ("lowerbound", "lowerbound.json", lambda d: d.update(c0=1.3)),
    ("lowerbound", "lowerbound.csv", _edit_csv_cell("ratio", "0.51")),
    ("lowerbound", "lowerbound.csv", _edit_csv_cell("det_m_gap", "10.0", row=2)),
    ("check", "check.json", lambda d: d.update(status="fail")),
    ("stability", "stability.json",
     lambda d: d.update(classification="ExponentiallyStable")),
    ("limit", "limit.csv", _edit_csv_cell("gap_g", "1.0")),
]


@pytest.mark.parametrize("step_name, filename, edit", CORRUPTIONS)
def test_each_check_fails_on_corrupted_output(small_run, tmp_path, step_name,
                                              filename, edit):
    _, outs, _, _ = small_run
    copies = {}
    for name, path in outs.items():
        copies[name] = tmp_path / name
        shutil.copytree(path, copies[name])
    target = copies[step_name] / filename
    if filename.endswith(".json"):
        _edit_json(target, edit)
    else:
        edit(target)
    step = next(s for s in SMALL_STEPS if s["name"] == step_name)
    results = [checks.run_check(spec, copies[step_name], copies)[0]
               for spec in step["checks"]]
    assert not all(results)
    assert checks.differing_files(outs[step_name], copies[step_name]) == [filename]


def test_missing_output_fails_without_raising(tmp_path):
    ok, detail = checks.run_check(["check_pass"], tmp_path, {})
    assert not ok and "unreadable" in detail


def test_benchmark_refuses_a_directory_without_the_package(tmp_path, capsys,
                                                           monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = bench.main(["--workload", "prony-sweep", "--seed", "0", "--seconds", "1",
                     "--trace", "0"])
    out, err = capsys.readouterr()
    assert rc != 0 and out == "" and "no beamstab package" in err
