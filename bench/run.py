"""The beamstab benchmark: one workload, timed end to end or traced per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the package is imported from ``src/``.
The seed generates the workload's configs (``workloads.py``).  Set-up is
timed in ``SETUP_RUNS`` fresh interpreters after a warm-up one; the workload
then runs in one more fresh interpreter (``child.py``, one BLAS thread) that
repeats the whole command sequence in-process for ``--seconds`` seconds (at
least ``MIN_REPS`` times).  Every command's outputs are checked
(``checks.py``) and compared byte for byte with the first repetition.

``--trace 0`` reports the end-to-end metrics (medians over repetitions).
``--trace 1`` alternates traced and untraced repetitions and reports the
per-layer metrics of the traced ones, import times from ``-X importtime``
and the tracing overhead.  The last line of standard output is the JSON
result; the lines before it are the same numbers for people.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_REPS = 5          # repetitions per --trace 0 run
MIN_TRACED_REPS = 3   # traced and untraced repetitions each per --trace 1 run
SETUP_RUNS = 7        # set-up-only interpreters per --trace 0 run
IMPORT_RUNS = 3       # -X importtime interpreters per --trace 1 run
DEADLINE_S = 170.0    # a run must end within 180 s
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = (list(tracing.LAYER_METRICS)
             + ["import.beamstab_s", "import.scipy_s", "trace.overhead_s"])


def unit_of(name):
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("_s"):
        return "s"
    if "bytes" in name:
        return "B"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


class ChildFailed(RuntimeError):
    pass


class Runner:
    """Starts child interpreters inside a per-run work directory."""

    def __init__(self, root, work, started):
        self.root = root
        self.work = work
        self.started = started
        self.count = 0
        self.env = dict(os.environ, **THREAD_ENV)
        src = str(root / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")

    def remaining(self):
        left = DEADLINE_S - (time.monotonic() - self.started)
        if left <= 1.0:
            raise ChildFailed("run deadline reached")
        return left

    def _run(self, argv):
        try:
            return subprocess.run(argv, cwd=self.root, env=self.env,
                                  stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                  text=True, timeout=self.remaining())
        except subprocess.TimeoutExpired:
            raise ChildFailed(f"{argv[1:]} timed out at the run deadline") from None

    def child(self, plan_data):
        self.count += 1
        plan = self.work / f"plan{self.count}.json"
        report = self.work / f"report{self.count}.json"
        plan.write_text(json.dumps(plan_data), encoding="utf-8")
        proc = self._run([sys.executable, str(BENCH / "child.py"), str(plan), str(report)])
        if proc.returncode != 0 or not report.is_file():
            raise ChildFailed(f"child exited {proc.returncode}: {proc.stderr[-2000:]}")
        return json.loads(report.read_text(encoding="utf-8"))

    def import_times(self):
        proc = self._run([sys.executable, "-X", "importtime", "-c", "import beamstab"])
        if proc.returncode != 0:
            raise ChildFailed(f"import failed: {proc.stderr[-2000:]}")
        return parse_importtime(proc.stderr)


def parse_importtime(text):
    """(beamstab, scipy) cumulative import seconds from ``-X importtime`` lines."""
    rows = []
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].rstrip()
        rows.append((len(name) - len(name.lstrip()), name.strip(), int(parts[1]) * 1e-6))
    beamstab = sum(cum for _, name, cum in rows if name == "beamstab")
    scipy = [(depth, cum) for depth, name, cum in rows
             if name == "scipy" or name.startswith("scipy.")]
    top = min((depth for depth, _ in scipy), default=0)
    return beamstab, sum(cum for depth, cum in scipy if depth == top)


def environment():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"nproc={len(os.sched_getaffinity(0))} python={sys.version.split()[0]} "
            f"numpy={numpy.__version__} scipy={scipy.__version__} "
            f"blas={blas.get('name')} {blas.get('version')} "
            f"blas_threads={THREAD_ENV['OPENBLAS_NUM_THREADS']}")


def write_configs(work, workload, seed):
    configs, steps = workloads.build(workload, seed)
    paths = {}
    for name, cfg in configs.items():
        path = work / f"{name}.json"
        path.write_text(json.dumps(cfg, indent=1), encoding="utf-8")
        paths[name] = str(path)
    return paths, steps


def plan_steps(steps, config_paths):
    return [{"name": s["name"], "command": s["command"],
             "config": config_paths[s["config"]]} for s in steps]


def check_rep(steps, results, out_root, first_root):
    """(step, check, ok, detail) for every check of one repetition's outputs."""
    outs = {s["name"]: out_root / s["name"] for s in steps}
    verdicts = []
    for step, result in zip(steps, results):
        name = step["name"]
        if result["rc"] != 0:
            detail = f"exit code {result['rc']} {result['error'] or ''}".strip()
            verdicts.append((name, "exit", False, detail))
            continue
        for spec in step["checks"]:
            verdicts.append((name, spec[0], *checks.run_check(spec, outs[name], outs)))
        if first_root is not None:
            diff = checks.differing_files(first_root / name, outs[name])
            verdicts.append((name, "identical", not diff,
                             f"files differing from the first repetition: {diff or 'none'}"))
    return verdicts


def summary(name, values):
    return (f"{name} {median(values):.6g} {unit_of(name)} "
            f"(median of {len(values)}; min {min(values):.6g}, max {max(values):.6g})")


def run(args, root):
    started = time.monotonic()
    work = root / ".bench_build" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    config_paths, steps = write_configs(work, args.workload, args.seed)
    runner = Runner(root, work, started)
    configs = sorted(config_paths.values())

    print(f"workload {args.workload} seed {args.seed}: {workloads.WHY[args.workload]}")
    print(f"env {environment()}")
    runner.child({"configs": configs})  # warm-up: byte-compiles, fills the page cache
    setup, imports = [], []
    if args.trace:
        imports = [runner.import_times() for _ in range(IMPORT_RUNS)]
    else:
        setup = [runner.child({"configs": configs})["setup_s"] for _ in range(SETUP_RUNS)]
    report = runner.child({
        "configs": configs, "steps": plan_steps(steps, config_paths),
        "out": str(work / "out"), "seconds": args.seconds, "trace": bool(args.trace),
        "min_reps": 2 * MIN_TRACED_REPS if args.trace else MIN_REPS})
    reps = report["reps"]

    first = Path(reps[0]["out"])
    attempted = failed = 0
    for i, rep in enumerate(reps):
        verdicts = check_rep(steps, rep["steps"], Path(rep["out"]), first if i else None)
        attempted += len(steps)
        failed += len({name for name, _, ok, _ in verdicts if not ok})
        for name, check, ok, detail in verdicts:
            if i == 0 or not ok:
                print(f"check rep{i} {name}.{check} {'PASS' if ok else 'FAIL'}: {detail}")

    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    print(f"{len(plain)} untraced and {len(traced)} traced repetitions "
          f"of {len(steps)} commands")
    by_command = defaultdict(list)
    for rep in plain:
        totals = defaultdict(float)
        for step, result in zip(steps, rep["steps"]):
            totals[step["command"]] += result["seconds"]
        for command, seconds in totals.items():
            by_command[command].append(seconds)
    for command, values in by_command.items():
        print("command " + summary(f"{command}_s", values))
    print(f"fail_rate {failed / attempted:.6g} ({failed} of {attempted} commands)")

    if args.trace:
        metrics = layer_metrics(traced, plain, imports)
    else:
        walls = [r["wall_s"] for r in plain]
        metrics = {"wall_s": median(walls), "setup_s": median(setup),
                   "peak_rss_mb": report["peak_rss_kb"] / 1024.0}
        print("metric " + summary("wall_s", walls))
        print("metric " + summary("setup_s", setup))
        print(f"metric peak_rss_mb {metrics['peak_rss_mb']:.6g} MB")
    if failed:
        print(f"outputs of the failed run kept in {work}")
    else:
        shutil.rmtree(work)
    return {"correct": not failed, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit_of(name)}
                        for name, value in metrics.items()}}


def layer_metrics(traced, plain, imports):
    """Per-layer metrics: medians of times, exact counts, overhead, import times."""
    absent = sorted({name for r in traced for name in r["absent"]})
    if absent:
        print(f"absent trace targets (their metrics are left out): {absent}")
    metrics = {}
    for name in tracing.LAYER_METRICS:
        values = [r["layers"][name] for r in traced if name in r["layers"]]
        if not values:
            continue
        if unit_of(name) == "s":
            metrics[name] = median(values)
            print("layer " + summary(name, values))
        else:
            metrics[name] = values[0]
            note = " (computed from array sizes)" if name == "modal.bytes_assembled" else ""
            if len(set(values)) > 1:
                note += f" (NOT REPEATED: {values})"
            print(f"layer {name} {values[0]:.6g} {unit_of(name)}{note}")
    metrics["import.beamstab_s"] = median([b for b, _ in imports])
    metrics["import.scipy_s"] = median([s for _, s in imports])
    print("layer " + summary("import.beamstab_s", [b for b, _ in imports]))
    print("layer " + summary("import.scipy_s", [s for _, s in imports]))
    metrics["trace.overhead_s"] = (median([r["wall_s"] for r in traced])
                                   - median([r["wall_s"] for r in plain]))
    print(f"layer trace.overhead_s {metrics['trace.overhead_s']:.6g} s "
          f"(traced minus untraced median wall_s)")
    for command in traced[0]["split"]:
        shares = defaultdict(list)
        for r in traced:
            for module, seconds in r["split"][command].items():
                shares[module].append(seconds)
        cells = sorted(((median(v), m) for m, v in shares.items()), reverse=True)
        total = sum(s for s, _ in cells) or 1.0
        print(f"split {command} {total:.3f} s: "
              + ", ".join(f"{m} {s / total:.0%}" for s, m in cells))
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "beamstab" / "__init__.py").is_file():
        print(f"error: no beamstab package under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    try:
        result = run(args, root)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
