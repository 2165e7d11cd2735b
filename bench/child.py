"""A fresh interpreter that sets up beamstab and, optionally, runs a workload.

    python3 bench/child.py PLAN.json REPORT.json

Times set-up (``import beamstab`` plus ``cli.load_config`` of every config).
Then, if the plan has steps, runs the whole command sequence in-process
through ``beamstab.cli.main`` again and again for ``seconds`` (at least
``min_reps`` times), each repetition writing into its own output directory.
With ``trace`` set, every second repetition is traced (see ``tracing.py``).
REPORT.json gets the timings, exit codes, peak RSS and per-layer metrics.
"""

import contextlib
import json
import os
import resource
import sys
import time
import traceback


def run_steps(cli, steps, out_root, sink):
    results = []
    for step in steps:
        argv = [step["command"], "--config", step["config"],
                "--out", os.path.join(out_root, step["name"])]
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                rc = cli.main(argv)
            error = None
        except Exception:  # a crash fails this command; the others still run
            rc, error = -1, traceback.format_exc()
        results.append({"rc": rc, "seconds": time.perf_counter() - t0, "error": error})
    return results


def main(plan_path, report_path):
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    start = time.perf_counter()
    from beamstab import cli
    for path in plan["configs"]:
        cli.load_config(path)
    report = {"setup_s": time.perf_counter() - start, "reps": []}

    if plan.get("steps"):
        import tracing
        began = time.perf_counter()
        with open(os.devnull, "w", encoding="utf-8") as sink:
            while (len(report["reps"]) < plan["min_reps"]
                   or time.perf_counter() - began < plan["seconds"]):
                index = len(report["reps"])
                tracer = tracing.Tracer() if plan["trace"] and index % 2 else None
                if tracer is not None:
                    tracer.install()
                try:
                    out_root = os.path.join(plan["out"], f"rep{index}")
                    steps = run_steps(cli, plan["steps"], out_root, sink)
                finally:
                    if tracer is not None:
                        tracer.uninstall()
                rep = {"traced": tracer is not None, "out": out_root, "steps": steps,
                       "wall_s": sum(s["seconds"] for s in steps)}
                if tracer is not None:
                    rep["layers"] = tracing.layer_metrics(tracer)
                    rep["absent"] = tracer.absent
                    rep["split"] = tracer.command_split()
                report["reps"].append(rep)
    report["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    main(*sys.argv[1:3])
