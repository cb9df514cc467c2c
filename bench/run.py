"""steanedec benchmark: closed-loop CLI pipelines, end to end and per layer.

    python3 bench/run.py --workload lut-memory --seed 0 --seconds 40 --trace 0

Each iteration starts ``workload.py`` as a fresh process that runs the
workload's CLI stages in order; the next iteration starts when the
previous one has ended. Iterations repeat while the next one is expected
to finish within ``--seconds``, and every run makes at least one. A run
first starts a few set-up-only processes, so ``setup_s`` is a median of
several set-ups.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced iterations and reports the per-layer metrics plus
``trace.overhead_frac``. ``--workload all`` runs every workload in turn.
A table of every metric (median, quartiles, sample count) precedes a
JSON record with provenance; the last line is the result object, with
the metrics that ``BENCHMARK.json`` names. Outputs go to ``.bench_out/``
at the root of the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("lut-memory", "srnn-pipeline", "dnn2-monitor")
SETUP_PROBES = 3
CHILD_TIMEOUT_S = 150

# end-to-end metric -> (unit, workloads it applies to). BENCHMARK.json
# gates the ones that every workload reports and that repeat closely
# enough between runs (see README.md).
E2E = {
    "wall_s": ("s", WORKLOADS),
    "setup_s": ("s", WORKLOADS),
    "gen_data_shots_per_s": ("shots/s", WORKLOADS),
    "peak_rss_mb": ("MB", WORKLOADS),
    "train_samples_per_s": ("sample-epochs/s",
                            ("srnn-pipeline", "dnn2-monitor")),
    "dep_faults_per_s": ("faults/s", ("lut-memory",)),
    "eval_shots_per_s": ("shots/s", ("lut-memory", "srnn-pipeline")),
    "explain_pairs_per_s": ("pairs/s", ("srnn-pipeline",)),
    "monitor_epoch_s": ("s", ("dnn2-monitor",)),
    "shapley_inputs_per_s": ("inputs/s", ("dnn2-monitor",)),
}


def layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last.endswith("_per_s"):
        return last[:-len("_per_s")] + "/s"
    if last.endswith("_s"):
        return "s"
    return {"bytes": "B", "rows_per_call": "rows/call",
            "dep_rows_per_call": "rows/call",
            "gates_per_fault": "gates/fault"}.get(
        last, "ratio" if last.endswith("frac") else "count")


def blas_threads() -> int:
    return len(os.sched_getaffinity(0))


def provenance(seed: int, workload: str) -> dict:
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for f in sorted(files):
            if f.endswith(".py"):
                path = os.path.join(base, f)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {"git_commit": commit, "src_sha256": digest.hexdigest(),
            "workload": workload, "seed": seed, "nproc": os.cpu_count(),
            "blas_threads": blas_threads(),
            "python": sys.version.split()[0], **versions}


def launch(workload: str, seed: int, trace: int, index: int,
           setup_only: bool = False) -> dict:
    tag = f"{workload}-s{seed}-{index}"
    wdir = os.path.join(OUT, "work", tag)
    shutil.rmtree(wdir, ignore_errors=True)
    os.makedirs(wdir)
    result_path = os.path.join(OUT, "work", tag + ".json")
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = str(blas_threads())
    cmd = [sys.executable, os.path.join(HERE, "workload.py"),
           "--workload", workload, "--seed", str(seed), "--dir", wdir,
           "--result", result_path, "--trace", str(trace),
           "--iteration", str(index)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd + ["--t0", repr(t0)], cwd=ROOT, env=env,
                            stdout=subprocess.DEVNULL)
    try:
        rc = proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        rc = None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    result = {"checks": {"process_exit_0": False}}
    if rc == 0:
        with open(result_path) as fh:
            result = json.load(fh)
        result.setdefault("checks", {})["process_exit_0"] = True
    result["process_s"] = time.monotonic() - t0
    if trace and os.path.exists(result_path + ".spans.json"):
        os.replace(result_path + ".spans.json",
                   os.path.join(OUT, f"spans_{workload}_seed{seed}.json"))
    shutil.rmtree(wdir, ignore_errors=True)
    if os.path.exists(result_path):
        os.remove(result_path)
    return result


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (med, med, med))
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def run_workload(workload: str, seed: int, seconds: float,
                 trace: int) -> dict:
    start = time.monotonic()
    probes = [launch(workload, seed, 0, i, setup_only=True)
              for i in range(SETUP_PROBES)]
    plain, traced = [], []
    index = SETUP_PROBES
    while True:
        use_trace = bool(trace) and len(plain) > len(traced)
        it = launch(workload, seed, int(use_trace), index)
        index += 1
        (traced if use_trace else plain).append(it)
        if "wall_s" not in it:
            break
        if trace and not traced:
            continue
        elapsed = time.monotonic() - start
        typical = statistics.median(r["process_s"] for r in plain + traced)
        if elapsed + typical > seconds:
            break

    iterations = plain + traced
    checks = {}
    for r in probes + iterations:
        for k, ok in r.get("checks", {}).items():
            checks.setdefault(k, []).append(ok)
    attempted = sum(len(v) for v in checks.values())
    failed = sum(v.count(False) for v in checks.values())

    ok_plain = [r for r in plain if "metrics" in r]
    e2e = {}
    setups = [r["setup_s"] for r in probes + plain if "setup_s" in r]
    if setups:
        e2e["setup_s"] = summary(setups)
    for key in ("wall_s", "peak_rss_mb"):
        vals = [r[key] for r in ok_plain]
        if vals:
            e2e[key] = summary(vals)
    for key in E2E:
        vals = [r["metrics"][key] for r in ok_plain
                if key in r["metrics"]]
        if vals:
            e2e[key] = summary(vals)
    layers = {}
    ok_traced = [r for r in traced if "layers" in r]
    if ok_traced:
        for key in ok_traced[0]["layers"]:
            layers[key] = summary([r["layers"][key] for r in ok_traced])
        if ok_plain:
            layers["trace.overhead_frac"] = summary([
                statistics.median(r["wall_s"] for r in ok_traced)
                / statistics.median(r["wall_s"] for r in ok_plain) - 1.0])
    first = next((r for r in iterations if "config" in r), {})
    return {"workload": workload, "attempted": attempted, "failed": failed,
            "failed_checks": sorted(k for k, v in checks.items()
                                    if not all(v)),
            "end_to_end": e2e, "per_layer": layers,
            "iterations": {"untraced": len(plain), "traced": len(traced),
                           "setup_probes": len(probes)},
            "eval_p_l": first.get("eval_p_l"),
            "max_residual": max((r.get("max_residual", 0.0)
                                 for r in iterations), default=0.0),
            "untraced_each": [{k: r.get(k) for k in
                               ("wall_s", "setup_s", "stage_s", "metrics")}
                              for r in plain],
            "traced_wall_s_each": [r.get("wall_s") for r in traced],
            "stage_s": {k: summary([r["stage_s"][k] for r in ok_plain])
                        for k in first.get("stage_s", {}) if ok_plain},
            "config": first.get("config"),
            "provenance": provenance(seed, workload),
            "run_s": time.monotonic() - start}


def print_table(rec: dict):
    w = rec["workload"]
    print(f"== {w}: {rec['iterations']}, checks failed "
          f"{rec['failed']}/{rec['attempted']}"
          + (f" {rec['failed_checks']}" if rec["failed_checks"] else ""))
    print(f"  {'metric':48s} {'median':>14s} {'unit':16s} [q1, q3] n")
    rows = [(k, E2E[k][0], v) for k, v in rec["end_to_end"].items()
            if w in E2E[k][1]]
    rows.append(("failed_frac", "ratio",
                 {"median": rec["failed"] / max(rec["attempted"], 1),
                  "q1": float("nan"), "q3": float("nan"),
                  "n": rec["attempted"]}))
    rows += [(f"stage.{k}", "s", v) for k, v in rec["stage_s"].items()]
    rows += [(k, layer_unit(k), v) for k, v in rec["per_layer"].items()]
    for name, unit, s in rows:
        print(f"  {name:48s} {s['median']:14.6g} {unit:16s} "
              f"[{s['q1']:.6g}, {s['q3']:.6g}] n={s['n']}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "steanedec", "cli.py")):
        print(f"error: no steanedec sources under {ROOT}/src", file=sys.stderr)
        sys.exit(2)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        gated = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    os.makedirs(OUT, exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        rec = run_workload(name, args.seed, args.seconds, args.trace)
        with open(os.path.join(
                OUT, f"result_{name}_seed{args.seed}_trace{args.trace}.json"),
                "w") as fh:
            json.dump(rec, fh, indent=1)
        print_table(rec)
        print(json.dumps(rec, sort_keys=True))
        measured = rec["per_layer" if args.trace else "end_to_end"]
        metrics = {m["name"]: {"value": measured[m["name"]]["median"],
                               "unit": m["unit"]}
                   for m in gated if m["name"] in measured}
        print(json.dumps({"correct": rec["failed"] == 0,
                          "attempted": rec["attempted"],
                          "failed": rec["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
