#!/usr/bin/env python3
"""Serving benchmark of hpcpredict: open-loop latency and capacity of a live
hpcp-serve/1 server, plus a traced per-layer run.

    python3 perfbench/run.py --workload cold-predict --seed 3 --seconds 16 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table
    python3 perfbench/run.py --workload all --repeat 10 --results-dir DIR

Run from the root of a checkout. The first run configures and builds
perfbench/CMakeLists.txt (the repository's src/ libraries plus the
perfbench_serve binary) in Release mode under $CARGO_TARGET_DIR, default
.bench_build. Nominal rates, default seeds and the layer-to-metric map live
in perfbench/workloads.json; metric names, units and bounds in
BENCHMARK.json. Each run's full result (every metric, diagnostics and a
host stamp) is written to --results-dir (default .bench_results), which
perfbench/compare.py reads. The last line of standard output is the
JSON object {"correct", "attempted", "failed", "metrics"} of the run.

Exit status: 0 measured and correct; 1 a correctness check failed; 2 the
benchmark could not be built or started; 3 the load generator fell behind
its schedule (twice), so the run is not a measurement and no JSON object is
printed for it. With --repeat or --workload all the last line summarises
every run instead, with "valid" false when any run was not a measurement.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
# One run of perfbench_serve (after the build) must end within this.
RUN_TIMEOUT_S = 170


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_json(path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}", 2)


def build(build_dir):
    """Configures (once) and builds perfbench_serve; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no src/CMakeLists.txt here: run from the root of an hpcpredict "
             "checkout", 2)
    if shutil.which("cmake") is None:
        fail("cmake not found", 2)
    if not (build_dir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_quiet(cmd, "configure")
    run_quiet(["cmake", "--build", str(build_dir), "--target",
               "perfbench_serve", "-j", str(min(4, os.cpu_count() or 1))],
              "build")
    return build_dir / "perfbench_serve"


def run_quiet(cmd, what):
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        print(proc.stdout[-4000:], file=sys.stderr)
        fail(f"{what} failed ({' '.join(cmd)})", 2)


def source_digest():
    """SHA-256 over src/ and perfbench/ sources: identifies the code when
    the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and path.suffix in (".cpp", ".hpp", ".txt",
                                                  ".py", ".json"):
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()


def host_stamp(binary_host):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        commit = proc.stdout.strip() or None
    stamp = {"nproc": os.cpu_count(), "cpu_model": cpu, "git_commit": commit,
             "source_sha256": source_digest()}
    stamp.update(binary_host)
    return stamp


def run_one(binary, bench, catalog, workload, seed, seconds, trace,
            build_dir, results_dir):
    spec = catalog["workloads"][workload]
    run_dir = build_dir / "run" / f"{workload}-s{seed}-t{trace}-{os.getpid()}"
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--rate", str(spec["nominal_rps"]), "--run-dir", str(run_dir)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        shutil.rmtree(run_dir, ignore_errors=True)
        fail(f"{workload}: run exceeded {RUN_TIMEOUT_S} s")
    for line in proc.stderr.splitlines():
        print(f"  [{workload}] {line}")
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        shutil.rmtree(run_dir, ignore_errors=True)
        fail(f"{workload}: perfbench_serve exited {proc.returncode} without a result")

    kind = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in bench[kind]}
    missing = [n for n in units if n not in result["metrics"]]
    if missing:
        result["correct"] = False
        result["errors"].append(f"missing metrics: {missing}")

    result["host"] = host_stamp(result.get("host", {}))
    if result["host"].get("build_type") != "Release":
        fail("refusing to report from a non-Release build", 2)
    result["workload_spec"] = spec
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{trace}-{int(time.time() * 1000)}"
    if trace and (run_dir / "trace.json").is_file():
        shutil.move(str(run_dir / "trace.json"),
                    str(results_dir / f"{stem}.trace.json"))
        result["chrome_trace"] = f"{stem}.trace.json"
    (results_dir / f"{stem}.json").write_text(json.dumps(result, indent=1))
    shutil.rmtree(run_dir, ignore_errors=True)

    print(f"{workload} seed={seed} trace={trace} correct={result['correct']} "
          f"valid={result.get('valid', True)} "
          f"attempted={result['attempted']} failed={result['failed']}")
    all_units = dict(units)
    for m in bench["end_to_end"] + bench["per_layer"]:
        all_units.setdefault(m["name"], m["unit"])
    for name, value in result["metrics"].items():
        unit = all_units.get(name, catalog["extra_units"].get(name, ""))
        print(f"  {name:32s} {value:14.6g} {unit}")
    for e in result["errors"]:
        print(f"  CHECK FAILED: {e}")
    host = result["host"]
    print(f"  host: nproc={host['nproc']} cpu={host['cpu_model']!r} "
          f"forest_isa={host.get('forest_isa')} "
          f"compiler={host.get('compiler')!r} "
          f"build={host.get('build_type')} store_fs={host.get('store_fs')} "
          f"commit={host['git_commit'] or 'n/a'} "
          f"src={host['source_sha256'][:12]}")
    final = {"valid": bool(result.get("valid", True)),
             "correct": bool(result["correct"]),
             "attempted": int(result["attempted"]),
             "failed": int(result["failed"]),
             "metrics": {n: {"value": result["metrics"][n], "unit": u}
                         for n, u in units.items()
                         if n in result["metrics"]}}
    return final


def main():
    bench = load_json(ROOT / "BENCHMARK.json")
    catalog = load_json(BENCH_DIR / "workloads.json")
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=None,
                    help="workload seed (default: the one in workloads.json)")
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=1,
                    help="runs per workload, with seeds seed, seed+1, ...")
    ap.add_argument("--results-dir", default=".bench_results")
    args = ap.parse_args()

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(build_dir)
    results_dir = ROOT / args.results_dir
    workloads = names if args.workload == "all" else [args.workload]
    single = len(workloads) == 1 and args.repeat == 1
    finals = []
    for workload in workloads:
        base = (args.seed if args.seed is not None
                else catalog["workloads"][workload]["seed"])
        for k in range(args.repeat):
            finals.append(run_one(binary, bench, catalog, workload, base + k,
                                  args.seconds, args.trace, build_dir,
                                  results_dir))
    ok = all(f["correct"] for f in finals)
    valid = all(f.pop("valid") for f in finals)
    if not ok:
        code = 1
    elif not valid:
        code = 3
    else:
        code = 0
    if single:
        if not valid:
            fail(f"{workloads[0]}: the load generator fell behind its "
                 "schedule; this run is not a measurement", code)
        print(json.dumps(finals[0]))
    else:
        print(json.dumps({"correct": ok, "valid": valid,
                          "attempted": sum(f["attempted"] for f in finals),
                          "failed": sum(f["failed"] for f in finals),
                          "runs": len(finals)}))
    sys.exit(code)


if __name__ == "__main__":
    main()
