#!/usr/bin/env python3
"""rd-toolkit benchmark: end-to-end CLI workloads and a traced library run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload large_file --seed 1 --seconds 20 --trace 0

``--trace 0`` generates the workload's inputs from the seed, runs its
CLI sequence as fresh ``python -m rdtoolkit`` processes against the
checkout's ``src/`` tree until ``--seconds`` have passed (at least twice,
so reports can be compared across repeats), checks every report, and
prints the end-to-end metrics.  ``--trace 1`` instead runs
``traced.py``: one in-process pass over all three workloads' library
calls with a span around each, and prints the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metrics are
those ``BENCHMARK.json`` declares for the chosen mode.  Everything the
run writes goes under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import numpy as np

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ".perfbench"           # relative to ROOT; CLI paths stay relative
REFERENCE = HERE / "reference.json"
REFERENCE_SEED = 1
MIN_ITERATIONS = 2            # repeats needed for the byte-identity check
SETUP_REPEATS = 5             # fresh interpreters timed for setup_s

# The processor's speed on a shared 2-core VM drifts by up to ~60% over
# seconds to minutes (a fixed loop took 0.124-0.199 s in one minute), and
# every wall time moves with it.  Gated times are therefore given in
# reference seconds: wall time times the probe's reference time over the
# median of that probe timed after every child of the same phase of the
# run, with the runner and its children pinned to one CPU.  A reference
# time is the probe's time on that VM in a quiet phase, so there a
# reference second is a wall second.
PROBE_REPEATS = 5


def fingerprint() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy")}


def child_env() -> dict:
    """Environment for every child: the checkout's src/ first on the path,
    and no worker-count override, since no call passes --threads."""
    env = dict(os.environ)
    env.pop("RD_TOOLKIT_THREADS", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, env, stderr_path):
    """Run one child to completion: (wall seconds, exit code, peak RSS MB)."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env,
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def probe_interpreter_s() -> float:
    """Median time of a pure-Python loop plus a numpy loop (~25 ms)."""
    times = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i
        a = np.arange(100_000, dtype=float)
        for _ in range(30):
            a = np.sqrt(a * a + 1.0)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def probe_small_arrays_s() -> float:
    """Median time of 150 small least-squares fits on fresh draws (~7 ms)."""
    rng = np.random.default_rng(0)
    times = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        for _ in range(150):
            x = rng.uniform(-1.0, 1.0, 200)
            np.linalg.lstsq(np.vander(x, 3, increasing=True), x ** 3,
                            rcond=None)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


# probe kind -> (probe, its time in a quiet phase of the reference VM)
PROBES = {"interpreter": (probe_interpreter_s, 0.025),
          "small_arrays": (probe_small_arrays_s, 0.007)}


class Stopwatch:
    """Runs children and times a CPU probe before the first and after each."""

    def __init__(self, kind: str):
        self.probe, self.reference_s = PROBES[kind]
        self.probes = [self.probe()]

    def run(self, argv, env, stderr_path):
        """(wall s, exit code, peak RSS MB) of one child."""
        result = run_child(argv, env, stderr_path)
        self.probes.append(self.probe())
        return result

    def scale(self) -> float:
        """Reference seconds per wall second over this stopwatch's children."""
        return self.reference_s / statistics.median(self.probes)


def pin_to_one_cpu() -> None:
    """Keep the runner and its children on one CPU, so that the probe
    times the processor the children ran on."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def check_tree(env) -> None:
    """Refuse to run unless rdtoolkit resolves to this checkout's src/."""
    if not (ROOT / "src" / "rdtoolkit" / "__init__.py").is_file():
        sys.exit(f"perfbench: no src/rdtoolkit under {ROOT}; run from a "
                 f"checkout of the repository")
    found = subprocess.run(
        [sys.executable, "-c", "import rdtoolkit; print(rdtoolkit.__file__)"],
        cwd=ROOT, env=env, capture_output=True, text=True, check=False)
    expected = (ROOT / "src" / "rdtoolkit" / "__init__.py").resolve()
    if found.returncode != 0 or Path(found.stdout.strip()).resolve() != expected:
        sys.exit(f"perfbench: rdtoolkit does not import from {expected}: "
                 f"{found.stdout.strip() or found.stderr.strip()}")


def make_inputs(names, seed, work_dir) -> dict:
    """Write the seeded CSVs the workloads need; {workload: (path, sha)}.

    Each CSV is written by a child process.  A child's ru_maxrss includes
    its parent's peak RSS at spawn time, so the parent must never hold a
    large input itself, or every child's peak RSS would read at least as
    high as the generator's.
    """
    made = {}
    for name in names:
        rows = workloads.INPUT_ROWS.get(name)
        if rows is None:
            continue
        path = f"{work_dir}/{name}.csv"
        start = time.perf_counter()
        digest = subprocess.run(
            [sys.executable, str(HERE / "inputs.py"), path,
             "--rows", str(rows), "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()
        print(f"input {path} rows={rows} sha256={digest} "
              f"generated_s={time.perf_counter() - start:.3f}", flush=True)
        made[name] = (path, digest)
    return made


def measure_setup(env, work_dir, watch) -> list[tuple[float, float]]:
    """(wall s, peak RSS MB) of fresh interpreters that import rdtoolkit.cli."""
    runs = []
    for _ in range(SETUP_REPEATS):
        wall, code, rss = watch.run(
            [sys.executable, "-c", "import rdtoolkit.cli"], env,
            ROOT / work_dir / "setup.stderr")
        if code != 0:
            sys.exit("perfbench: importing rdtoolkit.cli failed")
        runs.append((wall, rss))
    return runs


def run_workload(sequence, seconds, env, work_dir, digest, reference, watch):
    """Repeat the CLI sequence; return (iterations, attempted, failed, fields).

    Each iteration maps call labels to (wall s, peak RSS MB).
    ``reference`` maps call labels to their recorded key fields, or is
    None when the run is not at the reference seed.
    """
    first_bytes = {}
    fields_by_label = {}
    iterations, attempted, failed = [], 0, 0
    start = time.perf_counter()
    while (len(iterations) < MIN_ITERATIONS
           or time.perf_counter() - start < seconds):
        results = []
        for call in sequence:
            for out in (call.output, call.svg):
                if out:
                    (ROOT / out).unlink(missing_ok=True)
            results.append(watch.run(
                [sys.executable, "-m", "rdtoolkit", *call.argv], env,
                ROOT / work_dir / f"{call.label}.stderr"))

        for call, (_, code, _) in zip(sequence, results):
            problems = [] if code == 0 else [f"exit code {code}"]
            data = (ROOT / call.output).read_bytes() if code == 0 else b""
            if code == 0:
                fields, found = checks.check_report(
                    call.command, data, digest,
                    {"rows": call.rows, "replications": call.replications},
                    None if reference is None else reference[call.label])
                problems += found
                fields_by_label[call.label] = fields
            if call.svg and code == 0:
                data += (ROOT / call.svg).read_bytes()
            if first_bytes.setdefault(call.label, data) != data:
                problems.append("output bytes differ from the first repeat")
            attempted += 1
            if problems:
                failed += 1
                print(f"FAILED {call.label} (iteration {len(iterations) + 1})"
                      f": {'; '.join(problems)}", flush=True)
        iterations.append({call.label: (wall, rss) for call, (wall, _, rss)
                           in zip(sequence, results)})
        print(f"iteration {len(iterations)}: " + " ".join(
            f"{label}: {wall:.3f} s {rss:.0f} MB"
            for label, (wall, rss) in iterations[-1].items()), flush=True)
    return iterations, attempted, failed, fields_by_label


def e2e_metrics(sequence, iterations, setup_runs, setup_scale, scale,
                attempted, failed) -> dict:
    """Every end-to-end metric that applies to the workload.

    Times are medians over the repeats, in reference seconds (wall time
    times the scale measured over the same phase of the run) except the
    ``*_clock_s`` ones.
    """
    def med(per_iteration):
        return statistics.median(per_iteration(it) for it in iterations)

    def command_wall(it, command):
        return sum(it[c.label][0] for c in sequence if c.command == command)

    wall = med(lambda it: sum(w for w, _ in it.values()))
    setup = statistics.median(w for w, _ in setup_runs)
    metrics = {"wall_s": (wall * scale, "s"), "wall_clock_s": (wall, "s"),
               "setup_s": (setup * setup_scale, "s"),
               "setup_clock_s": (setup, "s"),
               "setup_rss_mb": (statistics.median(r for _, r in setup_runs),
                                "MB"),
               "peak_rss_mb": (med(lambda it: max(r for _, r in it.values())),
                               "MB"),
               "probe_scale": (scale, "ratio"),
               "setup_probe_scale": (setup_scale, "ratio")}
    for command in dict.fromkeys(c.command for c in sequence):
        metrics[f"{command}_s"] = (
            med(lambda it: command_wall(it, command)) * scale, "s")
    rows = sum(c.rows for c in sequence)
    if rows:
        metrics["rows_per_s"] = (rows / metrics["wall_s"][0], "rows/s")
    replications = sum(c.replications for c in sequence)
    if replications:
        metrics["replications_per_s"] = (
            replications / metrics["simulate_s"][0], "1/s")
    metrics["error_rate"] = (failed / attempted, "ratio")
    return metrics


def run_e2e(args, env, work_dir):
    csvs = make_inputs([args.workload], args.seed, work_dir)
    pin_to_one_cpu()
    setup_watch = Stopwatch("interpreter")
    setup_runs = measure_setup(env, work_dir, setup_watch)
    watch = Stopwatch(workloads.PROBE[args.workload])
    print("setup: " + " ".join(f"{w:.3f} s {r:.0f} MB" for w, r in setup_runs),
          flush=True)
    path, digest = csvs.get(args.workload, (None, None))
    sequence = workloads.calls(args.workload, path, work_dir, args.seed)
    reference = None
    if args.seed == REFERENCE_SEED and not args.update_reference:
        reference = json.loads(REFERENCE.read_text())[args.workload]
    iterations, attempted, failed, fields = run_workload(
        sequence, args.seconds, env, work_dir, digest, reference, watch)
    if args.update_reference:
        if args.seed != REFERENCE_SEED or failed:
            sys.exit("perfbench: record the reference at the reference seed "
                     "from a run without failures")
        ref = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
        ref[args.workload] = fields
        REFERENCE.write_text(json.dumps(ref, indent=2, sort_keys=True) + "\n")
    metrics = e2e_metrics(sequence, iterations, setup_runs,
                          setup_watch.scale(), watch.scale(), attempted,
                          failed)
    summary = {"iterations": iterations, "setup_runs": setup_runs,
               "setup_probes": setup_watch.probes, "probes": watch.probes,
               "inputs": csvs}
    return metrics, attempted, failed, summary


def run_traced(args, env, work_dir):
    csvs = make_inputs(workloads.INPUT_ROWS, args.seed, work_dir)
    out = f"{work_dir}/traced.json"
    argv = [sys.executable, str(HERE / "traced.py"),
            "--seed", str(args.seed), "--large", csvs["large_file"][0],
            "--session", csvs["covariate_session"][0],
            "--spans", f"{WORK}/spans.json", "--output", out]
    wall, code, _ = run_child(argv, env, ROOT / work_dir / "traced.stderr")
    if code != 0:
        sys.stderr.write((ROOT / work_dir / "traced.stderr").read_text())
        sys.exit(f"perfbench: traced run exited with {code}")
    result = json.loads((ROOT / out).read_text())
    for name, (_, digest) in csvs.items():
        result["attempted"] += 1
        if result["digests"].get(name) != digest:
            result["problems"].append(
                f"sha256_file({name}) differs from the generator's digest")
            result["failed"] += 1
    for problem in result["problems"]:
        print(f"FAILED {problem}", flush=True)
    for key, value in sorted(result["self_s"].items(), key=lambda kv: -kv[1]):
        print(f"self {key} = {value:.4f} s", flush=True)
    metrics = {k: tuple(v) for k, v in result["metrics"].items()}
    summary = {"traced_process_s": wall, "inputs": csvs,
               "self_s": result["self_s"]}
    return metrics, result["attempted"], result["failed"], summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=REFERENCE_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--update-reference", action="store_true",
                    help="record this run's key fields as the reference "
                         "(reference seed, --trace 0 only)")
    args = ap.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    env = child_env()
    check_tree(env)
    machine = fingerprint()
    print("perfbench " + " ".join(f"{k}={v}" for k, v in machine.items())
          + f" workload={args.workload} seed={args.seed} trace={args.trace}",
          flush=True)

    work_dir = f"{WORK}/{args.workload}"
    shutil.rmtree(ROOT / work_dir, ignore_errors=True)
    (ROOT / work_dir).mkdir(parents=True)
    try:
        runner = run_traced if args.trace else run_e2e
        metrics, attempted, failed, summary = runner(args, env, work_dir)
    finally:
        for csv in (ROOT / work_dir).glob("*.csv"):
            csv.unlink()

    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}", flush=True)
    missing = [m["name"] for m in wanted
               if metrics.get(m["name"], (None, None))[1] != m["unit"]]
    if missing:
        sys.exit(f"perfbench: declared metrics not measured in their "
                 f"declared unit: {missing}")
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "machine": machine,
              "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}, **summary}
    (ROOT / WORK / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0],
                                "unit": metrics[m["name"]][1]}
                    for m in wanted}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
