"""Layered benchmark for the qgsw-vstates command-line toolkit.

Drives ``qgsw_vstates.cli.main`` in this process with ``--jobs 1``, one
workload per run, in a closed loop (one caller, next call after the last
returns), and checks every output.  A run makes at least one iteration and
then more while another fits, at the pace so far, within ``--seconds``.

    python3 perfbench/run.py --workload branch-ref --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25 --trace 0

``--trace 0`` reports the end-to-end metrics (medians over the run's
iterations); ``--trace 1`` alternates an untraced and a traced iteration
and reports the per-layer metrics of the first traced one, the tracing
overhead (traced minus untraced wall time), and fails a check when the
exact counters differ between the iterations.  The last line of standard
output is one JSON object; lines before it name every metric with its
unit.  Results, with the run environment, go to
``.perfbench_out/results/`` and the spans of a traced run to
``.perfbench_out/spans/``.  Exit code 0 when every check passed, 1 when a
check failed, 2 when the program under test is missing.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_REPEATS = 5

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _call_cli(cli, argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1


def run_once(cli, argvs, work_dir):
    """One workload iteration: (wall s, CPU s, output dirs, exit codes)."""
    shutil.rmtree(work_dir, ignore_errors=True)
    dirs = [work_dir / str(i) for i in range(len(argvs))]
    codes = []
    wall, cpu = time.perf_counter(), time.process_time()
    for argv, out in zip(argvs, dirs):
        codes.append(_call_cli(cli, [*argv, "--out", str(out), "--jobs", "1"]))
    return time.perf_counter() - wall, time.process_time() - cpu, dirs, codes


def _another_fits(start, iterations, seconds):
    """True when one more iteration, at the mean pace so far, ends within ``seconds``."""
    elapsed = time.perf_counter() - start
    return elapsed * (iterations + 1) / iterations <= seconds


def check_outputs(check, checks, *args):
    """Run one workload check; unreadable output counts as a failed check."""
    try:
        check(*args, checks)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        checks.expect(False, f"unreadable output: {type(exc).__name__}: {exc}")


def measure_setup(workload, seed):
    """Median time, in a fresh interpreter, to import the CLI and build the grid."""
    code = (
        "import time\nt0 = time.perf_counter()\nimport qgsw_vstates.cli\n"
        f"{workload.setup_code(seed)}\nprint(time.perf_counter() - t0)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def _blas():
    """(library, thread count) of the BLAS numpy loaded; threads None if unknown."""
    import numpy as np

    config = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    library = f"{config.get('name')} {config.get('version')}"
    try:
        with open("/proc/self/maps") as handle:
            paths = {line.split()[-1] for line in handle if "openblas" in line and "/" in line}
    except OSError:
        paths = set()
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return library, getter()
    return library, None


def _commit():
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def environment(args, argvs):
    import numpy as np

    digest = hashlib.sha256()
    for path in sorted((SRC / "qgsw_vstates").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    library, threads = _blas()
    return {
        "commit": _commit(),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": library,
        "blas_threads": threads,
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cli_calls": argvs,
    }


def measure(workload, cli, argvs, seed, seconds, work_dir, checks):
    """Untraced closed loop: end-to-end metrics."""
    setup_s = measure_setup(workload, seed)
    walls, cpus = [], []
    start = time.perf_counter()
    while not walls or _another_fits(start, len(walls), seconds):
        wall, cpu, dirs, codes = run_once(cli, argvs, work_dir)
        walls.append(wall)
        cpus.append(cpu)
        check_outputs(workload.check, checks, dirs, codes)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    check_outputs(workload.final_check, checks, dirs)
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "setup_s": setup_s,
        "peak_rss_mb": peak_mb,
    }
    return metrics, {"wall_s": walls, "cpu_s": cpus}


def measure_traced(workload, cli, argvs, seconds, work_dir, checks, spans_path):
    """Pairs of (exact-counter-only, fully traced) iterations: per-layer metrics."""
    from layers import exact_counters, layer_metrics
    from tracer import EXACT_TARGETS, FULL_TARGETS, Tracer

    plain_walls, traced_walls, first, reference = [], [], None, None
    start = time.perf_counter()
    while not traced_walls or _another_fits(start, len(traced_walls), seconds):
        for targets in (EXACT_TARGETS, FULL_TARGETS):
            with Tracer(targets) as tracer:
                wall, _, dirs, codes = run_once(cli, argvs, work_dir)
            check_outputs(workload.check, checks, dirs, codes)
            counters = exact_counters(tracer)
            if reference is None:
                reference = counters
            else:
                checks.expect(counters == reference, f"exact counters differ: {counters} != {reference}")
            if targets is EXACT_TARGETS:
                plain_walls.append(wall)
            else:
                traced_walls.append(wall)
                if first is None:
                    first = tracer
    check_outputs(workload.final_check, checks, dirs)
    first.write(spans_path)
    metrics = layer_metrics(first, statistics.median(plain_walls), statistics.median(traced_walls))
    return metrics, {"plain_wall_s": plain_walls, "traced_wall_s": traced_walls, "spans": str(spans_path)}


def run_workload(args, workloads):
    import qgsw_vstates
    from qgsw_vstates import cli
    from layers import UNITS
    from workloads import Checks

    if Path(qgsw_vstates.__file__).resolve().parent != SRC / "qgsw_vstates":
        print(f"error: imported {qgsw_vstates.__file__}, not the checkout's src/", file=sys.stderr)
        return 2
    workload = workloads[args.workload]
    argvs = workload.argv(args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = OUT / "work" / f"{tag}-{os.getpid()}"
    for sub in ("results", "spans"):
        (OUT / sub).mkdir(parents=True, exist_ok=True)
    checks = Checks()
    try:
        if args.trace:
            spans_path = OUT / "spans" / f"{args.workload}-seed{args.seed}.csv.gz"
            metrics, samples = measure_traced(workload, cli, argvs, args.seconds, work_dir, checks, spans_path)
            units = UNITS
        else:
            metrics, samples = measure(workload, cli, argvs, args.seed, args.seconds, work_dir, checks)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    env = environment(args, argvs)
    failed = len(checks.failures)
    result = {
        "correct": failed == 0,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    with open(OUT / "results" / f"{tag}.json", "w") as handle:
        json.dump({**result, "environment": env, "samples": samples, "failures": checks.failures}, handle, indent=1)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} environment={json.dumps(env)}")
    for reason in checks.failures[:20]:
        print(f"# FAILED CHECK: {reason}")
    print(f"{args.workload} failed_frac = {_ratio_text(failed, checks.attempted)} checks")
    for name, entry in result["metrics"].items():
        print(f"{args.workload} {name} = {entry['value']!r} {entry['unit']}")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def _ratio_text(failed, attempted):
    return f"{failed / attempted if attempted else 0.0:.4g} ({failed}/{attempted})"


def run_all(args, workloads):
    """Each workload in its own process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"error: workload {name} exited {proc.returncode} without a result", file=sys.stderr)
            return 2
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(f"all failed_frac = {_ratio_text(combined['failed'], combined['attempted'])} checks")
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None):
    if not (SRC / "qgsw_vstates" / "cli.py").is_file():
        print(f"error: {SRC / 'qgsw_vstates'} not found; run from a qgsw-vstates checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    args = _parse_args(argv, WORKLOADS)
    if args.workload == "all":
        return run_all(args, WORKLOADS)
    return run_workload(args, WORKLOADS)


if __name__ == "__main__":
    raise SystemExit(main())
