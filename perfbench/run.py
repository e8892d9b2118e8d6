"""Run one benchmark workload through the shotgenre CLI and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fusion_train --seed 1 --seconds 30 --trace 0

``--trace 0`` repeats the workload's CLI commands for about ``--seconds``
seconds with tracing off, sets the inputs up again before each pass, and
reports medians of the end-to-end metrics listed in ``BENCHMARK.json``.
``--trace 1`` runs the workload once untraced and once with every public
function of the traced modules wrapped in spans, checks that both runs wrote
byte-identical artifacts, and reports the per-layer metrics of
``BENCHMARK.json`` with the tracing overhead. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

All files are written under ``.bench_work/`` in the checkout and the run
directory is removed at exit; a traced run leaves its spans in
``.bench_work/trace/<workload>.spans.npz``.
"""

import argparse
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"

# The modules whose public functions the traced run wraps; ``cli`` is traced
# from here, one span per command, because it exports no functions.
TRACED_LAYERS = ("featurestore", "aggregate", "nn", "fusion", "metrics",
                 "textlab", "analysis", "sceneboundary")

# A timed run alternates batches of set-ups with passes, so that set-ups and
# passes are sampled across the whole run rather than in one burst. A batch
# repeats the set-up until it has taken SETUP_BATCH_SECONDS, which gives a
# set-up of a few milliseconds a steady median; the run sets up at least
# SETUP_REPEATS times in all.
SETUP_REPEATS = 3
SETUP_BATCH_SECONDS = 0.25

NPROC = len(os.sched_getaffinity(0))


class SetupError(RuntimeError):
    pass


class Runner:
    """Runs CLI commands in-process and counts attempts and failures."""

    def __init__(self, threads: int, tracer=None):
        from shotgenre import cli

        self._run = cli.run
        self.threads = threads
        self.tracer = tracer
        self.attempted = 0
        self.failures = []

    def cli(self, command: str, argv: list) -> int:
        """Run one command; returns its exit code (1 if it raised)."""
        argv = ["--threads", str(self.threads), *argv]
        self.attempted += 1
        try:
            with redirect_stdout(io.StringIO()):
                if self.tracer is None:
                    code = self._run(argv)
                else:
                    code = self.tracer.call(f"cli.{command}", self._run, argv)
        except Exception:
            traceback.print_exc()
            code = 1
        if code != 0:
            self.failures.append(f"{command}: exit code {code}")
        return code

    def step(self, step, out_dir) -> float:
        """Run a workload step, check its output; returns its seconds."""
        start = time.perf_counter()
        code = self.cli(step.command, step.argv)
        elapsed = time.perf_counter() - start
        if code == 0 and step.check is not None:
            try:
                problems = step.check(out_dir)
            except (OSError, ValueError, KeyError) as exc:
                problems = [f"output unreadable: {exc!r}"]
            if problems:
                self.failures.append(f"{step.command}: " + "; ".join(problems))
        return elapsed

    def one_pass(self, workload, data_dir, out_dir, seed) -> dict:
        """Run the workload's steps once; ``{command: seconds}``, the median
        for a command the workload repeats."""
        out_dir.mkdir(parents=True)
        times = {}
        for step in workload.steps(data_dir, out_dir, seed):
            times.setdefault(step.command, []).append(self.step(step, out_dir))
        return {command: statistics.median(t) for command, t in times.items()}


def set_up(workload, runner, data_dir, seed) -> float:
    data_dir.mkdir(parents=True)
    start = time.perf_counter()
    ok = workload.setup(runner, data_dir, seed)
    elapsed = time.perf_counter() - start
    if not ok:
        raise SetupError(f"{workload.name}: set-up failed: {runner.failures}")
    return elapsed


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def timed_run(workload, seed, seconds, workdir):
    # Every set-up and every pass writes into a new directory, and the one
    # before it is removed. Rewriting files in place can make a write wait
    # for the disk to flush the previous version, which varies from run to
    # run and is not the program's work.
    runner = Runner(NPROC)
    setups, passes, extras = [], [], []

    def set_up_fresh():
        data_dir = workdir / f"input{len(setups)}"
        setups.append(set_up(workload, runner, data_dir, seed))
        if len(setups) > 1:
            shutil.rmtree(workdir / f"input{len(setups) - 2}")
        return data_dir

    measured = 0.0
    while True:
        batch_start = time.perf_counter()
        data_dir = set_up_fresh()
        while time.perf_counter() - batch_start < SETUP_BATCH_SECONDS:
            data_dir = set_up_fresh()
        if not passes:
            workload.prepare(data_dir)
        out_dir = workdir / f"pass{len(passes)}"
        start = time.perf_counter()
        times = runner.one_pass(workload, data_dir, out_dir, seed)
        figures = workload.figures(out_dir, times)
        figures["wall_s"] = sum(times.values())
        passes.append(figures)
        extras.append(workload.extras(out_dir, times))
        shutil.rmtree(out_dir)
        measured += time.perf_counter() - start
        # Stop when one more pass of average length would overrun the budget.
        if measured * (len(passes) + 1) / len(passes) > seconds:
            break
    while len(setups) < SETUP_REPEATS:
        set_up_fresh()

    figures = {k: statistics.median(p[k] for p in passes) for k in passes[0]}
    figures["setup_s"] = statistics.median(setups)
    figures["peak_rss_mb"] = peak_rss_mb()
    extra = {k: (statistics.median(e[k][0] for e in extras), extras[0][k][1]) for k in extras[0]}
    extra["error_rate"] = (len(runner.failures) / runner.attempted, "fraction")
    extra["passes"] = (len(passes), "count")
    extra["setups"] = (len(setups), "count")
    return runner, figures, extra


def artifact_hashes(workdir) -> dict:
    """sha256 of every artifact under ``workdir``: as recorded in each
    ``.manifest.json``, and computed for files no manifest covers (the
    boundary inputs, which the benchmark writes without the CLI)."""
    recorded, files = {}, {}
    for path in sorted(p for p in workdir.rglob("*") if p.is_file()):
        name = str(path.relative_to(workdir))
        if path.name.endswith(".manifest.json"):
            recorded[name] = json.loads(path.read_text(encoding="utf-8"))["artifacts"]
        else:
            files[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    covered = {str(Path(manifest).parent / artifact)
               for manifest, artifacts in recorded.items() for artifact in artifacts}
    return {"manifests": recorded,
            "files": {k: v for k, v in files.items() if k not in covered}}


def observers(tracer) -> dict:
    def read_bytes(args, kwargs, result):
        tracer.count("featurestore.read_dataset.bytes", os.path.getsize(args[0]))

    def written_bytes(args, kwargs, result):
        tracer.count("featurestore.write_dataset.bytes", os.path.getsize(args[1]))

    def oov(args, kwargs, result):
        tracer.count("textlab.language_feature.oov", float(bool(result[1])))

    return {"featurestore.read_dataset": read_bytes,
            "featurestore.write_dataset": written_bytes,
            "textlab.language_feature": oov}


def traced_run(workload, seed, workdir):
    from tracer import Tracer

    plain_dir, traced_dir = workdir / "untraced", workdir / "traced"
    runner = Runner(NPROC)
    set_up(workload, runner, plain_dir / "input", seed)
    workload.prepare(plain_dir / "input")
    plain_wall = sum(runner.one_pass(workload, plain_dir / "input", plain_dir / "output",
                                     seed).values())

    tracer = Tracer()
    patched = tracer.install(TRACED_LAYERS, observers(tracer))
    try:
        traced_runner = Runner(NPROC, tracer)
        set_up(workload, traced_runner, traced_dir / "input", seed)
        workload.prepare(traced_dir / "input")
        traced_wall = sum(traced_runner.one_pass(workload, traced_dir / "input",
                                                 traced_dir / "output", seed).values())
    finally:
        tracer.uninstall()

    same = artifact_hashes(plain_dir) == artifact_hashes(traced_dir)
    if not same:
        runner.failures.append("traced run wrote artifacts that differ from the untraced run")
    runner.attempted += traced_runner.attempted + 1
    runner.failures += traced_runner.failures
    tracer.save(str(WORK / "trace" / f"{workload.name}.spans.npz"))
    summary = {
        "overhead_s": traced_wall - plain_wall,
        "untraced_wall_s": plain_wall,
        "traced_wall_s": traced_wall,
        "spans": tracer.span_count(),
        "patched_names": patched,
        "hashes_equal": same,
    }
    return runner, tracer, summary


def layer_metric(name, stats, counters, summary) -> float:
    """Value of a per-layer metric ``<module>.<function>.<stat>``."""
    from shotgenre.cli import COMMANDS

    span, stat = name.rsplit(".", 1)
    if span == "tracer":
        return float(summary[stat])
    if span in stats:
        row = stats[span]
    elif span.startswith("cli.") and span[4:] in COMMANDS:
        row = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    else:
        raise ValueError(f"per-layer metric {name!r} names no traced function or CLI command")
    if stat == "mb_per_s":
        moved = counters.get(f"{span}.bytes", 0.0)
        return moved / 1e6 / row["total_s"] if row["total_s"] > 0 else 0.0
    if stat == "oov_frac":
        return counters.get(f"{span}.oov", 0.0) / row["calls"] if row["calls"] else 0.0
    return float(row[stat])


def blas_info() -> dict:
    """BLAS library from ``numpy.show_config`` and its thread count, read
    from the OpenBLAS build numpy ships when that library is loaded."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "lib*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                threads = fn()
                break
    return {"name": blas.get("name"), "version": blas.get("version"), "threads": threads}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def metadata(args) -> dict:
    import numpy as np

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": NPROC,
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "cli_threads": NPROC,
        "git_commit": git_commit(),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("fusion_train", "catalog", "boundary"))
    parser.add_argument("--seed", type=int, required=True, help="workload seed")
    parser.add_argument("--seconds", type=int, required=True,
                        help="measuring time of a timed run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "shotgenre" / "__init__.py").is_file():
        print(f"error: shotgenre sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        if args.trace:
            runner, tracer, summary = traced_run(workload, args.seed, workdir)
            stats = tracer.stats()
            metrics = {m["name"]: {"value": layer_metric(m["name"], stats, tracer.counters, summary),
                                   "unit": m["unit"]} for m in spec["per_layer"]}
            readable = {f"tracer.{k}": (v, "") for k, v in summary.items()
                        if f"tracer.{k}" not in metrics}
        else:
            runner, figures, readable = timed_run(workload, args.seed, args.seconds, workdir)
            metrics = {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]}
                       for m in spec["end_to_end"]}
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for failure in runner.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print("meta " + json.dumps(metadata(args), sort_keys=True))
    for name, metric in metrics.items():
        print(f"{name:48s} {metric['value']:.6g} {metric['unit']}")
    for name, (value, unit) in readable.items():
        print(f"{name:48s} {value} {unit}".rstrip())
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
