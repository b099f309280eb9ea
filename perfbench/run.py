"""stopsim benchmark: one closed-loop client running CLI jobs in-process.

    python3 perfbench/run.py --workload control-1d --seed 1 --seconds 50 --trace 0

Run from the root of a checkout.  The package is imported from the
checkout's ``src/``.  Inputs are generated from ``--seed`` into a scratch
directory inside the checkout and removed at the end.  Each job is one call
of ``stopsim.cli.main``; the next job starts when the previous one has
returned.  With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it wraps each layer (see tracer.py) and reports the per-layer
metrics.  The last line of standard output is one JSON object.  See
README.md in this directory.
"""

import argparse
import contextlib
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

# Single-threaded BLAS, so timings do not depend on how many cores a
# neighbour leaves free.  Set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import calibration  # noqa: E402  (imports numpy, so after the pins above)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
TRACE_DIR = os.path.join(ROOT, ".perfbench_traces")
REFERENCE = os.path.join(HERE, "reference.json")

SETUP_SAMPLES = 12
SUBPROCESS_TIMEOUT = 60
UNTRACED_SHARE_IN_TRACE_RUN = 0.35

# Fresh-process set-up: what every CLI invocation pays before stepping.
SETUP_CODE = """
import json, sys, time
t0 = time.perf_counter()
import stopsim.cli
from stopsim import scenario
with open(sys.argv[1], encoding="utf-8") as fh:
    cfg = json.load(fh)
needs = tuple(sys.argv[2].split(",")) if sys.argv[2] else ()
if needs:
    scenario.load_scenario(cfg, needs=needs)
else:
    scenario.load_hysteresis_config(cfg)
print(repr(time.perf_counter() - t0))
"""


class BenchError(Exception):
    """The benchmark cannot run here; reported without a result line."""


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def _import_stopsim():
    if not os.path.isfile(os.path.join(SRC, "stopsim", "__init__.py")):
        raise BenchError(f"no stopsim package under {SRC}; run from a checkout root")
    sys.path.insert(0, SRC)
    import stopsim
    import stopsim.cli

    if os.path.dirname(os.path.abspath(stopsim.__file__)) != os.path.join(SRC, "stopsim"):
        raise BenchError(f"imported stopsim from {stopsim.__file__}, not {SRC}")
    return stopsim


def _git_commit():
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes():
    """Cache sizes by level as the kernel reports them for CPU 0."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    sizes = {}
    try:
        for index in sorted(os.listdir(base)):
            path = os.path.join(base, index)
            if not index.startswith("index"):
                continue
            fields = {}
            for key in ("level", "type", "size"):
                with open(os.path.join(path, key), encoding="utf-8") as fh:
                    fields[key] = fh.read().strip()
            if fields["type"] != "Instruction":
                sizes[f"L{fields['level']}"] = fields["size"]
    except OSError:
        pass
    return sizes


def provenance():
    import numpy
    import scipy

    return {
        "commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "caches": _cache_sizes(),
        "threads": {v: os.environ[v] for v in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


class HostSpeed:
    """Scales timings to the reference host speed (see calibration.py).

    ``tick`` times the calibration kernel; it is called once before the
    first timed piece of work and once after each.  A timing is scaled by
    the mean of the kernel times just before and just after it.
    """

    def __init__(self):
        self.kernel = []
        self.tick()

    def tick(self):
        self.kernel.append(calibration.measure())

    def scale(self, seconds):
        """``seconds`` of the work timed between the last two ticks."""
        return seconds * calibration.REFERENCE_S * 2.0 / sum(self.kernel[-2:])


class SetupSampler:
    """Seconds of importing stopsim plus loading the config in a fresh process,
    scaled to reference host speed.

    The samples are spread over the run, one between jobs every ``period``
    seconds, and the median is reported.  One unrecorded sample first warms
    the file cache.
    """

    def __init__(self, workload, config_path, period, host):
        self.argv = [sys.executable, "-c", SETUP_CODE, config_path,
                     ",".join(workload.needs)]
        self.period = period
        self.host = host
        self.raw = []
        self.samples = []
        self.measure()
        self.due = time.perf_counter()

    def measure(self):
        try:
            proc = subprocess.run(self.argv, env=_child_env(), cwd=ROOT,
                                  capture_output=True, text=True,
                                  timeout=SUBPROCESS_TIMEOUT, check=False)
        except subprocess.TimeoutExpired:
            raise BenchError(f"set-up process took over {SUBPROCESS_TIMEOUT} s") from None
        if proc.returncode != 0:
            raise BenchError(f"set-up process failed:\n{proc.stderr.strip()}")
        return float(proc.stdout.strip().splitlines()[-1])

    def sample(self):
        self.raw.append(self.measure())
        self.host.tick()
        self.samples.append(self.host.scale(self.raw[-1]))

    def __call__(self):
        if time.perf_counter() >= self.due:
            self.sample()
            self.due = time.perf_counter() + self.period

    def median(self):
        while len(self.samples) < 3:
            self.sample()
        return statistics.median(self.samples)


def artifact_digest(out_dir):
    digest = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        digest.update(name.encode())
        with open(os.path.join(out_dir, name), "rb") as fh:
            digest.update(hashlib.sha256(fh.read()).digest())
    return digest.hexdigest()


def artifact_bytes(out_dir):
    return sum(os.path.getsize(os.path.join(out_dir, n)) for n in os.listdir(out_dir))


def run_job(cli, argv, out_dir):
    """One CLI call: (seconds, problem or None).  Only cli.main is timed."""
    shutil.rmtree(out_dir, ignore_errors=True)
    captured = io.StringIO()
    code, crash = None, None
    with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv + ["--out", out_dir])
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash is a failed job, reported with its traceback
            crash = traceback.format_exc()
        seconds = time.perf_counter() - t0
    if crash is not None:
        return seconds, f"raised:\n{crash}"
    errors = [line for line in captured.getvalue().splitlines()
              if line.startswith("error:")]
    if code != 0 or errors:
        return seconds, f"exit code {code!r}; {' '.join(errors)}"
    return seconds, None


def compare_reference(workload, seed, out_dir):
    """Problems against the stored reference outputs (default seed only)."""
    import numpy as np
    import workloads

    if seed != workloads.DEFAULT_SEED or not os.path.isfile(REFERENCE):
        return []
    with open(REFERENCE, encoding="utf-8") as fh:
        ref = json.load(fh).get(workload.name)
    if ref is None:
        return []
    problems = []
    summary = workload.summary(out_dir)
    for key, expected in ref["values"].items():
        got = np.asarray(summary.get(key, []), dtype=float)
        want = np.asarray(expected, dtype=float)
        tol = ref["rtol"] * np.maximum(np.abs(want), ref["atol_scale"] * np.max(np.abs(want)))
        if got.shape != want.shape or not np.all(np.abs(got - want) <= tol):
            problems.append(f"{key} differs from the stored reference")
    return problems


class Verifier:
    """Checks each job's artifacts.  The first job gets the full check; a later
    job whose artifacts are byte-identical to a checked one passes, and any
    other job gets the full check itself."""

    def __init__(self, workload, seed, work_dir):
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.good = set()
        self.bad = set()

    def __call__(self, out_dir):
        digest = artifact_digest(out_dir)
        if digest in self.good:
            return []
        if digest in self.bad:
            return ["same artifacts as a job that failed its check"]
        problems = self.workload.check(self.work_dir, out_dir)
        problems += compare_reference(self.workload, self.seed, out_dir)
        (self.bad if problems else self.good).add(digest)
        return problems


class Loop:
    """Closed loop with one client: jobs back to back until time is up."""

    def __init__(self, cli, argv, out_dir, verify):
        self.cli = cli
        self.argv = argv
        self.out_dir = out_dir
        self.verify = verify
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def job(self, before=None, after=None):
        """Run, then check, one job; returns its seconds (None if it failed)."""
        if before:
            before()
        try:
            seconds, problem = run_job(self.cli, self.argv, self.out_dir)
        finally:
            if after:
                after()
        problems = [problem] if problem else self.verify(self.out_dir)
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)
            return None
        return seconds

    def run(self, seconds, before=None, after=None, on_job=None, between=None):
        """Jobs for ``seconds``, calling ``between`` after each one."""
        times = []
        deadline = time.perf_counter() + seconds
        while True:
            t = self.job(before, after)
            if t is not None:
                times.append(t)
                if on_job:
                    on_job(t)
            if between:
                between()
            if time.perf_counter() >= deadline:
                return times


def metric(value, unit):
    return {"value": value, "unit": unit}


def quantile_line(label, times):
    if len(times) < 2:
        return f"{label}: {len(times)} samples"
    deciles = statistics.quantiles(times, n=10)
    return (f"{label}: {len(times)} samples, median {statistics.median(times):.4f}, "
            f"p10 {deciles[0]:.4f}, p90 {deciles[-1]:.4f}")


def run_untraced(loop, args, setup, host):
    """End-to-end metrics.  ``job_s`` and ``setup_s`` are medians of timings
    scaled to reference host speed: over ten 50 s runs of the same code on a
    shared 2-CPU VM (Xeon, Python 3.11, numpy 2.4, scipy 1.17) the median
    wall time per job spread 31% (control-1d) and 58% (grid-2d) as the host
    changed speed, the scaled one 5% and 11%."""
    scaled = []
    times = loop.run(args.seconds, after=host.tick, between=setup,
                     on_job=lambda t: scaled.append(host.scale(t)))
    print(quantile_line("job wall seconds", times))
    print(quantile_line("job seconds at reference speed", scaled))
    print(quantile_line("calibration kernel seconds", host.kernel))
    setup_s = setup.median()
    print(quantile_line("set-up wall seconds", setup.raw))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "job_s": metric(statistics.median(scaled), "s") if scaled else None,
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(peak_mb, "MB"),
    }


def run_traced(loop, workload, args):
    import layers
    from tracer import Tracer

    host = HostSpeed()
    untraced, traced = [], []
    loop.run(args.seconds * UNTRACED_SHARE_IN_TRACE_RUN, after=host.tick,
             on_job=lambda t: untraced.append(host.scale(t)))
    tracer = Tracer()
    table = layers.StepTable()
    per_job, shares = [], []
    state = {}

    def before():
        state["values"] = layers.JobValues()
        state["mark"] = tracer.mark()
        tracer.hooks = state["values"].hooks()
        tracer.install()

    def after():
        tracer.uninstall()  # before the kernel runs, so its splu is not traced
        host.tick()

    def on_job(seconds):
        spans = tracer.arrays(state["mark"])
        row = layers.job_metrics(spans, state["values"], tracer.installed)
        row["cli.artifact_bytes"] = artifact_bytes(loop.out_dir)
        per_job.append(row)
        traced.append(host.scale(seconds))
        shares.append(layers.dominant_share(workload.name, spans, tracer.installed))
        table.add(spans, state["values"])

    loop.run(args.seconds * (1.0 - UNTRACED_SHARE_IN_TRACE_RUN), before, after, on_job)

    os.makedirs(TRACE_DIR, exist_ok=True)
    tracer.save(os.path.join(TRACE_DIR, f"spans-{workload.name}.npz"),
                workload=workload.name, seed=args.seed, jobs=len(traced))

    metrics = {}
    units = {name: spec[0] for name, spec in layers.PER_LAYER.items()}
    units.update(layers.RUNNER_METRICS)
    for name in list(layers.PER_LAYER) + ["cli.artifact_bytes"]:
        vals = [row[name] for row in per_job]
        if not vals or any(v is None for v in vals):
            metrics[name] = metric(None, units[name])
            continue
        if name in layers.COUNT_METRICS or name == "cli.artifact_bytes":
            # counts are deterministic for a seed: every job must agree
            if len(set(vals)) != 1:
                loop.problems.append(f"{name} differs between jobs of one seed: {vals}")
            metrics[name] = metric(statistics.median_low(vals), units[name])
        else:
            metrics[name] = metric(statistics.median(vals), units[name])
    overhead = (statistics.median(traced) / statistics.median(untraced)
                if traced and untraced else None)
    metrics["trace.overhead"] = metric(overhead, "ratio")
    share = (statistics.median(shares)
             if shares and all(s is not None for s in shares) else None)
    metrics["trace.dominant_share"] = metric(share, "ratio")

    for line in table.lines():
        print(line)
    description = layers.PREDICTIONS[workload.name][0]
    if share is None:
        print(f"prediction: {description} above half of {workload.name}: "
              "missing (a traced name is gone)")
    else:
        verdict = "confirmed" if share > 0.5 else "REFUTED"
        print(f"prediction: {description} above half of {workload.name}: "
              f"{share:.3f} of the traced job, {verdict}")
    missing = sorted(tracer.missing
                     | {n for n, m in metrics.items() if m["value"] is None})
    if missing:
        print("missing: " + ", ".join(missing))
    print(f"traced jobs: {len(traced)}, untraced jobs: {len(untraced)}")
    return metrics


def parse_args(argv):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    sys.path.insert(0, HERE)
    args = parse_args(argv)
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    try:
        stopsim = _import_stopsim()
    except (BenchError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    info = provenance()
    print("provenance: " + json.dumps(info, sort_keys=True))
    os.makedirs(WORK_ROOT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_ROOT)
    try:
        job_argv = workloads.generate(workload, args.seed, work_dir)
        out_dir = os.path.join(work_dir, "out")
        loop = Loop(stopsim.cli, job_argv, out_dir,
                    Verifier(workload, args.seed, work_dir))
        loop.job()  # warm-up: fills caches, gets the full output check
        if args.trace:
            metrics = run_traced(loop, workload, args)
        else:
            host = HostSpeed()
            setup = SetupSampler(workload, os.path.join(work_dir, "scenario.json"),
                                 args.seconds / SETUP_SAMPLES, host)
            metrics = run_untraced(loop, args, setup, host)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_ROOT)

    for problem in loop.problems[:5]:
        print(f"problem: {problem}", file=sys.stderr)
    fail_frac = loop.failed / loop.attempted
    print(f"fail_frac: {fail_frac:.4f} ({loop.failed} of {loop.attempted} jobs)")
    if not args.trace and metrics["job_s"] is None:
        print("perfbench: every job failed; no timing to report", file=sys.stderr)
        return 1
    for name, m in metrics.items():
        print(f"{name}: {m['value']} {m['unit']}")
    print(json.dumps({
        "correct": loop.failed == 0 and not loop.problems,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
