"""Compare the CLI artifacts of two stopsim source trees, run by run.

    python tests/output_gate.py OLD_SRC NEW_SRC [--rtol R]

OLD_SRC and NEW_SRC are directories holding a ``stopsim`` package (a
checkout's ``src/``).  Every subcommand runs on every input, once per tree,
each run a fresh ``python -m stopsim`` process with one BLAS thread.  The
inputs are the bundled scenarios, the streamed-solve scenarios of
``conftest.py``, the generated inputs of every perfbench workload at seeds 1
and 7 (``perfbench/workloads.generate``), and a generated signal for
``hysteresis-eval``.  ``simulate`` also writes ``state.bin``.

Prints one line per artifact: ``identical`` when the two files have the same
bytes, else the largest |delta| of a numeric column over that column's
largest |value|, over all its columns (each CSV column, the payload of
``state.bin``, the floats under each key of a JSON file).  Integers, strings,
headers, shapes and artifact lists are compared exactly.  Exits 1 when an exit
code, stdout, stderr or a non-numeric field differs, or a relative difference
exceeds R (default 0, byte identity).
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
SUBCOMMANDS = ("simulate", "hysteresis-eval", "sensitivity", "fd-check", "optimize",
               "diagnose-semigroup")
BUNDLED = ("saturating", "linear_quadratic", "neumann_conservation", "zero")
SEEDS = (1, 7)


def _write_signal(path, n_points=2000):
    """A random-walk signal on a uniform grid, header ``t,v``."""
    rng = np.random.default_rng(2016)
    t = 1e-3 * np.arange(n_points)
    v = np.cumsum(rng.normal(0.0, 0.02, n_points))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,v\n")
        fh.writelines("%.17g,%.17g\n" % pair for pair in zip(t.tolist(), v.tolist()))


def _inputs(new_src, work):
    """(label, argv without --out) of every run, its input files written under ``work``."""
    sys.path[:0] = [new_src, HERE, os.path.join(os.path.dirname(HERE), "perfbench")]
    from conftest import STREAMED_SCENARIOS
    import workloads

    signal = os.path.join(work, "signal.csv")
    _write_signal(signal)
    configs = [(f"bundled:{name}", f"bundled:{name}", signal) for name in BUNDLED]
    for name, cfg in STREAMED_SCENARIOS.items():
        path = os.path.join(work, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        configs.append((name, path, signal))
    for workload in workloads.WORKLOADS.values():
        for seed in SEEDS:
            where = os.path.join(work, f"{workload.name}-{seed}")
            os.makedirs(where)
            argv = workloads.generate(workload, seed, where)
            own = argv[argv.index("--input") + 1] if "--input" in argv else signal
            configs.append((f"{workload.name}@{seed}", argv[argv.index("--config") + 1], own))
    return [(f"{name} {sub}", [sub, "--config", path, "--quiet", *{
                "simulate": ["--snapshot"], "hysteresis-eval": ["--input", own]}.get(sub, [])])
            for name, path, own in configs for sub in SUBCOMMANDS]


def _run(src, argv, out, cwd):
    env = dict(os.environ, PYTHONPATH=src)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    proc = subprocess.run([sys.executable, "-m", "stopsim", *argv, "--out", out],
                          capture_output=True, text=True, env=env, cwd=cwd)
    return proc.returncode, proc.stdout, proc.stderr


def _parse(name, data):
    """An artifact as (skeleton, columns): everything compared exactly, and
    name -> float array of each numeric column."""
    if name.endswith(".bin"):  # int64 header (dims, resolution, components, steps)
        dims = int(np.frombuffer(data[:8], dtype=np.int64)[0])
        size = 8 * (3 + dims)
        return data[:size], {"state": np.frombuffer(data[size:], dtype=np.float64)}
    text = data.decode("utf-8")
    if name.endswith(".csv"):
        header, *rows = text.splitlines()
        table = np.array([[float(x) for x in row.split(",")] for row in rows]).reshape(
            len(rows), header.count(",") + 1)
        return (header, table.shape), dict(zip(header.split(","), table.T))
    columns = {}

    def skeleton(value, key):
        if isinstance(value, dict):
            return {k: skeleton(v, f"{key}.{k}") for k, v in value.items()}
        if isinstance(value, list):
            return [skeleton(v, f"{key}[]") for v in value]
        if isinstance(value, float):
            columns.setdefault(key, []).append(value)
            return float
        return value

    shape = skeleton(json.loads(text), "")
    return shape, {k: np.array(v) for k, v in columns.items()}


def _relative_difference(old, new):
    """max |new - old| over max |old|, over the columns; inf where the
    non-finite entries differ."""
    worst = 0.0
    for key, a in old.items():
        b = new[key]
        finite = np.isfinite(a)
        if not (np.array_equal(finite, np.isfinite(b))
                and np.array_equal(a[~finite], b[~finite], equal_nan=True)):
            return math.inf
        delta = np.max(np.abs(a[finite] - b[finite]), initial=0.0)
        if delta:
            scale = np.max(np.abs(a[finite]))
            worst = max(worst, delta / scale if scale else math.inf)
    return worst


def _compare(old_dir, new_dir, label, rtol):
    """Print one line per artifact; return whether all are within ``rtol``."""
    names = sorted(os.listdir(old_dir))
    if names != sorted(os.listdir(new_dir)):
        print(f"{label}: artifacts {names} != {sorted(os.listdir(new_dir))}")
        return False
    ok = True
    for name in names:
        with open(os.path.join(old_dir, name), "rb") as fh:
            old = fh.read()
        with open(os.path.join(new_dir, name), "rb") as fh:
            new = fh.read()
        if old == new:
            print(f"{label} {name}: identical")
            continue
        (old_shape, old_cols), (new_shape, new_cols) = _parse(name, old), _parse(name, new)
        if old_shape != new_shape:
            print(f"{label} {name}: non-numeric fields differ")
            ok = False
            continue
        rel = _relative_difference(old_cols, new_cols)
        within = rel <= rtol
        print(f"{label} {name}: {rel:.3g}{'' if within else ' FAIL'}")
        ok = ok and within
    return ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src")
    parser.add_argument("new_src")
    parser.add_argument("--rtol", type=float, default=0.0)
    args = parser.parse_args(argv)
    old_src, new_src = (os.path.abspath(p) for p in (args.old_src, args.new_src))
    work = tempfile.mkdtemp(prefix="stopsim-gate-")
    try:
        runs = _inputs(new_src, work)
        ok = True
        shared = os.path.join(work, "out")  # one path for both trees, as messages may name it
        kept = [os.path.join(work, side) for side in ("old", "new")]
        for label, run_argv in runs:
            results = []
            for src, where in zip((old_src, new_src), kept):
                results.append(_run(src, run_argv, shared, work))
                if os.path.isdir(shared):
                    os.rename(shared, where)
            if results[0] != results[1]:
                what = [k for k, a, b in zip(("exit code", "stdout", "stderr"), *results) if a != b]
                print(f"{label}: {', '.join(what)} differ: {results[0]!r} != {results[1]!r}")
                ok = False
            elif all(os.path.isdir(where) for where in kept):
                ok = _compare(*kept, label, args.rtol) and ok
            for where in kept:
                shutil.rmtree(where, ignore_errors=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(runs)} runs: {'all within' if ok else 'NOT within'} rtol {args.rtol:g}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
