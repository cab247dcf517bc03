"""The uce3 benchmark: closed-loop workloads with a verified verdict per
operation, and a traced run that reports time and work per layer.

Run from the root of a source checkout (the program is imported from
``src``; nothing needs installing):

    python3 perfbench/run.py --workload ladder --seed 0 --seconds 30 --trace 0

Workloads (BENCHMARK.json says why each one exists):

* ``ladder``    -- ``theorem --json`` on sl2/Q, sl3 over GF(2), GF(3), GF(5)
  and Q, and the Takiff algebra sl2[t]/(t^2)/Q read from a JSON file;
* ``sl4-gf2``   -- ``theorem catalog:sl4 --field "GF(2)" --force --json``;
* ``dense-gf3`` -- ``uce --category lts --json`` on sl3/GF(3) after a
  seeded change of basis, read from a JSON file.

One process runs each workload as a single client in a closed loop: the
next ``uce3.cli.main`` call starts when the previous verdict is back.
Passes over the workload's operations repeat while another pass fits in
``--seconds`` (at least one pass; a traced run makes one untraced pass and
then at least two traced ones). ``--tiny`` replaces the operations with
sl2/Q alone, for smoke tests.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``, the
per-layer ones with ``--trace 1``). A full record of the run, with every
operation's time, goes to ``perfbench/out/``. The exit code is 0 only when
every operation was verified correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import reference  # noqa: E402
import tracer  # noqa: E402

WORKLOADS = ("ladder", "sl4-gf2", "dense-gf3")
SETUP_PROBES = 9
RUN_LIMIT_S = 170.0
BLAS_THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

# (metric, unit) printed by an untraced run, in BENCHMARK.json order
END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _theorem_op(label, source, field=None, force=False):
    argv = ["theorem", source]
    if field:
        argv += ["--field", field]
    if force:
        argv.append("--force")
    return {"label": label, "argv": argv + ["--json"]}


def operations(workload, paths, tiny):
    """The operations of one pass, as uce3 command lines."""
    if tiny:
        return [_theorem_op("sl2/Q", "catalog:sl2")]
    if workload == "ladder":
        return [
            _theorem_op("sl2/Q", "catalog:sl2"),
            _theorem_op("sl3/GF(2)", "catalog:sl3", "GF(2)"),
            _theorem_op("sl3/GF(3)", "catalog:sl3", "GF(3)"),
            _theorem_op("sl3/GF(5)", "catalog:sl3", "GF(5)"),
            _theorem_op("sl3/Q", "catalog:sl3"),
            _theorem_op("takiff/Q", paths["takiff"]),
        ]
    if workload == "sl4-gf2":
        return [_theorem_op("sl4/GF(2)", "catalog:sl4", "GF(2)", force=True)]
    return [{
        "label": "sl3-rebased/GF(3)",
        "argv": ["uce", paths["rebased"], "--category", "lts", "--json"],
    }]


def child_env(root):
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    env.update(BLAS_THREADS)
    return env


def _spawn(args, env, root):
    return subprocess.Popen(
        [sys.executable, str(HERE / "worker.py")] + args,
        cwd=root, env=env, stdout=subprocess.PIPE, text=True,
    )


def _ready_after(proc, t0):
    """Seconds from t0 until the child printed ``ready``, or None."""
    line = proc.stdout.readline()
    return time.perf_counter() - t0 if line.strip() == "ready" else None


def measure_setup(env, root):
    """Launch-to-ready seconds of fresh interpreters importing uce3."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = _spawn(["--probe"], env, root)
        with proc.stdout:
            ready = _ready_after(proc, t0)
            proc.stdout.read()
        proc.wait()
        if ready is None or proc.returncode != 0:
            raise RuntimeError("a set-up probe could not import uce3")
        samples.append(ready)
    return samples


def run_worker(plan, env, root, workdir, deadline):
    """Run one worker to completion; returns its result plus its own
    launch-to-ready time as ``setup_s``."""
    plan_path = workdir / "plan.json"
    result_path = workdir / "result.json"
    plan_path.write_text(json.dumps(plan), encoding="ascii")
    t0 = time.perf_counter()
    proc = _spawn([str(plan_path), str(result_path)], env, root)
    # the worker prints nothing after "ready", so waiting cannot fill the pipe
    with proc.stdout:
        try:
            ready = _ready_after(proc, t0)
            proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise RuntimeError("the worker overran the run's time limit")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if ready is None or proc.returncode != 0:
        raise RuntimeError(f"the worker failed with exit code {proc.returncode}")
    result = json.loads(result_path.read_text(encoding="ascii"))
    result["setup_s"] = ready
    return result


def check_operations(result, seed):
    """Verify every operation; returns (attempted, failures).

    An operation fails on a nonzero exit, a wrong verdict or dimension, a
    sha256 that differs from the pinned one, or stdout bytes that differ
    from an earlier run of the same operation in this process.
    """
    outputs = result["outputs"]
    first_digest = {}
    failures = []
    attempted = 0
    for rec in _all_passes(result):
        for op in rec["ops"]:
            attempted += 1
            label, digest = op["label"], op["sha256"]
            problems = reference.check_output(label, outputs[digest], op["rc"])
            want = reference.expected_sha256(label, seed)
            if want is not None and digest != want:
                problems.append(f"sha256 {digest} != pinned {want}")
            if first_digest.setdefault(label, digest) != digest:
                problems.append("stdout differs between runs of one input")
            if problems:
                failures.append({"label": label, "problems": problems})
    return attempted, failures


def _all_passes(result):
    return result["passes"] + result["traced_passes"]


def check_trace(result):
    """Problems with a traced run: exact counts that did not repeat
    between traced passes, or self times summing past the pass wall time."""
    problems = []
    traced = result["traced_passes"]
    if len(traced) < 2:
        problems.append("fewer than two traced passes")
    first = traced[0]["layers"] if traced else {}
    for k, rec in enumerate(traced):
        for name in tracer.EXACT_COUNTS:
            if rec["layers"][name] != first[name]:
                problems.append(
                    f"{name}: pass {k} counted {rec['layers'][name]}, "
                    f"pass 0 counted {first[name]}")
        if rec["self_total_s"] > rec["wall_s"]:
            problems.append(
                f"pass {k}: self times sum to {rec['self_total_s']} s, "
                f"more than the pass wall time {rec['wall_s']} s")
    return problems


def end_to_end_metrics(result, setup_samples):
    passes = result["passes"]
    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def per_layer_metrics(result):
    traced = result["traced_passes"]
    out = {}
    for name, _, stat, _, _ in tracer.LAYER_METRICS:
        # counts repeat exactly between passes (check_trace enforces it)
        out[name] = (traced[0]["layers"][name] if stat == "calls" else
                     statistics.median(p["layers"][name] for p in traced))
    untraced_wall = statistics.median(p["wall_s"] for p in result["passes"])
    out[tracer.OVERHEAD_METRIC[0]] = (
        statistics.median(p["wall_s"] for p in traced) - untraced_wall)
    return out


def metric_units(trace):
    if trace:
        units = {name: unit for name, _, _, unit, _ in tracer.LAYER_METRICS}
        units[tracer.OVERHEAD_METRIC[0]] = tracer.OVERHEAD_METRIC[1]
        return units
    return dict(END_TO_END)


def environment(seed):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "blas_threads": dict(BLAS_THREADS),
        "seed": seed,
    }


def guard_estimate(result):
    """The stderr lines in which the CLI estimates peak memory (--force)."""
    lines = set()
    for rec in _all_passes(result):
        for op in rec["ops"]:
            lines.update(
                ln for ln in op["stderr"].splitlines() if "peak memory" in ln)
    return sorted(lines)


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=reference.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="run sl2/Q only (smoke tests)")
    return ap.parse_args(argv)


def run(args):
    """One benchmark run; returns (summary line object, full record)."""
    deadline = time.monotonic() + RUN_LIMIT_S
    root = Path.cwd()
    if not (root / "src" / "uce3" / "__init__.py").is_file():
        raise RuntimeError(
            f"no uce3 sources under {root / 'src'}; run from a checkout root")
    out_dir = HERE / "out"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.tiny:
        tag += "-tiny"
    workdir = out_dir / tag
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    paths, drawn = inputs.write_inputs(workdir, args.seed)
    rel = {k: str(p.relative_to(root)) for k, p in paths.items()}
    plan = {
        "ops": operations(args.workload, rel, args.tiny),
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "spans_path": str(out_dir / f"{tag}-spans.npz"),
    }
    env = child_env(root)
    setup_samples = measure_setup(env, root)
    result = run_worker(plan, env, root, workdir, deadline)
    setup_samples.append(result["setup_s"])
    attempted, failures = check_operations(result, args.seed)
    trace_problems = check_trace(result) if args.trace else []
    metrics = (per_layer_metrics(result) if args.trace
               else end_to_end_metrics(result, setup_samples))
    units = metric_units(args.trace)
    summary = {
        "correct": not failures and not trace_problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units},
    }
    record = {
        "workload": args.workload,
        "tiny": args.tiny,
        "seconds": args.seconds,
        "environment": dict(environment(args.seed), **result["versions"]),
        "inputs": drawn,
        "setup_samples_s": setup_samples,
        "peak_rss_mb": result["peak_rss_mb"],
        "guard_estimate": guard_estimate(result),
        "ops_failed": len(failures) / attempted,
        "failures": failures,
        "trace_problems": trace_problems,
        "trace": result["trace"],
        "passes": _all_passes(result),
        "summary": summary,
    }
    (out_dir / f"{tag}.json").write_text(
        json.dumps(record, indent=1), encoding="ascii")
    shutil.rmtree(workdir)
    return summary, record


def print_report(summary, record):
    """Human-readable lines; the caller prints the JSON line last."""
    env = record["environment"]
    print(f"workload {record['workload']}: {summary['attempted']} operations "
          f"in {len(record['passes'])} passes, seed {env['seed']}")
    print(f"environment: nproc {env['nproc']}, {env['cpu_model']}, "
          f"python {env['python']}, numpy {env['numpy']}, "
          f"BLAS threads {env['blas_threads']['OPENBLAS_NUM_THREADS']}")
    for name, m in summary["metrics"].items():
        print(f"  {name:<28} {m['value']:.6g} {m['unit']}")
    print(f"  {'ops_failed':<28} {record['ops_failed']:.6g} "
          f"({summary['failed']}/{summary['attempted']})")
    for line in record["guard_estimate"]:
        print(f"  CLI estimate: {line!r} vs measured peak RSS "
              f"{record['peak_rss_mb']:.1f} MB")
    for fail in record["failures"]:
        print(f"  FAILED {fail['label']}: {'; '.join(fail['problems'])}")
    for problem in record["trace_problems"]:
        print(f"  TRACE {problem}")
    for name in (record["trace"] or {}).get("missing", ()):
        print(f"  TRACE note: {name} is not in uce3, its layer reads low")


def _terminated(signum, frame):
    # unwinds through run_worker's cleanup, which stops the worker
    sys.exit(128 + signum)


def main(argv=None):
    args = _parse_args(argv)
    signal.signal(signal.SIGTERM, _terminated)
    try:
        summary, record = run(args)
    except RuntimeError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 2
    print_report(summary, record)
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
