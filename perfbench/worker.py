"""One benchmark client: a closed loop of ``uce3.cli.main`` calls.

Started by run.py with the BLAS thread variables pinned to 1 and
``src`` on PYTHONPATH. Prints ``ready`` on stdout once ``uce3`` is
imported, then runs passes over the plan's operations, each operation
starting only after the previous verdict is back, and writes its records
as JSON to the result path.

    python3 perfbench/worker.py --probe
    python3 perfbench/worker.py PLAN.json RESULT.json
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import resource
import statistics
import sys
import time
import traceback


def _ready():
    sys.stdout.write("ready\n")
    sys.stdout.flush()


def run_op(main, argv):
    out, err = io.StringIO(), io.StringIO()
    # garbage left by the previous operation is not this one's cost
    gc.collect()
    c0 = time.process_time()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except Exception:
            # the CLI let an error escape: what a user sees as a traceback
            # and exit code 1; record it as a failed operation and go on
            traceback.print_exc()
            rc = 1
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    return rc, out.getvalue(), err.getvalue(), wall, cpu


def run_pass(main, ops, outputs, after_op=None):
    """One pass over the operations; returns the pass record. after_op,
    when given, is called as soon as each operation has returned."""
    records = []
    c0 = time.process_time()
    t0 = time.perf_counter()
    for op in ops:
        rc, stdout, stderr, wall, cpu = run_op(main, op["argv"])
        if after_op is not None:
            after_op()
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        outputs.setdefault(digest, stdout)
        records.append({
            "label": op["label"], "rc": rc, "sha256": digest,
            "stderr": stderr, "wall_s": wall, "cpu_s": cpu,
        })
    return {
        "wall_s": time.perf_counter() - t0,
        "cpu_s": time.process_time() - c0,
        "ops": records,
    }


def _keep_going(passes, elapsed, seconds, min_passes=1):
    """Start another pass while one more is expected to fit in seconds."""
    if len(passes) < min_passes:
        return True
    typical = statistics.median(p["wall_s"] for p in passes)
    return elapsed + typical <= seconds


def run_plan(plan):
    import numpy
    import uce3
    from uce3.cli import main

    _ready()
    ops, seconds = plan["ops"], plan["seconds"]
    outputs = {}
    passes, traced = [], []
    t0 = time.perf_counter()
    if plan["trace"]:
        import tracer as tracing

        # one untraced pass is the reference for the tracing overhead
        passes.append(run_pass(main, ops, outputs))
        rec = tracing.Tracer()
        bindings = rec.install(uce3)
        from uce3.cli import main
        span_log = []
        # two traced passes at least, so exact counts can be compared
        while _keep_going(traced, time.perf_counter() - t0, seconds, 2):
            op_spans = []
            record = run_pass(main, ops, outputs,
                              lambda: op_spans.append(rec.take()))
            # summarized after the pass, so the pass wall time excludes it
            for op, spans in zip(record["ops"], op_spans):
                op["layers"], op["self_total_s"], op["spans"] = (
                    tracing.summarize(rec.names, spans))
            layers = tracing.combine([op["layers"] for op in record["ops"]])
            record.update(
                layers=tracing.layer_metrics(layers),
                self_total_s=sum(op["self_total_s"] for op in record["ops"]),
                spans=sum(op["spans"] for op in record["ops"]),
            )
            traced.append(record)
            span_log.append(op_spans)
        _write_spans(plan["spans_path"], rec.names, span_log)
        trace_info = {"bindings": bindings, "functions": len(rec.names),
                      "missing": rec.missing()}
    else:
        while _keep_going(passes, time.perf_counter() - t0, seconds):
            passes.append(run_pass(main, ops, outputs))
        trace_info = None
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "passes": passes,
        "traced_passes": traced,
        "trace": trace_info,
        "outputs": outputs,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "uce3": getattr(uce3, "__version__", "unknown"),
        },
    }


def _write_spans(path, names, span_log):
    """Spans of every traced operation as one .npz: ``names`` plus, for
    operation j of traced pass k, the parallel arrays ``k.j.name_id``,
    ``k.j.parent``, ``k.j.start`` and ``k.j.end`` (``parent`` indexes the
    same operation's arrays, -1 for the root span)."""
    import numpy as np

    arrays = {"names": np.array(names)}
    for k, op_spans in enumerate(span_log):
        for j, spans in enumerate(op_spans):
            for field in ("name_id", "parent", "start", "end"):
                arrays[f"{k}.{j}.{field}"] = np.frombuffer(
                    spans[field], dtype=spans[field].typecode)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def main(argv):
    if argv == ["--probe"]:
        import uce3  # noqa: F401  (the import is what is being timed)

        _ready()
        return 0
    plan_path, result_path = argv
    with open(plan_path, encoding="ascii") as fh:
        plan = json.load(fh)
    result = run_plan(plan)
    with open(result_path, "w", encoding="ascii") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
