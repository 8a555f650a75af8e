"""Paper-shaped RErr benchmark: a serial cell, a cluster curve and RandBET training.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cell --seed 1 --seconds 35 --trace 0

The paper's unit of work is the RErr cell: one quantized model at one bit
error rate, averaged over simulated chips, each evaluated over the test set.
All load is closed loop from this one process: one sweep call or one
block of training steps at a time, each waiting for its result.  The only
other processes are the worker daemons ``executor="cluster"`` spawns itself.

Workloads (inputs are generated from ``--seed``):

``cell``
    One RErr cell through ``rerr_sweep`` on the default serial executor:
    SimpleNet (widths 16/32/64, GroupNorm, seeded init), 8-bit RQuant, 250
    synthetic CIFAR-10 images at 32x32x3, p = 0.01, 4 sparse fields per
    sweep call.  It exists because it is forward-bound: conv, GroupNorm,
    pooling and ReLU in ``repro.nn`` take nearly all of a draw, so an
    inference-path change shows here.  It bypasses ``repro.cluster`` and does
    almost no ``repro.runtime`` work.
``curve_cluster``
    A Fig. 7 curve through ``rerr_sweep`` on ``ClusterExecutor`` at its
    default worker count (the host's CPU count), in the inherited thread
    environment: a 32-128-128-6 MLP on 1500 blob examples, 4 rates from
    0.002 to 0.05 and 16 fields per rate, so a curve is 5 groups of about
    0.1 s and a run is many short curves.  It exists because the system
    stack dominates it: spawn, claim, heartbeat, publish, merge and store,
    plus injection.  It bypasses most of ``repro.nn`` (no conv, no
    normalization), so an inference-path change should leave it unchanged.
    Each worker daemon inherits the BLAS thread count, so on a small host
    the daemons oversubscribe the cores and some curves stall; the host
    metadata records the thread environment.  A stall lasts for the life of
    a curve's daemons, so many short curves per run, not longer ones, are
    what make a run's figures steady.
``train``
    RandBET training steps through ``RandBETTrainer.train_step``: standard
    variant, dense error draws, ``clip_w_max`` set and a start-loss
    threshold that injects errors from step 1; SimpleNet on 16x16 synthetic
    CIFAR at batch 32, each step timed individually.  It exists because it
    runs the same ``repro.nn`` layers with backward caches and gradients,
    plus a quantize, inject and dequantize per step, so an eval-only
    shortcut that slows training shows here.  It bypasses ``repro.runtime``,
    ``repro.eval`` and ``repro.cluster``.

One operation is a chip draw (``cell``, ``curve_cluster``) or a training
step (``train``).  A round is one sweep call (a cell, or a whole curve) or
ten steps.  With ``--trace 0`` the last line of output reports, for the
timed phase (the line before it lists every round):

``setup_s``          median of 5 set-ups: data, model, quantization, fields
                     (and trainer); worker spawn counts in the rounds
``ops_per_s``        operations completed per second of the rounds
``op_ms_p50``        median result latency over the run: the time from the
                     call to each result the caller gets, i.e. each draw of
                     a cell (as the engine finishes it), each group of a
                     curve (as the executor yields it) and each training
                     step
``first_result_s``   median over rounds of the time from the sweep call to
                     the executor's first yielded group (the round's first
                     step on ``train``)
``cpu_s_per_op``     user plus system CPU seconds of the process tree,
                     reaped daemons included, per operation
``peak_rss_mb``      peak resident set of this process or any child

Throughput and CPU are totals over the run rather than medians over rounds
because the cluster's curves are bimodal (stalled or not): a median jumps
between the modes as the share of stalled curves crosses one half, while a
total moves with that share smoothly.  The tail of the result latency is a
per-layer figure (``core.train_step_ms_p90``), not an end-to-end one: on
``curve_cluster`` it is the end of the stalled curves, whose run-to-run
spread exceeds any bound the benchmark may set.

Failures are reported as ``failed`` out of ``attempted`` operations: draws
or steps whose check fails, draws of dead-lettered or missing cells, and
duplicate or missing lines of the cluster's canonical ``results.jsonl``.
Checks: ``cell`` matches the unfused reference
(``evaluate_robust_error(fused=False)``) on the first field, checked
outside the timed phase, and every later round repeats the first exactly;
``curve_cluster`` matches a serial run of the same curve cell for cell;
``train`` has only finite losses and an untimed replay of the first steps
on a fresh seeded model gives identical losses.  The run exits with code 1
when any check fails.

``--trace 1`` runs half the time untraced and half under :mod:`tracer`,
which wraps the public functions of each ``repro`` layer from these files,
and reports per-layer self time and call counts (see :data:`PER_LAYER`),
the host's GEMM and copy ceilings, and the tracing overhead.  Every line
before the last is informational: host metadata first.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("cell", "curve_cluster", "train")
SETUP_REPEATS = 5

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "first_result_s": "s",
    "cpu_s_per_op": "s",
    "peak_rss_mb": "MB",
}

# Every per-layer metric and its unit.  ``_s`` figures are self time summed
# over the traced phase, except nn.conv.forward_s and nn.conv.backward_s,
# which include their im2col / col2im child (so forward = im2col_s +
# gemm_epilogue_s).  A layer a workload bypasses reports 0.
_TIMED = (
    "nn.conv.forward", "nn.conv.im2col", "nn.conv.backward", "nn.col2im",
    "nn.groupnorm.forward", "nn.groupnorm.backward", "nn.maxpool.forward",
    "nn.relu.forward", "nn.linear.forward",
    "quant.quantize", "quant.dequantize", "quant.decode_array",
    "biterror.inject", "biterror.make_fields",
    "eval.evaluate", "eval.patch_restore",
    "runtime.spec_build", "runtime.plan", "runtime.execute_group",
    "runtime.store_put",
    "cluster.submit", "cluster.merge",
    "core.train_step", "optim.sgd_step", "core.clip",
)
PER_LAYER = {}
for _name in _TIMED:
    PER_LAYER[_name + "_s"] = "s"
    PER_LAYER[_name + "_calls"] = "count"
PER_LAYER.update({
    "core.train_step_ms_p50": "ms",
    "core.train_step_ms_p90": "ms",
    "nn.conv.gemm_epilogue_s": "s",
    "nn.conv.gflops": "GFLOP/s",
    "nn.conv.im2col_bytes": "bytes",
    "nn.conv.roofline_ratio": "ratio",
    "host.gemm_gflops": "GFLOP/s",
    "host.copy_gbps": "GB/s",
    "biterror.bits_flipped": "count",
    "eval.touched_weights": "count",
    "cluster.spawn_to_first_item_s": "s",
    "cluster.item_overhead_ms": "ms",
    "cluster.worker_threads": "count",
    "cluster.worker_cpu_s": "s",
    "cluster.claims": "count",
    "cluster.empty_claims": "count",
    "cluster.lost_leases": "count",
    "cluster.retries": "count",
    "cluster.dead_letters": "count",
    "engine.clean_decodes_per_group": "ratio",
    "trace.untraced_ops_per_s": "1/s",
    "trace.traced_ops_per_s": "1/s",
    "trace.overhead_ops_per_s": "1/s",
    "trace.unattributed_s": "s",
    "trace.spans": "count",
})


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes (seconds of work, not paper-shaped)")
    return parser.parse_args(argv)


def percentile(values, q):
    """The ``q``-th percentile (0-100) of ``values``, linearly interpolated."""
    values = sorted(values)
    if len(values) == 1:
        return values[0]
    pos = (len(values) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(values) - 1)
    return values[low] + (values[high] - values[low]) * (pos - low)


def run_rounds(workload, seconds, tracer=None):
    """Closed-loop rounds until ``seconds`` have passed (at least one)."""
    rounds = []
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline:
        if tracer is None:
            rounds.append(workload.round())
        else:
            index = tracer.begin("bench.round")
            try:
                rounds.append(workload.round())
            finally:
                tracer.end(index)
    return rounds


def children_cpu_s():
    """User plus system CPU seconds of reaped child processes (the daemons)."""
    t = os.times()
    return t.children_user + t.children_system


def ops_per_s(rounds):
    return sum(r.ops for r in rounds) / sum(r.wall_s for r in rounds)


def end_to_end(rounds, setup_times, peak_rss_mb):
    latencies = [ms for r in rounds for ms in r.latencies_ms]
    return {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": ops_per_s(rounds),
        "op_ms_p50": percentile(latencies, 50),
        "first_result_s": statistics.median(r.first_result_s for r in rounds),
        "cpu_s_per_op": sum(r.cpu_s for r in rounds) / sum(r.ops for r in rounds),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(tracer, counters, cluster, worker_cpu_s, untraced, traced, ceilings):
    """Assemble every :data:`PER_LAYER` metric from one traced phase."""
    layers = tracer.layer_times()

    def self_s(name):
        return layers.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return layers.get(name, {}).get("calls", 0)

    metrics = {name: 0.0 for name in PER_LAYER}
    for name in _TIMED:
        metrics[name + "_s"] = self_s(name)
        metrics[name + "_calls"] = calls(name)
    for name in ("nn.conv.forward", "nn.conv.backward"):
        metrics[name + "_s"] = layers.get(name, {}).get("total_s", 0.0)
    steps_ms = [1000.0 * d for d in tracer.durations("core.train_step")]
    if steps_ms:
        metrics["core.train_step_ms_p50"] = percentile(steps_ms, 50)
        metrics["core.train_step_ms_p90"] = percentile(steps_ms, 90)
    metrics["nn.conv.gemm_epilogue_s"] = self_s("nn.conv.forward")
    metrics["eval.patch_restore_s"] = self_s("eval.patch") + self_s("eval.restore")
    metrics["eval.patch_restore_calls"] = calls("eval.patch")
    flops = tracer.counters.get("nn.conv.flops", 0.0)
    conv_s = metrics["nn.conv.forward_s"]
    metrics["nn.conv.im2col_bytes"] = tracer.counters.get("nn.conv.im2col_bytes", 0.0)
    metrics["host.gemm_gflops"], metrics["host.copy_gbps"] = ceilings
    if conv_s > 0:
        metrics["nn.conv.gflops"] = flops / conv_s / 1e9
        conv_bytes = metrics["nn.conv.im2col_bytes"] + tracer.counters["nn.conv.gemm_bytes"]
        # Roofline: the least time the host's ceilings allow for this work.
        bound_s = max(flops / (ceilings[0] * 1e9), conv_bytes / (ceilings[1] * 1e9))
        metrics["nn.conv.roofline_ratio"] = bound_s / conv_s
    metrics["biterror.bits_flipped"] = tracer.counters.get("biterror.bits_flipped", 0.0)
    metrics["eval.touched_weights"] = tracer.counters.get("eval.touched_weights", 0.0)
    counters = dict(counters)
    if cluster is not None:
        for key, value in cluster.counters.items():
            counters[key] = counters.get(key, 0) + value
        if cluster.spawn_to_first_item:
            metrics["cluster.spawn_to_first_item_s"] = statistics.median(
                cluster.spawn_to_first_item
            )
        if cluster.item_overheads_s:
            metrics["cluster.item_overhead_ms"] = 1000.0 * statistics.mean(
                cluster.item_overheads_s
            )
        metrics["cluster.worker_threads"] = cluster.max_threads
        metrics["cluster.dead_letters"] = cluster.dead_letters
    metrics["cluster.worker_cpu_s"] = worker_cpu_s
    metrics["cluster.claims"] = tracer.counters.get("cluster.claims", 0.0)
    metrics["cluster.empty_claims"] = tracer.counters.get("cluster.empty_claims", 0.0)
    metrics["cluster.lost_leases"] = counters.get("worker.lost_leases", 0)
    metrics["cluster.retries"] = counters.get("queue.nacks", 0) + counters.get(
        "queue.requeued_expired", 0
    )
    groups = counters.get("engine.groups", 0)
    if groups:
        metrics["engine.clean_decodes_per_group"] = counters.get("engine.clean_decodes", 0) / groups
    metrics["trace.untraced_ops_per_s"] = ops_per_s(untraced)
    metrics["trace.traced_ops_per_s"] = ops_per_s(traced)
    metrics["trace.overhead_ops_per_s"] = (
        metrics["trace.untraced_ops_per_s"] - metrics["trace.traced_ops_per_s"]
    )
    metrics["trace.unattributed_s"] = self_s("bench.round")
    metrics["trace.spans"] = len(tracer.spans)
    return metrics


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import host
    import workloads

    work_dir = os.path.join(ROOT, ".perfbench", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    # Keep every temporary file (the cluster's included) inside the checkout.
    os.environ["TMPDIR"] = tempfile.tempdir = work_dir
    try:
        print(json.dumps({"host": host.metadata()}), flush=True)
        if args.workload == "cell":
            workload = workloads.Cell(args.seed, tiny=args.tiny)
        elif args.workload == "curve_cluster":
            workload = workloads.CurveCluster(args.seed, work_dir, tiny=args.tiny)
        else:
            workload = workloads.Train(args.seed, tiny=args.tiny)
        setup_times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - start)
        workload.prepare()
        if args.trace:
            metrics, rounds = traced_run(workload, args, work_dir)
            units = PER_LAYER
        else:
            rounds = run_rounds(workload, args.seconds)
            metrics = end_to_end(rounds, setup_times, workloads.peak_rss_mb())
            units = END_TO_END
        failed = sum(r.failed for r in rounds) + workload.finish()
        print(json.dumps({"rounds": [
            {"ops": r.ops, "wall_s": r.wall_s, "first_result_s": r.first_result_s,
             "failed": r.failed} for r in rounds
        ]}), flush=True)
        result = {
            "correct": failed == 0,
            "attempted": sum(r.ops for r in rounds),
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        }
        print(json.dumps(result), flush=True)
        return 0 if failed == 0 else 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def traced_run(workload, args, work_dir):
    """Half the time untraced, then set-up plus half the time traced."""
    import host
    from cluster_trace import ClusterTrace
    from tracer import Tracer, install

    from repro import telemetry

    untraced = run_rounds(workload, args.seconds / 2)
    tracer = install(Tracer())
    telemetry.configure(os.path.join(work_dir, "telemetry"), echo=None)
    cluster = None
    if args.workload == "curve_cluster":
        cluster = ClusterTrace(tracer, work_dir)
        workload.on_group = cluster.sample_threads
        workload.after_round = cluster.after_round
    try:
        workload.setup()
        children0 = children_cpu_s()
        traced = run_rounds(workload, args.seconds / 2, tracer)
        worker_cpu_s = children_cpu_s() - children0
        counters = dict(telemetry.get_recorder().metrics.snapshot().get("counters") or {})
    finally:
        telemetry.disable()
        tracer.uninstall()
        if cluster is not None:
            cluster.uninstall()
    tracer.dump(os.path.join(ROOT, ".perfbench", f"trace-{args.workload}-{args.seed}.json"))
    # Without a conv layer, the ceiling is measured on the cell's dominant shape.
    shapes = tracer.conv_shapes or {(64, 16, 144, 1024): 1.0}
    dominant = max(shapes, key=shapes.get)
    ceilings = (host.gemm_gflops(dominant), host.copy_gbps())
    print(json.dumps({"ceilings": {
        "gemm_shape_NOKP": list(dominant), "copy_bytes": host.COPY_BYTES,
        "copy_exceeds_4x_llc": bool(host.last_level_cache_bytes())
        and host.COPY_BYTES > 4 * host.last_level_cache_bytes(),
    }}), flush=True)
    metrics = per_layer(tracer, counters, cluster, worker_cpu_s, untraced, traced, ceilings)
    return metrics, untraced + traced


if __name__ == "__main__":
    sys.exit(main())
