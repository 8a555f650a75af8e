"""Macrobenchmark: the multi-tenant sweep service versus solo serial runs.

Registers two differently-shaped synthetic sweeps as tenants of one
:class:`~repro.service.ServiceRegistry` (alice at twice bob's fair-share
priority, both on the filesystem queue) and drains the service with
``--workers`` real worker processes (``python -m repro.service worker``,
separate interpreters, coordinating through the service directory alone —
exactly how a multi-host fleet would).

Before any timing is reported the per-tenant merged stores are checked for
**exact** equality with a solo :class:`~repro.runtime.SerialExecutor` run
of each tenant's spec — cell for cell, duplicate-free canonical
``results.jsonl``, and a clean integrity audit of every tenant run
directory — so multi-tenancy is never bought with divergence, double
counting, or cross-tenant leakage.

Run the full benchmark::

    PYTHONPATH=src python benchmarks/bench_service.py

Fast smoke mode for CI (tiny grids, 2 worker processes)::

    PYTHONPATH=src python benchmarks/bench_service.py --smoke
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time

import numpy as np

from repro import telemetry
from repro.biterror import make_error_fields
from repro.cluster import JobQueue
from repro.cluster.integrity import verify_run_dir
from repro.data import make_blob_dataset, train_test_split
from repro.models import MLP
from repro.quant import FixedPointQuantizer, rquant
from repro.quant.qat import quantize_model
from repro.runtime import ResultStore, SerialExecutor, SweepSpec, run_sweep
from repro.service import ServiceRegistry, service_status
from repro.telemetry.perf import add_json_argument, perf_row, write_perf_records
from repro.telemetry.report import merged_run_metrics
from repro.utils.serialization import read_jsonl
from repro.utils.tables import Table


def build_spec(args, rates, chip_rate=None, seed_base=0):
    """One synthetic tenant spec; ``seed_base`` differentiates tenants."""
    dataset = make_blob_dataset(
        num_classes=4,
        samples_per_class=args.samples,
        num_features=24,
        separation=2.5,
        rng=np.random.default_rng(seed_base),
    )
    _, test = train_test_split(
        dataset, test_fraction=0.5, rng=np.random.default_rng(seed_base + 1)
    )
    model = MLP(
        in_features=24, num_classes=4, hidden=(args.hidden,),
        rng=np.random.default_rng(seed_base + 2),
    )
    quantizer = FixedPointQuantizer(rquant(8))
    quantized = quantize_model(model, quantizer)
    fields = make_error_fields(
        quantized.num_weights, 8, args.fields, seed=seed_base + 3, backend="sparse"
    )
    spec = SweepSpec(test, batch_size=64)
    spec.add_model("mlp", model, quantizer, quantized)
    spec.add_field_set("fields", fields)
    for rate in rates:
        spec.add_field_jobs("mlp", "fields", float(rate))
    if chip_rate is not None:
        from repro.biterror import ChipProfile

        profile = ChipProfile(
            rows=128, columns=64, column_alignment=0.4, seed=seed_base + 4
        )
        spec.add_chip("chips", profile)
        spec.add_chip_jobs("mlp", "chips", float(chip_rate), offsets=(0, 500))
    return spec


def tenant_grid(args, tenant_id):
    """The per-tenant spec builders: same content every call."""
    if tenant_id == "alice":
        rates = np.linspace(0.004, 0.04, args.rates)
        return build_spec(args, rates, seed_base=0)
    rates = np.linspace(0.002, 0.02, max(args.rates - 1, 1))
    return build_spec(args, rates, chip_rate=0.02, seed_base=100)


def spawn_worker(service_dir, worker_id, seed):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro.service", "worker", service_dir,
            "--id", worker_id, "--seed", str(seed), "--poll", "0.02",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rates", type=int, default=10,
                        help="bit error rates in tenant alice's grid")
    parser.add_argument("--fields", type=int, default=4,
                        help="error fields (chips) per rate")
    parser.add_argument("--samples", type=int, default=600,
                        help="synthetic samples per class")
    parser.add_argument("--hidden", type=int, default=96,
                        help="hidden width of the evaluated MLPs")
    parser.add_argument("--workers", type=int, default=2,
                        help="service worker processes to attach")
    parser.add_argument("--service-dir", default=None,
                        help="service directory (default: fresh temp dir)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny fast run for CI; 2 workers, exactness and "
                             "clean-audit gates only")
    parser.add_argument("--telemetry", action="store_true",
                        help="record telemetry (submission + per-worker "
                             "dispatch sinks) into the service dir")
    add_json_argument(parser)
    args = parser.parse_args()

    if args.smoke:
        args.rates = min(args.rates, 3)
        args.fields = min(args.fields, 2)
        args.samples = min(args.samples, 60)
        args.hidden = min(args.hidden, 24)
        args.workers = min(args.workers, 2)

    # -- solo serial reference runs (the exactness baseline) ------------------
    solo = {}
    serial_time = 0.0
    for tenant_id in ("alice", "bob"):
        start = time.perf_counter()
        solo[tenant_id] = run_sweep(
            tenant_grid(args, tenant_id), executor=SerialExecutor()
        )
        serial_time += time.perf_counter() - start
    cells = sum(len(results) for results in solo.values())
    print(f"two tenants, {cells} cells total, {args.workers} service "
          f"worker process(es), host CPUs: {os.cpu_count()}")

    service_dir = args.service_dir or tempfile.mkdtemp(prefix="bench-service-")
    try:
        registry = ServiceRegistry(service_dir)
        if args.telemetry:
            telemetry.configure(service_dir, name="bench-submitter")
        registry.submit("alice", tenant_grid(args, "alice"), priority=2.0,
                        lease_timeout=30.0)
        registry.submit("bob", tenant_grid(args, "bob"), priority=1.0,
                        lease_timeout=30.0)
        if args.telemetry:
            telemetry.disable()

        start = time.perf_counter()
        procs = [
            spawn_worker(service_dir, f"w{index}", seed=index)
            for index in range(args.workers)
        ]
        failed = False
        for proc in procs:
            out, _ = proc.communicate(timeout=600)
            print(out.rstrip())
            failed = failed or proc.returncode != 0
        service_time = time.perf_counter() - start
        if failed:
            print("FAIL: a service worker process exited non-zero")
            return 1

        # -- exactness gates (before any timing is reported) ------------------
        for tenant_id in ("alice", "bob"):
            tenant = registry.get(tenant_id)
            if tenant is None or tenant.state != "done":
                print(f"FAIL: tenant {tenant_id} is "
                      f"{tenant.state if tenant else 'missing'}, not done")
                return 1
            run_dir = registry.tenant_run_dir(tenant_id)
            if not JobQueue(run_dir).is_drained():
                print(f"FAIL: tenant {tenant_id} queue is not drained")
                return 1
            expected = solo[tenant_id]
            store = ResultStore(run_dir)
            if len(store) != len(expected) or any(
                store.get(key) != cell for key, cell in expected.items()
            ):
                print(f"FAIL: tenant {tenant_id} store diverges from its "
                      f"solo serial run")
                return 1
            records = read_jsonl(os.path.join(run_dir, "results.jsonl"))
            keys = [r["key"] for r in records if isinstance(r.get("key"), str)]
            if len(keys) != len(set(keys)) or set(keys) != set(expected):
                print(f"FAIL: tenant {tenant_id} results.jsonl is not "
                      f"duplicate-free and complete ({len(keys)} lines, "
                      f"{len(set(keys))} distinct, {len(expected)} expected)")
                return 1
            report = verify_run_dir(run_dir)
            if not report.clean:
                print(f"FAIL: tenant {tenant_id} integrity audit found "
                      f"{len(report.findings)} finding(s):")
                for finding in report.findings:
                    print(f"  [{finding.check}] {finding.detail}")
                return 1
        status = service_status(service_dir)
        print(f"per-tenant stores exact vs solo serial, duplicate-free, "
              f"audits clean; live workers at exit: "
              f"{len(status['workers'])}")
        if args.telemetry:
            counters = merged_run_metrics(service_dir).get("counters") or {}
            dispatch = {
                name: int(value)
                for name, value in sorted(counters.items())
                if name.startswith("service.")
            }
            print("service dispatch counters: " + (
                ", ".join(f"{k.split('.', 1)[1]}={v}" for k, v in dispatch.items())
                or "none recorded"
            ))
    finally:
        if args.service_dir is None:
            shutil.rmtree(service_dir, ignore_errors=True)

    speedup = serial_time / max(service_time, 1e-12)
    table = Table(
        title="service throughput (two tenants, one shared worker fleet)",
        headers=["topology", "wall [s]", "cells/s", "speedup"],
        float_digits=3,
    )
    table.add_row("solo serial (sum of tenants)", serial_time,
                  cells / serial_time, "1.0x")
    table.add_row(f"service ({args.workers} workers)", service_time,
                  cells / service_time, f"{speedup:.1f}x")
    print("\n" + table.render() + "\n")

    write_perf_records(args.json_path, [
        perf_row("service", "service_speedup", speedup,
                 workers=args.workers, cells=cells, smoke=args.smoke),
        perf_row("service", "serial_wall_s", serial_time, smoke=args.smoke),
        perf_row("service", "service_wall_s", service_time, smoke=args.smoke),
    ])

    if args.smoke:
        print("smoke mode: both tenants drained, stores bit-identical to "
              "solo serial, audits clean; no speedup assertion")
        return 0
    print(f"OK: {speedup:.1f}x vs summed solo serial at {args.workers} "
          f"service workers; per-tenant stores exact and audits clean")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
