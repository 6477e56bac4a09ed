"""solgeo benchmark: closed-loop certificate workloads, one caller.

    python3 bench/run.py --workload dense-spectral --seed 1 --seconds 46 --trace 0

Run from a checkout of the repository; the package is imported from its
``src`` directory.  A run does a fixed number of rotations of the
workload's items, as many as take about ``--seconds`` on the reference
machine (``workloads.ROTATION_SECONDS``).  ``--trace 0`` measures the
end-to-end metrics; ``--trace 1`` runs half the rotations untraced and
half traced and reports the per-layer metrics.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``bench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import os

# Pin BLAS and the worker pool before numpy is imported.
PINS = {"OPENBLAS_NUM_THREADS": "1", "SOLGEO_THREADS": "1"}
os.environ.update(PINS)

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 9
PROBE_TIMEOUT = 60


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: import and run the warm-up item, then exit")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def _environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "pins": {k: os.environ.get(k) for k in PINS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "seed": seed,
    }


def _setup_probe(args: argparse.Namespace) -> tuple[float, str | None]:
    """Wall time of one fresh process that starts, imports and runs the
    warm-up item: the benchmark's set-up cost.  The second value says why
    the probe failed, or is None."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "1"]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=PROBE_TIMEOUT)
    except subprocess.TimeoutExpired:
        return time.perf_counter() - t0, f"set-up probe timed out after {PROBE_TIMEOUT} s"
    seconds = time.perf_counter() - t0
    if proc.returncode != 0:
        last = (proc.stderr.strip().splitlines() or [""])[-1]
        return seconds, f"set-up probe exited with {proc.returncode}: {last}"
    return seconds, None


def _print_summary(label: str, s, wall: float) -> None:
    print(f"{label}: {s.attempted} items in {wall:.1f} s wall, {s.failed} failed "
          f"(failed_ratio {s.failed / s.attempted:.4f}); throughput "
          f"{s.throughput:.4f} items/s; item_s p50 {s.p50:.4f} s, tail p{s.tail_pct} "
          f"{s.tail:.4f} s over {s.tail_samples} samples; nonfallback_ratio "
          f"{s.nonfallback_ratio:.4f} of {s.certificates} certificates")


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (SRC / "solgeo" / "__init__.py").is_file():
        print(f"error: no solgeo package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    # imported only now: they need the package found above
    import harness
    import workloads
    from tracer import Tracer, layer_metrics, layer_self_times

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=ROOT / ".bench_tmp")
    try:
        items = workloads.workload_items(args.workload, workdir)
        if args.setup_probe:
            warm = harness.run_item(items[0], args.seed, -1)
            if warm.failed:
                print(f"warm-up item failed: {warm.failures}", file=sys.stderr)
            return 1 if warm.failed else 0
        warm = harness.run_item(items[0], args.seed, -1)
        records = [warm]
        env = _environment(args.seed)
        print("env:", json.dumps(env, sort_keys=True))
        if warm.failed:
            print(f"warm-up item failed: {warm.failures}")
        rotations = workloads.rotations(args.workload, args.seconds)
        setup: list[float] = []
        probe_failures: list[str] = []

        if args.trace:
            half = (rotations + 1) // 2
            plain, plain_wall = harness.run_phase(items, args.seed, half)
            tracer = Tracer()
            tracer.install()
            try:
                traced, traced_wall = harness.run_phase(items, args.seed, half, tracer)
            finally:
                tracer.uninstall()
            records += plain + traced
            untraced_s, traced_s = harness.summarize(plain), harness.summarize(traced)
            _print_summary("untraced", untraced_s, plain_wall)
            _print_summary("traced", traced_s, traced_wall)
            metrics = layer_metrics(tracer, sum(r.blocks for r in traced),
                                    sum(r.blocks_fallback for r in traced))
            metrics["trace.overhead_ratio"] = (
                traced_s.throughput / untraced_s.throughput if untraced_s.throughput else 0.0)
            _print_breakdown(tracer, layer_self_times(tracer))
            _write_spans(tracer, args)
            units = _units("per_layer")
        else:
            # Set-up probes are spread over the run, between rotations, so
            # that their median spans the machine's slow and fast spells
            # as the item times do.
            due = [j * rotations // SETUP_PROBES for j in range(SETUP_PROBES)]

            def probe(rotation: int) -> None:
                for _ in range(due.count(rotation)):
                    seconds, failure = _setup_probe(args)
                    setup.append(seconds)
                    if failure:
                        probe_failures.append(failure)

            measured, wall = harness.run_phase(items, args.seed, rotations, between=probe)
            records += measured
            s = harness.summarize(measured)
            print(f"setup_s probes: {', '.join(f'{t:.4f}' for t in setup)}")
            _print_summary("measured", s, wall)
            metrics = {
                "throughput_items_per_s": s.throughput,
                "item_s.p50": s.p50,
                "item_s.tail": s.tail,
                "setup_s": statistics.median(setup),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "ok_ratio": s.ok_ratio,
                "nonfallback_ratio": s.nonfallback_ratio,
            }
            units = _units("end_to_end")

        per_kind: dict[str, list[float]] = {}
        for r in records[1:]:
            per_kind.setdefault(r.kind, []).append(r.seconds)
        for kind, secs in per_kind.items():
            print(f"  {kind}: {len(secs)} items, median {statistics.median(secs):.4f} s")
        # each set-up probe runs the warm-up item in a fresh process
        failures = [(r.kind, r.index, r.failures) for r in records if r.failed]
        failures += [(items[0].name + " (set-up probe)", -1, [f]) for f in probe_failures]
        for failure in failures[:20]:
            print("FAILED:", failure)
        rotation = len(items)
        print(f"certificate digest, first rotation: "
              f"{harness.certificate_digest(records[1:1 + rotation])}")
        print(f"certificate digest, all {sum(len(r.certificate_texts) for r in records)} "
              f"certificates: {harness.certificate_digest(records)}")

        result = {
            "correct": not failures,
            "attempted": len(records) + len(setup),
            "failed": len(failures),
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        }
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
                  "w", encoding="utf-8") as fh:
            json.dump({**result, "env": env, "all_metrics": metrics,
                       "items": [[r.kind, r.seconds, r.failed] for r in records]},
                      fh, indent=1, sort_keys=True)
        print(json.dumps(result, sort_keys=True))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _units(section: str) -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def _print_breakdown(tracer, by_kind: dict[str, dict[str, float]]) -> None:
    """Mean self time per item of each layer, by item kind and overall."""
    counts: dict[str, int] = {}
    for _, kind, _, _ in tracer.items:
        counts[kind] = counts.get(kind, 0) + 1
    total: dict[str, float] = {}
    for by_layer in by_kind.values():
        for layer, secs in by_layer.items():
            total[layer] = total.get(layer, 0.0) + secs
    layers = sorted(total, key=lambda layer: (layer == "(no layer)", -total[layer]))
    kinds = list(counts)
    print("traced self time per item (s) by layer and item kind:")
    print(f"  {'layer':<14}" + "".join(f"{k:>16}" for k in kinds) + f"{'all':>16}")
    for layer in layers:
        cells = [by_kind[k].get(layer, 0.0) / counts[k] for k in kinds]
        print(f"  {layer:<14}" + "".join(f"{c:16.4f}" for c in cells)
              + f"{total[layer] / len(tracer.items):16.4f}")
    item = [sum(by_kind[k].values()) / counts[k] for k in kinds]
    print(f"  {'item':<14}" + "".join(f"{c:16.4f}" for c in item)
          + f"{sum(total.values()) / len(tracer.items):16.4f}")


def _write_spans(tracer, args: argparse.Namespace) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for index, kind, start, end in tracer.items:
            fh.write(json.dumps({"item": index, "kind": kind, "start": start, "end": end}) + "\n")
        for i, (name, _, start, end, parent, item, counters) in enumerate(tracer.spans):
            fh.write(json.dumps({"span": i, "name": name, "start": start, "end": end,
                                 "parent": parent, "item": item, "counters": counters}) + "\n")
    print(f"spans written to {path.relative_to(ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
