"""Run one workload of the hooktrees benchmark and print its result.

    python3 hookbench/run.py --workload mixed_grid --seed 1 --seconds 36 --trace 0

The last line of stdout is one json object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
readable summary.  ``--trace 0`` measures the end-to-end metrics.
``--trace 1`` alternates untraced and traced passes over the same input,
reports the per-layer metrics and the tracing overhead, and writes every
span to ``.hookbench_out/``.  Metric names and units come from
``BENCHMARK.json``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from random import Random
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".hookbench_out"
SETUP_PROBES = 7  # at least; one runs after every pass
MIN_REPEATS = 3
LARGEST_BATCH_S = 1.0  # length of one batch of the largest check
# The summed self times may exceed the pass's own wall time by the cost of
# entering and leaving the top-level span around it: microseconds.
SELF_TIME_TOLERANCE_S = 1e-3

sys.path[:0] = [str(SRC), str(ROOT)]
try:
    import hooktrees
except ModuleNotFoundError:
    sys.exit(f"hookbench: no hooktrees sources under {SRC}")
from hookbench import reference, tracing, workloads  # noqa: E402


class Tally:
    """Checks attempted and checks whose verdict differs from the known answer."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, attempted: int, failed: int) -> bool:
        self.attempted += attempted
        self.failed += failed
        return failed == 0

    def gate(self, text: str, expected: int, want_pass: bool = True, golden: str | None = None) -> bool:
        """Count one rendered pass; True when every verdict is the known answer."""
        failed = workloads.failed_checks(text, expected, want_pass, golden)
        if failed and golden is not None:
            print(f"hookbench: digest {workloads.canonical_digest(text)}, expected {golden}")
        return self.add(expected, failed)


def timed(ok: list[float], every: list[float]) -> float:
    """Median of the passes that met the gate; of every pass when none did."""
    return statistics.median(ok or every)


def probe_setup(name: str, seed: int) -> float:
    """Set-up seconds measured in a fresh interpreter by ``setup_probe.py``."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve().parent / "setup_probe.py"), name, str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def peak_rss_mb() -> float:
    """Peak resident memory of this process or of any set-up probe it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def measure_untraced(workload, name: str, seed: int, seconds: float, tally: Tally) -> dict:
    rng = Random(seed)
    probe_setup(name, seed)  # fills the bytecode cache
    elapsed, text, trees = workload.run_largest()
    tally.gate(text, 1)
    reps = max(1, round(LARGEST_BATCH_S / elapsed))
    # The machine's speed drifts for every process alike, so each sample is
    # scaled to reference seconds by the reference runs around it (see
    # reference.py).  Passes, batches of the largest check and set-up probes
    # alternate for the whole run, and a sample of the largest check is the
    # mean over a batch that lasts about a second.
    gauge = reference.SpeedGauge()
    setups, ok, every, largest_ok, largest_every = [], [], [], [], []
    start = perf_counter()
    while len(every) < MIN_REPEATS or perf_counter() < start + seconds:
        items = workload.permute(rng)
        one = workload.run_pass(items)
        every.append(one.wall * gauge.scale())
        if tally.gate(one.text, len(items), golden=workload.golden):
            ok.append(every[-1])
        batch, passed = [], True
        for _ in range(reps):
            elapsed, text, trees = workload.run_largest()
            batch.append(elapsed)
            passed &= tally.gate(text, 1)
        largest_every.append(statistics.fmean(batch) * gauge.scale())
        if passed:
            largest_ok.append(largest_every[-1])
        setups.append(probe_setup(name, seed) * gauge.scale())
    while len(setups) < SETUP_PROBES:
        setups.append(probe_setup(name, seed) * gauge.scale())

    wall = timed(ok, every)
    largest = timed(largest_ok, largest_every)
    ref = statistics.median(gauge.samples)
    print(f"hookbench: {name} seed={seed} passes={len(every)} wall_s={wall:.4f} "
          f"largest_check_s={largest:.4f} ({len(largest_every)} batches of {reps}"
          + (f", {trees / largest:.0f} trees/s)" if trees else ")")
          + f"; reference seconds, reference run {ref:.5f} s against {reference.REF_SECONDS} s")
    return {"setup_s": statistics.median(setups), "wall_s": wall, "largest_check_s": largest, "peak_rss_mb": peak_rss_mb()}


def measure_traced(workload, name: str, seed: int, seconds: float, tally: Tally) -> dict:
    rng = Random(seed)
    passes, layer_runs, plain = [], [], []
    tracer = tracing.Tracer(workloads.trace_targets())
    start = perf_counter()
    while len(passes) < MIN_REPEATS or perf_counter() < start + seconds:
        items = workload.permute(rng)
        one = workload.run_pass(items)
        tally.gate(one.text, len(items), golden=workload.golden)
        plain.append(one.wall)

        with tracer.installed(), tracer.span("bench", "pass"):
            traced = workload.run_pass(items)
        spans = tracer.take()
        tally.gate(traced.text, len(items), golden=workload.golden)
        error = tracing.self_time_error(spans, traced.wall)
        if not tally.add(1, int(error > SELF_TIME_TOLERANCE_S)):
            print(f"hookbench: self times miss the traced wall time by {error:.3g} s")
        passes.append({"wall_s": traced.wall, "self_time_error_s": error, "spans": spans})
        layer_runs.append(workloads.layer_metrics(spans))

    metrics = {key: statistics.median(run[key] for run in layer_runs) for key in layer_runs[0]}
    traced_wall = statistics.median(p["wall_s"] for p in passes)
    plain_wall = statistics.median(plain)
    # Each traced pass is compared with the untraced pass just before it on the same input.
    pairs = [(p["wall_s"], wall) for p, wall in zip(passes, plain)]
    metrics.update({
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": plain_wall,
        "trace.overhead_s": statistics.median(t - u for t, u in pairs),
        "trace.overhead_share": statistics.median(t / u - 1 for t, u in pairs),
    })
    write_trace(name, seed, passes, layer_runs)
    print(f"hookbench: {name} seed={seed} traced passes={len(passes)} wall_s traced={traced_wall:.4f} "
          f"untraced={plain_wall:.4f} overhead={metrics['trace.overhead_share']:.1%}")
    return metrics


def write_trace(name: str, seed: int, passes: list, layer_runs: list) -> None:
    """Write every span (times relative to its pass) and the per-pass counts."""
    for one in passes:
        origin = min(span["start"] for span in one["spans"])
        for span in one["spans"]:
            span["start"] -= origin
            span["end"] -= origin
    OUT.mkdir(exist_ok=True)
    doc = {"workload": name, "seed": seed,
           "passes": [dict(one, metrics=run) for one, run in zip(passes, layer_runs)]}
    (OUT / f"trace_{name}_seed{seed}.json").write_text(json.dumps(doc) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if Path(hooktrees.__file__).resolve().parent != SRC / "hooktrees":
        print(f"hookbench: imported hooktrees from {hooktrees.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    workload = workloads.WORKLOADS[args.workload]
    tally = Tally()
    controls = workload.control()  # run first, they also warm up every code path
    text = workload.run_control(controls)
    tally.gate(text, len(controls), want_pass=False)
    measure = measure_traced if args.trace else measure_untraced
    values = measure(workload, args.workload, args.seed, args.seconds, tally)
    if set(values) != set(wanted):
        print(f"hookbench: metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(wanted))}",
              file=sys.stderr)
        return 2
    print(f"hookbench: fail_share={tally.failed}/{tally.attempted}, "
          f"{len(controls)} negative controls")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {key: {"value": values[key], "unit": wanted[key]} for key in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
