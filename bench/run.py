"""Benchmark entry point: one workload, one seed, one measured run.

    python3 bench/run.py --workload solve_n10 --seed 1 --seconds 40 --trace 0

Run from anywhere inside a checkout; the package is imported from its
src/ directory.  The run draws the workload's inputs from the seed, then
runs passes over the workload's steps until --seconds have gone by, one
process and one thread, each step starting when the last has finished.
A set-up is a fresh import of the package plus building the inputs; one
comes first, and more follow between steps, untimed by the passes, until
set-ups have taken SETUP_SHARE of the time so far.  Set-ups are thus
spread over the whole run, like the passes, and their median sees the
same states of a shared host.  Every step's output is checked at the
acceptance tolerances outside the timed region.

A shared host changes speed by up to twofold for minutes at a time, more
than any bound on a wall time can absorb.  So between steps, for
KERNEL_SHARE of the time, a helper process times a fixed reference kernel
while the workload waits, and the run reports its times scaled to the
host speed at which the kernel takes REFERENCE_S: pass_s by the kernel on
the workload's largest table size, setup_s by the small-table kernel.  A
slower program still reads slower by the same factor.  The wall times are
in the record.

The last line of standard output is the result: with --trace 0 the
end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer
metrics, from passes traced by tracing.Tracer alternating with untraced
ones.  The line before it is a record of the drawn inputs, the machine,
the regime and every pass time.  Diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import multiprocessing
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "mfbdsvie"
SETUP_SHARE = 0.05   # of the run's time, spent on set-ups spread through it
KERNEL_SHARE = 0.05  # of the run's time, spent on the reference kernel
# set-up is mostly importing and small per-call Python work, which the
# small-table kernel tracks best
SETUP_BITS = 12
# seconds of the reference kernel on tables of 2**bits doubles at the
# reference host speed: its medians over five runs per workload on the
# 2-CPU Xeon this benchmark was written on
REFERENCE_S = {12: 0.0080, 18: 0.0105, 20: 0.038}
TAIL_SAMPLES = 10   # samples a reported percentile needs beyond it


def fresh_import():
    """Import the package from scratch; numpy stays loaded."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    pkg = importlib.import_module(PACKAGE)
    importlib.import_module(f"{PACKAGE}.cli")
    return pkg


def reference_kernel(table: np.ndarray) -> float:
    """Seconds of fixed work of the kind lattice does on a table of doubles.

    Copy, scale and add, repeat, and average over blocks of four: per-call
    overhead dominates on small tables, memory traffic on large ones."""
    t0 = perf_counter()
    for _ in range(max(2, (1 << 19) // table.size)):
        a = table.copy()
        a = a * 0.5 + table
        a = np.repeat(a[: a.size // 4], 4)
        a.reshape(-1, 4).mean(axis=1)
    return perf_counter() - t0


def kernel_server(conn) -> None:
    """Time reference kernels on tables of 2**bits doubles, bits sent by
    request, until sent None.

    It runs in a helper process, so the kernel's tables never count in the
    workload's peak_rss_mb; the workload waits while it runs."""
    tables = {}
    while (bits := conn.recv()) is not None:
        if bits not in tables:
            tables[bits] = np.random.default_rng(0).random(1 << bits)
        conn.send(reference_kernel(tables[bits]))


class Rig:
    """The workload's current steps, the set-ups that built them, and the
    reference kernel times taken between steps.  With interleave off (trace
    mode) it sets up once and times no kernel."""

    def __init__(self, workload, inputs: dict, workdir: Path, interleave: bool):
        self.workload, self.inputs, self.workdir = workload, inputs, workdir
        self.interleave = interleave
        self.times: list[float] = []
        self.kernel_times: dict[int, list[float]] = {
            bits: [] for bits in {workload.table_bits, SETUP_BITS}}
        self.helper = None
        if interleave:
            ctx = multiprocessing.get_context("fork")
            self.conn, child_end = ctx.Pipe()
            self.helper = ctx.Process(target=kernel_server, args=(child_end,), daemon=True)
            self.helper.start()
        self.start = perf_counter()

    def close(self) -> None:
        """Stop the kernel helper and wait for it to end."""
        if self.helper is None:
            return
        try:
            self.conn.send(None)
        except OSError:
            pass  # it has already gone
        self.helper.join(30)
        if self.helper.is_alive():
            self.helper.kill()
            self.helper.join()

    def set_up(self) -> None:
        gc.collect()
        t0 = perf_counter()
        self.pkg = fresh_import()
        self.steps = self.workload.setup(self.pkg, self.inputs, self.workdir)
        self.times.append(perf_counter() - t0)

    def catch_up(self) -> None:
        """Set up and time kernels until each has had its share of the run."""
        while self.interleave and sum(self.times) < SETUP_SHARE * self.elapsed():
            self.set_up()
        while self.interleave and (sum(map(sum, self.kernel_times.values()))
                                   < KERNEL_SHARE * self.elapsed()):
            for bits, times in self.kernel_times.items():
                self.conn.send(bits)
                times.append(self.conn.recv())

    def host_scale(self, bits: int) -> float:
        """Factor from this run's wall times to the reference host speed."""
        return REFERENCE_S[bits] / statistics.median(self.kernel_times[bits])

    def elapsed(self) -> float:
        return perf_counter() - self.start


def run_pass(rig: Rig, tracer: tracing.Tracer | None, stop=lambda: False):
    """Run every step once, or until stop() after a step.

    Returns (seconds per step run, check results, counts)."""
    seconds = {}
    results: list[tuple[str, bool, object]] = []
    counts: dict[str, int] = {}
    for i in range(len(rig.steps)):
        rig.catch_up()
        step = rig.steps[i]
        gc.collect()
        if tracer:
            tracer.install()
        t0 = perf_counter()
        try:
            out, error = step.run(), None
        except Exception:  # a raising step is a failed result, not the end of the run
            out, error = None, traceback.format_exc()
        seconds[step.name] = perf_counter() - t0
        if tracer:
            tracer.uninstall()
        checked = {}
        if error is None:
            try:
                checked = step.check(out)
                if step.counts:
                    counts.update(step.counts(out))
            except Exception:
                error = traceback.format_exc()
        if error is not None:
            print(f"step {step.name} raised:\n{error}", file=sys.stderr)
        for name in step.checks:
            ok, value = checked.get(name, (False, "not checked"))
            results.append((f"{step.name}.{name}", bool(ok), value))
        del out
        if stop():
            break
    return seconds, results, counts


def machine_facts() -> dict:
    facts = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
             "python": platform.python_version(), "numpy": np.__version__}
    try:
        lines = subprocess.run(["lscpu"], capture_output=True, text=True,
                               timeout=20, check=True).stdout.splitlines()
    except (OSError, subprocess.SubprocessError):
        lines = []
    for line in lines:
        key, _, value = line.partition(":")
        if key.strip() in ("Model name", "L2 cache", "L3 cache"):
            facts[key.strip().lower().replace(" ", "_")] = value.strip()
    return facts


def _bytes(size: str | None) -> int | None:
    """'105 MiB (1 instance)' -> bytes."""
    units = {"KiB": 1 << 10, "MiB": 1 << 20, "GiB": 1 << 30}
    parts = (size or "").split()
    if len(parts) >= 2 and parts[1] in units:
        return int(float(parts[0]) * units[parts[1]])
    return None


def percentile_record(times: list[float]) -> dict:
    """The highest whole percentile with TAIL_SAMPLES samples beyond it."""
    n = len(times)
    if n <= TAIL_SAMPLES:
        return {"samples": n, "highest_percentile": None}
    p = int(100 * (n - TAIL_SAMPLES) / n)
    return {"samples": n, "highest_percentile": p,
            "value_s": float(np.percentile(times, p))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / PACKAGE / "__init__.py").is_file():
        print(f"bench: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS[args.workload]
    inputs = workload.draw(random.Random(args.seed))
    work_root = ROOT / ".bench_work"
    workdir = work_root / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return measure(args, spec, workload, inputs, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run still uses it


def measure(args, spec, workload, inputs, workdir) -> int:
    # trace mode sets up once: the tracer wraps the package the steps use
    rig = Rig(workload, inputs, workdir, interleave=not args.trace)
    try:
        rig.set_up()
        return measure_with(rig, args, spec, workload, inputs)
    finally:
        rig.close()


def measure_with(rig, args, spec, workload, inputs) -> int:
    tracer = tracing.Tracer(rig.pkg) if args.trace else None
    untraced: list[float] = []
    traced: list[float] = []
    step_times: dict[str, list[float]] = {}
    layer_runs: list[dict] = []
    checks: list[tuple[str, bool, object]] = []

    def time_up() -> bool:
        # untraced runs may end after any step once every step has run
        return (not tracer and len(untraced) > 0
                and rig.elapsed() >= args.seconds)

    while True:
        # trace mode alternates untraced and traced passes, untraced first
        if tracer and len(traced) < len(untraced):
            tracer.begin_pass()
            seconds, results, counts = run_pass(rig, tracer)
            layer_runs.append({**tracer.end_pass(), **counts})
            traced.append(sum(seconds.values()))
        else:
            seconds, results, _ = run_pass(rig, None, time_up)
            if len(seconds) == len(rig.steps):
                untraced.append(sum(seconds.values()))
            for name, t in seconds.items():
                step_times.setdefault(name, []).append(t)
        checks.extend(results)
        if rig.elapsed() >= args.seconds and (traced or not tracer):
            break

    failed = [(name, value) for name, ok, value in checks if not ok]
    correct = not failed
    attempted = len(checks)
    if tracer:
        wanted = spec["per_layer"]
        values = {"trace_overhead_s": statistics.median(traced) - statistics.median(untraced)}
        for metric in wanted:
            name = metric["name"]
            if name in values:
                continue
            runs = [run.get(name, 0) for run in layer_runs]
            if metric["unit"] == "s":
                values[name] = statistics.median(runs)
            else:
                # counts are exact, so every traced pass must repeat them
                if len(set(runs)) != 1:
                    print(f"bench: {name} differs between traced passes: {runs}",
                          file=sys.stderr)
                    correct = False
                values[name] = runs[0]
    else:
        wanted = spec["end_to_end"]
        # a pass is one run of every step: the sum of the steps' medians
        pass_wall = sum(statistics.median(t) for t in step_times.values())
        setup_wall = statistics.median(rig.times)
        values = {
            "pass_s": pass_wall * rig.host_scale(workload.table_bits),
            "setup_s": setup_wall * rig.host_scale(SETUP_BITS),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "verified_ratio": 1.0 - len(failed) / attempted,
        }

    facts = machine_facts()
    table = 8 << workload.table_bits
    l3 = _bytes(facts.get("l3_cache"))
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "inputs": inputs, "machine": facts,
        "regime": {"largest_table_bytes_computed": table, "l3_bytes": l3,
                   "table_over_l3": table / l3 if l3 else None},
        "setup_times_s": rig.times,
        "kernel_median_s": {bits: statistics.median(t) if t else None
                            for bits, t in rig.kernel_times.items()},
        "wall_s": None if args.trace else {"pass": pass_wall, "setup": setup_wall},
        "pass_times_s": untraced, "pass_s": percentile_record(untraced),
        "step_times_s": step_times,
        "traced_pass_times_s": traced,
        "fail_ratio": len(failed) / attempted,
        "failed_checks": [[name, repr(value)] for name, value in failed[:20]],
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": len(failed),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
