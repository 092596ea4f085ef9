"""Benchmark of kslab: convergence reports, per-mode spectra, Gamma truncation sweep.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

One workload runs in this process against the sources in ``src/``. After the
set-up it repeats whole rounds of the workload's operations, at least two,
until ``--seconds`` have passed, and checks every output. ``--trace 0``
reports the end-to-end metrics (setup_s, run_s, peak_rss_mb); ``--trace 1``
wraps kslab's functions with spans and reports the per-layer metrics
instead. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Result and span files go to
``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("convergence_small", "spectral_default", "truncation_sweep")
SETUP_SAMPLES = 3       # this process plus two fresh child processes
MIN_ROUNDS = 2          # the second round re-checks byte-stable reports
CHILD_TIMEOUT_S = 150
CALIBRATE_EVERY_S = 2.0   # longest stretch of operations between two calibrations
CALIBRATION_REF_S = 0.25  # calibration kernel time at the reference speed
# Across runs on this host, round times moved with the kernel time to powers
# between 0.1 and 0.8, depending on the workload (see README.md); the full
# ratio over-corrects, so the square root is the partial correction used.
CALIBRATION_EXPONENT = 0.5
# OpenBLAS workers spin while they wait: with two threads on two CPUs the
# round times spread far wider (see README.md).
BLAS_THREADS = 1


def _set_blas_threads() -> None:
    """Fix the BLAS pool size of this process and its children; before numpy loads."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def _pin_to_one_cpu() -> int:
    """Keep this process and its children on one CPU; returns the usable CPUs.

    The calibration kernel then runs on the CPU the operations ran on; left
    free, the scheduler often woke it on the other one.
    """
    usable = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(usable)})
    return len(usable)


def _load_kslab():
    """Import kslab from this checkout's src/ and nowhere else."""
    package = SRC / "kslab"
    if not (package / "__init__.py").is_file():
        raise ImportError(f"no kslab sources under {package}")
    sys.path.insert(0, str(SRC))
    import kslab

    if Path(kslab.__file__).resolve().parent != package.resolve():
        raise ImportError(f"kslab imported from {kslab.__file__}, not from {package}")
    return {name: mod for name, mod in sys.modules.items()
            if name == "kslab" or name.startswith("kslab.")}


class Calibration:
    """A fixed kernel, timed between operations, that tracks the host's speed.

    The CPUs are shared: over minutes the same operation runs up to 1.7x
    slower (see README.md). The kernel (``kernel.py``) runs in a process of
    its own on the same CPU, and waits while kslab runs. A time scaled by
    (CALIBRATION_REF_S / kernel time around it) ** CALIBRATION_EXPONENT
    varies far less between slow and fast stretches than the bare time.
    """

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "kernel.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.samples: list[float] = []
        try:
            self.measure()      # first calls load code paths; not a sample
        except BaseException:
            self.close()
            raise
        self.samples.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def measure(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"calibration kernel exited with {self.proc.wait()}")
        elapsed = float(line)
        self.samples.append(elapsed)
        return elapsed

    def scaled(self, seconds: float, before: float, after: float) -> float:
        return seconds * (CALIBRATION_REF_S / (0.5 * (before + after))) ** CALIBRATION_EXPONENT


def _child_setup(args) -> float:
    """Set-up wall time of a fresh process, after its imports."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True,
                          timeout=CHILD_TIMEOUT_S)
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def _run_rounds(wl, seconds: float, tracer, cal: Calibration):
    """Whole rounds until `seconds` have passed; returns the round bookkeeping.

    Per round: the wall time of the operations' calls, and the same time
    scaled by the calibrations that bracket each stretch of operations.
    """
    wall_per_round, scaled_per_round, phases, problems = [], [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    before = cal.measure()
    while len(phases) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        phase = f"round-{len(phases)}"
        phases.append(phase)
        wall = scaled = stretch = 0.0
        ops = wl.operations()
        for k, op in enumerate(ops):
            attempted += 1
            if tracer:
                tracer.phase = phase
            t0 = time.perf_counter()
            try:
                out = op.call()
                ok = True
            except Exception:
                ok = False
                print(f"{phase} {op.label}: operation failed", file=sys.stderr)
                traceback.print_exc()
            stretch += time.perf_counter() - t0
            if tracer:
                tracer.phase = None
            if stretch >= CALIBRATE_EVERY_S or k == len(ops) - 1:
                after = cal.measure()
                wall += stretch
                scaled += cal.scaled(stretch, before, after)
                before, stretch = after, 0.0
            if not ok:
                failed += 1
                continue
            try:
                found, counts = op.check(out)
            except Exception as exc:
                traceback.print_exc()
                found, counts = [f"{op.label}: check raised {exc!r}"], {}
            problems += [f"{phase} {p}" for p in found]
            if tracer:
                for name, amount in counts.items():
                    tracer.count(name, amount, phase)
            del out
        wall_per_round.append(wall)
        scaled_per_round.append(scaled)
    return wall_per_round, scaled_per_round, phases, attempted, failed, problems


def _run_workload(args) -> int:
    try:
        modules = _load_kslab()
    except ImportError as exc:
        print(f"cannot load kslab: {exc}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(HERE))
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    if args.setup_only:
        t0 = time.perf_counter()
        wl.setup()
        print(json.dumps({"setup_s": time.perf_counter() - t0}))
        return 0
    with Calibration() as cal:
        return _measure(args, wl, modules, cal)


def _measure(args, wl, modules, cal: Calibration) -> int:
    tracer = None
    unwrapped: list[str] = []
    if args.trace:
        import spans

        tracer = spans.Tracer()
        unwrapped = sorted(spans.SPAN_NAMES - tracer.install(modules))
        for name in unwrapped:
            print(f"trace: no function {name} in kslab; its metrics read 0", file=sys.stderr)
        tracer.phase = "setup"
    before = cal.measure()
    t0 = time.perf_counter()
    wl.setup()
    setup_samples = [cal.scaled(time.perf_counter() - t0, before, cal.measure())]
    if tracer:
        tracer.phase = None
    else:
        for _ in range(SETUP_SAMPLES - 1):
            before = cal.measure()
            seconds = _child_setup(args)
            setup_samples.append(cal.scaled(seconds, before, cal.measure()))

    wall, scaled, phases, attempted, failed, problems = _run_rounds(
        wl, args.seconds, tracer, cal)
    run_s = statistics.median(scaled)
    if tracer:
        metrics = tracer.layer_metrics("setup", phases)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "run_s": {"value": run_s, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    import numpy
    import scipy

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{int(bool(args.trace))}"
    details = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                   rounds=len(phases), run_s=run_s, round_run_s=scaled,
                   round_wall_s=wall, setup_samples_s=setup_samples,
                   calibration_s=cal.samples, unwrapped=unwrapped,
                   nproc=args.nproc, cpu=min(os.sched_getaffinity(0)),
                   blas_threads=BLAS_THREADS,
                   numpy=numpy.__version__, scipy=scipy.__version__, problems=problems)
    (OUT / f"{stem}.json").write_text(json.dumps(details, indent=2) + "\n")
    if tracer:
        tracer.dump(OUT / f"{stem}-spans.json")

    for p in problems[:40]:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    if len(problems) > 40:
        print(f"... {len(problems) - 40} more check failures", file=sys.stderr)
    print(f"{args.workload}: {len(phases)} rounds, run_s per round "
          + ", ".join(f"{b:.4f}" for b in scaled)
          + " (wall " + ", ".join(f"{b:.4f}" for b in wall) + ")")
    if tracer:
        print(f"{args.workload} run_s (traced) = {run_s:.6g} s")
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} attempted = {attempted}, failed = {failed}, "
          f"correct = {str(not problems).lower()}")
    print(json.dumps(result))
    return 0


def _run_all(args) -> int:
    """Every workload in its own process, one after another."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]), flush=True)
        part = json.loads(lines[-1])
        total["correct"] = total["correct"] and part["correct"]
        total["attempted"] += part["attempted"]
        total["failed"] += part["failed"]
        for metric, m in part["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    _set_blas_threads()
    args.nproc = _pin_to_one_cpu()
    if args.workload == "all":
        return _run_all(args)
    return _run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
