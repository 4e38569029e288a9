"""spikelane benchmark: one workload per process.

    python3 perfbench/run.py --workload train --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`.  With `--trace 0` the last line of standard output is one JSON
object holding every end-to-end metric; with `--trace 1` it holds every
per-layer metric.  The line before it gives the run's details: environment,
raw (unnormalized) times and, when traced, the tracing overhead.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_REPS = 3
IMPORT_PROBES = 3

# One BLAS thread per calling thread keeps the 2-CPU machine from being
# oversubscribed by the CLI's window pool plus BLAS workers.  Set before
# NumPy is imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "throughput": "windows/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "peak_rss_mb": "MB",
    "accuracy": "ratio",
    "macro_auc": "ratio",
}

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import spikelane.cli; "
    "print(time.perf_counter() - t)"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("train", "batch_score", "stream"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def import_program():
    """Import spikelane from this checkout's src/, never from elsewhere."""
    package = SRC / "spikelane" / "__init__.py"
    if not package.is_file():
        raise SystemExit(f"error: {package} not found; run from a spikelane source checkout")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import spikelane
    import spikelane.cli  # noqa: F401  (the package does not import its CLI)

    if Path(spikelane.__file__).resolve() != package.resolve():
        raise SystemExit(f"error: imported spikelane from {spikelane.__file__}, not {package}")
    return spikelane


def probe_imports(workdir: Path) -> list[float]:
    """Import time of spikelane, NumPy included, in fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(IMPORT_PROBES):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], env=env, cwd=workdir,
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout.strip()))
    return samples


def environment() -> dict:
    import numpy as np

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except Exception:  # NumPy before 1.26 has no dict mode; the name is informative only
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "spike_lane_threads": os.environ.get("SPIKE_LANE_THREADS"),
    }


@dataclass
class Timed:
    """Raw seconds and host-normalization factors of repeated units."""

    raw: list[float] = field(default_factory=list)
    scale: list[float] = field(default_factory=list)
    outputs: list = field(default_factory=list)

    @property
    def normalized(self) -> list[float]:
        return [r * s for r, s in zip(self.raw, self.scale)]


class Runner:
    """Times set-ups and whole rounds of one workload."""

    def __init__(self, workload, clock, tracer=None):
        self.workload = workload
        self.clock = clock
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def _timed(self, phase, fn, traced):
        """fn() under the host clock and, when traced, inside a tracer phase."""
        gc.collect()
        scope = self.tracer.phase(phase) if traced else nullcontext()
        with scope as instance:
            output, raw, scale = self.clock.time(fn)
        if traced:
            self.tracer.scale[instance] = scale
        return output, raw, scale

    def setups(self, traced=False):
        timed = Timed()
        for _ in range(SETUP_REPS):
            state, raw, scale = self._timed("setup", self.workload.setup, traced)
            timed.raw.append(raw)
            timed.scale.append(scale)
        return timed, state

    def rounds(self, state, seconds: float, traced=False) -> Timed:
        """Whole rounds until `seconds` of raw time and the workload's minimum."""
        ops = self.workload.ops_per_round(state)
        timed, spent = Timed(), 0.0
        while spent < seconds or len(timed.raw) < self.workload.min_rounds:
            self.attempted += ops
            try:
                output, raw, scale = self._timed("round", lambda: self.workload.round(state), traced)
            except Exception as exc:  # a failed operation is counted, not fatal
                self.failed += ops
                self.errors.append(f"{type(exc).__name__}: {exc}")
                if self.failed > 10 * ops:
                    break
                continue
            spent += raw
            timed.raw.append(raw)
            timed.scale.append(scale)
            timed.outputs.append(output)
        return timed

    def check(self, state, outputs, traced=False):
        quality, _, _ = self._timed("check", lambda: self.workload.check(state, outputs), traced)
        return quality


def end_to_end(workload, state, setup_s, rounds: Timed, quality, peak_rss_mb) -> dict:
    p50, p99 = workload.latency_ms(rounds)
    return {
        "setup_s": setup_s,
        "throughput": workload.windows_per_round(state) / statistics.median(rounds.normalized),
        "latency_p50_ms": p50,
        "latency_p99_ms": p99,
        "peak_rss_mb": peak_rss_mb,
        "accuracy": quality[0],
        "macro_auc": quality[1],
    }


def run(args, sl) -> int:
    import workloads
    from checks import CheckFailed
    from hostclock import HostClock
    from tracer import PER_LAYER, Tracer, layer_metrics, memory_spans

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[args.workload](sl, workdir, args.seed)
        workload.inputs()
        clock = HostClock(workload.reference)
        imports, _, import_scale = clock.time(lambda: probe_imports(workdir))
        import_s = statistics.median(imports) * import_scale
        tracer = Tracer() if args.trace else None
        runner = Runner(workload, clock, tracer)

        if tracer is None:
            setups, state = runner.setups()
            rounds = runner.rounds(state, args.seconds)
        else:
            with tracer.installed():
                setups, state = runner.setups(traced=True)
            plain = runner.rounds(state, args.seconds / 2)
            with tracer.installed():
                rounds = runner.rounds(state, args.seconds / 2, traced=True)

        setup_s = statistics.median(setups.normalized)
        if workload.name == "train":
            setup_s += import_s  # a training user pays the import before ingest
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        correct = bool(rounds.outputs)
        quality = (float("nan"), float("nan"))
        if rounds.outputs:
            try:
                if tracer is None:
                    quality = runner.check(state, rounds.outputs)
                else:
                    with tracer.installed():
                        quality = runner.check(state, rounds.outputs, traced=True)
            except CheckFailed as exc:
                correct = False
                print(f"check failed: {exc}", file=sys.stderr)
        for error in runner.errors[:5]:
            print(f"failed operation: {error}", file=sys.stderr)

        e2e = (
            end_to_end(workload, state, setup_s, rounds, quality, peak_rss_mb)
            if rounds.outputs else {}
        )
        details = {
            "workload": args.workload,
            "seed": args.seed,
            "environment": environment(),
            "rounds": len(rounds.raw),
            "raw_round_s_median": statistics.median(rounds.raw) if rounds.raw else None,
            "raw_setup_s_median": statistics.median(setups.raw),
            "raw_import_s_median": statistics.median(imports),
            "host_scale_median": statistics.median(rounds.scale) if rounds.scale else None,
        }
        if tracer is None:
            metrics = {name: {"value": value, "unit": END_TO_END[name]} for name, value in e2e.items()}
        else:
            traced_s = statistics.median(rounds.normalized)
            plain_s = statistics.median(plain.normalized)
            values = layer_metrics(
                tracer, memory_spans(workload), import_s, traced_s - plain_s
            )
            metrics = {
                name: {"value": 0 if values[name] is None else values[name], "unit": unit}
                for name, (unit, _better) in PER_LAYER.items()
            }
            details.update({
                "absent_hooks": tracer.absent,
                "unexercised": [name for name, value in values.items() if value is None],
                "untraced_rounds": len(plain.raw),
                "round_s": {"untraced": plain_s, "traced": traced_s},
                "trace_overhead_share": (traced_s - plain_s) / plain_s,
                "end_to_end_traced": e2e,
            })
        print(json.dumps({"details": details}))
        print(json.dumps({
            "correct": correct,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": metrics,
        }))
        return 0 if correct else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def main(argv=None) -> int:
    args = parse_args(argv)
    sl = import_program()
    try:
        return run(args, sl)
    except Exception:
        traceback.print_exc()
        print("error: the benchmark could not run this workload", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
