"""Run one benchmark workload and print its metrics as one JSON line.

    python3 bench/run.py --workload simulate-1d --seed 1 --seconds 30 --trace 0

Run from the repository root: the program is imported from ./src.  With
--trace 0 the run times whole run_experiment/run_sweep calls for --seconds
and reports the end-to-end metrics; with --trace 1 it alternates untraced
operations with operations run under span wrappers, and reports the
per-layer metrics plus the tracing overhead.  Every operation's outputs are
checked; the last line of stdout is
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
See bench/README.md.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402

# numpy and scipy each bundle OpenBLAS, which would start a worker thread
# apiece; the program's BLAS calls are too small to use them, so keep the
# process to its one thread
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"

END_TO_END = {
    "setup_s": "s",
    "cell_steps_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Measurement:
    """Timed operations of one kind, traced or not, with their checks run untimed."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.rates = []
        self.failed = 0
        self.messages = []
        self.bytes_written = 0
        self.peak_rss_mb = None

    def op(self, runner):
        if self.tracer is not None:
            self.tracer.install()
        try:
            op_seconds, written = runner.run()
        finally:
            if self.tracer is not None:
                self.tracer.uninstall()
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self.bytes_written += written
        failures = runner.check()
        self.rates.append(runner.cell_steps / op_seconds)
        if failures:
            self.failed += 1
            self.messages += failures


def measure(runner, seconds, phases):
    """Rounds of one operation per phase, until the next round would end after `seconds`.

    Alternating the phases operation by operation exposes them to the same
    drift in machine speed.
    """
    deadline = time.perf_counter() + seconds
    while True:
        began = time.perf_counter()
        for phase in phases:
            phase.op(runner)
        now = time.perf_counter()
        if now + (now - began) > deadline:
            return


def main(argv=None):
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "mhrnet").is_dir():
        print("error: no program source at %s" % (src / "mhrnet"), file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    began = time.perf_counter()
    from mhrnet import cli, harness
    import_s = time.perf_counter() - began

    from workloads import WORKLOADS, Runner
    if args.workload not in WORKLOADS:
        print("error: unknown workload %r (known: %s)"
              % (args.workload, ", ".join(WORKLOADS)), file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    runner = Runner(cli, harness, workload, args.seed, OUT / args.workload)
    setup_s = time.perf_counter() - _T0

    if not args.trace:
        run = Measurement()
        phases = [run]
        measure(runner, args.seconds, phases)
        metrics = {
            "setup_s": setup_s,
            "cell_steps_per_s": statistics.median(run.rates),
            "peak_rss_mb": run.peak_rss_mb,
        }
        units = END_TO_END
    else:
        import tracing
        tracer = tracing.Tracer()
        plain, traced = Measurement(), Measurement(tracer)
        phases = [plain, traced]
        measure(runner, args.seconds, phases)
        tracer.write(OUT / args.workload / "trace.npz")
        overhead = 100.0 * (statistics.median(plain.rates)
                            / statistics.median(traced.rates) - 1.0)
        metrics = tracing.layer_metrics(
            tracer, import_s, runner.build_seconds, traced.bytes_written, overhead)
        units = {name: unit for name, (unit, _) in tracing.PER_LAYER.items()}
        if tracer.missing:
            print("not traced (absent from the program): %s" % ", ".join(sorted(tracer.missing)))

    attempted = sum(len(p.rates) for p in phases)
    failed = sum(p.failed for p in phases)
    for message in sorted(set(m for p in phases for m in p.messages)):
        print("check failed: %s" % message)
    for p in phases:
        print("%s%s: %d operations, %.4g cell-steps/s median, %.4g best"
              % (args.workload, " traced" if p.tracer else "", len(p.rates),
                 statistics.median(p.rates), max(p.rates)))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
