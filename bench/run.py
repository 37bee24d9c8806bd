"""Run one workload of the bandgroup benchmark and print its metrics.

    python3 bench/run.py --workload partition_sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The program is imported from `src/` of
that checkout and driven in process through `bandgroup.cli.main(argv)` with
`--json`, one invocation after another (a closed loop with one caller).
Inputs go to `.bench_run/<workload>/`.  Set-up is timed in short-lived
child interpreters, each waited for.  A run repeats whole rounds of the
same fixed operations until the next round would pass `--seconds`, and
checks every output against values computed apart from the program.

With `--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics; with `--trace 1` one untraced round is followed by
traced rounds, the spans are written to `.bench_run/spans-<workload>.tsv`,
and the metrics are the per-layer ones.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

import workloads
from reference import REF_NOMINAL_S, reference_loop
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"

# Timed set-up passes before the first round, and the least time between
# two further passes made between operations.
SETUP_REPEATS = 9
SETUP_EVERY_S = 1.0

# How often the reference loop is timed while operations run.
SAMPLE_INTERVAL_S = 0.02


class SpeedSampler:
    """Times the reference loop every SAMPLE_INTERVAL_S, from SIGALRM.

    The handler runs in the main thread between two bytecodes of whatever
    the program is doing, so the reference is timed during each operation,
    not only between operations.  Each tick is kept as (start, end,
    duration) so that its time can be taken out of the operation's.
    """

    def __init__(self):
        self.ticks: list[tuple[float, float, float]] = []

    def _tick(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        ref = reference_loop()
        self.ticks.append((t0, time.perf_counter(), ref))

    def __enter__(self) -> SpeedSampler:
        self._tick()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    @contextmanager
    def paused(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def measure(self, t0: float, t1: float, first: int) -> tuple[float, float, int]:
        """Wall time of [t0, t1] without ticks, and that time at reference speed.

        Ticks from index `first` on that started after t0 lie inside the
        interval; their mean speed rescales it.  An interval with no tick
        inside takes the speed of the last tick before it.
        """
        inside = [t for t in self.ticks[first:] if t0 <= t[0] and t[1] <= t1]
        wall = t1 - t0 - sum(end - start for start, end, _ in inside)
        if inside:
            refs = [ref for _, _, ref in inside]
        else:
            refs = [next(ref for _, end, ref in reversed(self.ticks) if end <= t1)]
        scale = statistics.fmean(REF_NOMINAL_S / ref for ref in refs)
        return wall, wall * scale, len(self.ticks)


# One timed set-up pass, run in a fresh interpreter so that its imports and
# garbage stay out of the measured process (and out of peak_rss_mb).  The
# benchmark's own modules and cached expected values load before the clock.
# It prints the pass's wall time and the reference speed around it.
SETUP_PASS = """
import sys, time
from pathlib import Path
sys.path[:0] = [{src!r}, {bench!r}]
import workloads
from reference import speed
workloads.prepare({name!r})
before = speed()
t0 = time.perf_counter()
import bandgroup.cli
workloads.WORKLOADS[{name!r}]({seed!r}, Path({workdir!r}))
wall = time.perf_counter() - t0
print(wall, (before + speed()) / 2)
"""


class Setup:
    """Set-up: importing bandgroup and writing the workload's input files.

    The in-process pass made here is the one the run uses; it also
    compiles bytecode, and it is not timed.  Each timed pass runs in a
    child interpreter, imports the program and rewrites the same files;
    its time is rescaled to the reference speed, as for instances_per_ref_s.
    Passes are spread over the run (see `between_ops`), so the median does
    not hang on one moment of a shared machine.
    """

    def __init__(self, name: str, seed: int):
        self.workdir = WORK / name
        self.workdir.mkdir(parents=True, exist_ok=True)
        sys.path.insert(0, str(SRC))
        self.cli = importlib.import_module("bandgroup.cli")
        if SRC.resolve() not in Path(self.cli.__file__).resolve().parents:
            raise SystemExit(f"bandgroup was imported from {self.cli.__file__}, not from {SRC}")
        self.ops = workloads.WORKLOADS[name](seed, self.workdir)
        self.code = SETUP_PASS.format(src=str(SRC), bench=str(Path(__file__).parent),
                                      name=name, seed=seed, workdir=str(self.workdir))
        self.times: list[float] = []
        self._next = 0.0

    def timed_pass(self) -> None:
        done = subprocess.run([sys.executable, "-c", self.code], cwd=ROOT,
                              capture_output=True, text=True, check=True, timeout=60)
        wall, scale = map(float, done.stdout.split())
        self.times.append(wall * scale)

    def between_ops(self) -> None:
        """A timed pass, at most one per SETUP_EVERY_S of run time."""
        now = time.perf_counter()
        if now >= self._next:
            self.timed_pass()
            self._next = now + SETUP_EVERY_S

    @property
    def median(self) -> float:
        return statistics.median(self.times)


def invoke(cli, argv) -> tuple[object, str]:
    """One in-process CLI call: its exit code (or what it raised) and stdout."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash fails this operation, not the run
            code = f"raised {type(exc).__name__}: {exc}"
    return code, out.getvalue()


class Round:
    """Timings and outputs of one pass over the operations."""

    def __init__(self, cli, ops, call=invoke, between=None):
        self.wall = 0.0
        self.ref_scaled = 0.0
        self.outputs = []
        with SpeedSampler() as speed:
            seen = len(speed.ticks)
            for op in ops:
                t0 = time.perf_counter()
                result = call(cli, op.argv)
                t1 = time.perf_counter()
                wall, scaled, seen = speed.measure(t0, t1, seen)
                self.wall += wall
                self.ref_scaled += scaled
                self.outputs.append(result)
                if between is not None:
                    with speed.paused():
                        between()
        self.ticks = speed.ticks
        self.instances = sum(op.instances for op in ops)

    def failures(self, ops) -> list[str]:
        """One line per operation whose output fails its check."""
        lines = []
        for op, (code, out) in zip(ops, self.outputs):
            problems = op.check(code, out)
            if problems:
                lines.append(f"{' '.join(op.argv[1:3])[:40]}: {'; '.join(problems)}")
        return lines


def run_rounds(cli, ops, seconds: float, before_each=None, between=None) -> list[Round]:
    """Whole rounds until the next one would end after `seconds`."""
    rounds: list[Round] = []
    start = time.perf_counter()
    while True:
        gc.collect()
        if before_each is not None:
            before_each()
        rounds.append(Round(cli, ops, between=between))
        elapsed = time.perf_counter() - start
        if elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds


def check_rounds(rounds: list[Round], ops) -> int:
    failed = 0
    for rnd in rounds:
        lines = rnd.failures(ops)
        failed += len(lines)
        for line in lines[:5]:
            print(f"FAILED {line}", file=sys.stderr)
    return failed


def end_to_end(rounds: list[Round], setup_s: float) -> dict:
    instances = sum(r.instances for r in rounds)
    return {
        "setup_s": (setup_s, "s"),
        "instances_per_ref_s": (instances / sum(r.ref_scaled for r in rounds), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


# per-layer metric -> (source, key, unit); "count" reads the counters of one
# round, "peak" the largest value seen, and "self" the self time of one
# round, rescaled to the reference speed, as the median over traced rounds.
PER_LAYER = {
    "braid.equal_calls": ("count", "braid.equal.calls", "count"),
    "braid.equal_s": ("self", "braid.equal", "s"),
    "braid.perm_calls": ("count", "braid.perm.calls", "count"),
    "braid.perm_s": ("self", "braid.perm", "s"),
    "braid.free_image_calls": ("count", "braid.free_image.calls", "count"),
    "braid.free_image_s": ("self", "braid.free_image", "s"),
    "braid.free_letters": ("count", "braid.free_letters", "letters"),
    "braid.peak_image_letters": ("peak", "peak_image_letters", "letters"),
    "present.expand_calls": ("count", "present.expand.calls", "count"),
    "present.expand_letters": ("count", "present.expand_letters", "letters"),
    "present.expand_s": ("self", "present.expand", "s"),
    "present.relations_s": ("self", "present.relations", "s"),
    "present.verify_s": ("self", "present.verify", "s"),
    "present.coset_s": ("self", "present.coset", "s"),
    "raag.scan_s": ("self", "raag.scan", "s"),
    "raag.normalize_calls": ("count", "raag.normalize.calls", "count"),
    "raag.normalize_s": ("self", "raag.normalize", "s"),
    "raag.to_braid_s": ("self", "raag.to_braid", "s"),
    "coxword.act_calls": ("count", "coxword.act.calls", "count"),
    "coxword.act_s": ("self", "coxword.act", "s"),
    "coxword.words_built": ("count", "coxword.words_built", "count"),
    "cli.main_s": ("self", "cli.main", "s"),
    "cli.load_s": ("self", "cli.load", "s"),
    "cli.render_s": ("self", "cli.render", "s"),
}


def traced(cli, ops, seconds: float, name: str) -> tuple[list[Round], dict]:
    """One untraced round, then traced rounds; per-layer metrics per round."""
    start = time.perf_counter()
    gc.collect()
    baseline = Round(cli, ops)
    tracer = Tracer()
    tracer.install()
    marks: list[tuple[int, Counter]] = []

    def before_each():
        marks.append((tracer.mark(), Counter(tracer.counts)))

    rounds = run_rounds(cli, ops, seconds - (time.perf_counter() - start),
                        before_each=before_each)
    marks.append((tracer.mark(), Counter(tracer.counts)))
    per_round_counts = [after - before for (_, before), (_, after) in zip(marks, marks[1:])]
    keys = [key for source, key, _ in PER_LAYER.values() if source == "count"]
    if any([c[k] for k in keys] != [per_round_counts[0][k] for k in keys] for c in per_round_counts):
        print("per-layer counts differ between rounds", file=sys.stderr)
    self_times = [
        tracer.self_times(lo, hi, rnd.ticks)
        for rnd, (lo, _), (hi, _) in zip(rounds, marks, marks[1:])
    ]
    tracer.write(WORK / f"spans-{name}.tsv")

    metrics = {}
    for metric, (source, key, unit) in PER_LAYER.items():
        if source == "count":
            value = per_round_counts[0][key]
        elif source == "peak":
            value = getattr(tracer, key)
        else:
            value = statistics.median(
                t.get(key, 0.0) * r.ref_scaled / r.wall for t, r in zip(self_times, rounds)
            )
        metrics[metric] = (value, unit)
    traced_s = statistics.median(r.ref_scaled for r in rounds)
    metrics["trace.overhead_pct"] = (100 * (traced_s / baseline.ref_scaled - 1), "%")
    metrics["untraced.instances_per_s"] = (baseline.instances / baseline.wall, "1/s")
    return [baseline] + rounds, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bandgroup" / "cli.py").is_file():
        print(f"no program to measure: {SRC / 'bandgroup'} is missing; "
              "run from the root of a bandgroup checkout", file=sys.stderr)
        return 2
    setup = Setup(args.workload, args.seed)
    cli, ops = setup.cli, setup.ops
    if args.trace:
        rounds, metrics = traced(cli, ops, args.seconds, args.workload)
    else:
        for _ in range(SETUP_REPEATS):
            setup.timed_pass()
        rounds = run_rounds(cli, ops, args.seconds, between=setup.between_ops)
        metrics = end_to_end(rounds, setup.median)
    failed = check_rounds(rounds, ops)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops) * len(rounds),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
