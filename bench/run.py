#!/usr/bin/env python3
"""The mdclean benchmark: one workload, one seed, one closed-loop run.

    python3 bench/run.py --workload coauthor --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  The workload's inputs are generated
from the seed into `.bench_work/` and fed to `mdclean.cli.main(argv)` in this
process: one client, no threads, each command issued after the previous one
returned.  Every output is checked (oracles.py) and compared byte for
byte with earlier runs of the same command.  The last line of stdout is a
JSON object with `correct`, `attempted`, `failed` and `metrics`; with
`--trace 1` the metrics are the per-layer ones from a traced run (tracing.py)
instead of the end-to-end ones.  See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import inspect
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# a command still running after this long counts as hung, hence failed; no
# command runs past --seconds plus this, so a run ends well within 180 s
COMMAND_TIMEOUT_S = 60
SETUP_RUNS = 21

# On a shared host the same work runs about 1.6 times as long from one
# second to the next (presumably another tenant sharing the core), so a
# fixed piece of interpreter work is timed between commands, and each
# command's time is scaled by how fast that reference ran just before and
# just after it: times are seconds at the speed at which the reference takes
# REFERENCE_NOMINAL_S (its quiet-host median on the 2-vCPU, Python 3.11
# machine the baseline was taken on).
REFERENCE_NOMINAL_S = 0.0086
REFERENCE_EVERY_S = 0.1


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


class CommandTimeout(BaseException):
    """Raised by SIGALRM inside a command that ran past its time limit."""


def _on_alarm(signum, frame):
    raise CommandTimeout()


def load_cli():
    """Import mdclean from this checkout's sources, never from elsewhere."""
    package = SRC / "mdclean"
    if not (package / "cli.py").is_file():
        raise BenchError(f"no mdclean sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import mdclean.cli

    if Path(mdclean.cli.__file__).resolve().parent != package.resolve():
        raise BenchError(f"imported mdclean from {mdclean.cli.__file__}, not {package}")
    return mdclean.cli


def reference_seconds() -> float:
    """Time a fixed mix of tokenising, set unions, dict and sort work.

    The collector is off so that the program's heap size cannot slow it.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        words = [f"w{i % 97} v{i % 89} x{i % 13}" for i in range(4000)]
        sets = [frozenset(w.split()) for w in words]
        acc = {}
        for i, tokens in enumerate(sets):
            union = tokens | sets[i // 2]
            acc[(i % 700, len(union))] = " ".join(sorted(union))
        sorted(acc.items())
        return time.perf_counter() - start
    finally:
        gc.enable()


def scale(seconds: float, before: float, after: float) -> float:
    """`seconds` at nominal speed, given the reference timings around it."""
    return seconds * 2 * REFERENCE_NOMINAL_S / (before + after)


# The child times the reference itself: it may run on the other core, whose
# speed the parent's timings do not follow.  Its first reference warms up.
SETUP_CHILD = "\n".join([
    "import gc, sys, time",
    inspect.getsource(reference_seconds),
    "reference_seconds()",
    "before = reference_seconds()",
    "start = time.perf_counter()",
    "import mdclean.cli",
    'rc = mdclean.cli.main(["validate", "--schema", sys.argv[1]])',
    "elapsed = time.perf_counter() - start",
    "after = reference_seconds()",
    "if rc != 0 or not mdclean.cli.__file__.startswith(sys.argv[2]):",
    "    sys.exit(1)",
    "print(repr(elapsed), repr(before), repr(after))",
])


def measure_setup(schema: Path) -> list[float]:
    """Import the package and run one CLI command in fresh interpreters.

    The first run is dropped: it may compile bytecode, which an installed
    package has done once.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for run in range(SETUP_RUNS + 1):
        try:
            proc = subprocess.run(
                [sys.executable, "-c", SETUP_CHILD, str(schema), str(SRC)],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=30,
            )
        except subprocess.TimeoutExpired:
            raise BenchError("a set-up run took more than 30 s") from None
        if proc.returncode != 0:
            raise BenchError(f"set-up run failed: {proc.stderr.strip()}")
        if run:
            times.append(scale(*map(float, proc.stdout.splitlines()[-1].split())))
    return times


def run_command(main, argv, timeout: float):
    """(error or None, seconds, stdout) of one in-process CLI command."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, timeout)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        if rc != 0:
            error = f"exit {rc}: {err.getvalue().strip()}"
    except CommandTimeout:
        error = f"no result within {timeout:.0f} s"
    except SystemExit as exc:
        error = f"exit {exc.code}: {err.getvalue().strip()}"
    except Exception as exc:  # a crash inside the program is a failed command
        error = f"raised {type(exc).__name__}: {exc}"
    return error, time.perf_counter() - start, out.getvalue()


class Loop:
    """Runs settings in order, checks outputs, and keeps the timings."""

    def __init__(self, main, settings, check, hard_stop: float):
        self.main = main
        self.hard_stop = hard_stop
        self.settings = settings
        self.check = check
        self.digests: dict[tuple[str, str], str] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self.reference: list[float] = []
        self.since_reference = REFERENCE_EVERY_S

    def reference_index(self) -> int:
        """Index of the last reference timing, after taking one if it is due."""
        if self.since_reference >= REFERENCE_EVERY_S:
            self.reference.append(reference_seconds())
            self.since_reference = 0.0
        return len(self.reference) - 1

    def run_setting(self, setting, samples: list, main=None) -> float:
        """Run one setting's commands; (verb, seconds, reference index) go to `samples`."""
        main = main or self.main
        total = 0.0
        outputs: dict[str, str] = {}
        broken: dict[str, str] = {}
        verdict = None
        for cmd in setting.commands:
            if cmd.when is not None and cmd.when != verdict:
                continue
            timeout = min(COMMAND_TIMEOUT_S, self.hard_stop - time.perf_counter())
            ref = self.reference_index()
            error, elapsed, out = run_command(main, cmd.argv, max(timeout, 0.001))
            self.attempted += 1
            self.since_reference += elapsed
            total += elapsed
            samples.append((cmd.verb, elapsed, ref))
            if error is not None:
                broken[cmd.verb] = error
                continue
            outputs[cmd.verb] = out
            if cmd.verb == "classify":
                try:
                    verdict = "general" if json.loads(out)["verdict"] == "general" else "converging"
                except (ValueError, KeyError):
                    broken[cmd.verb] = "classify printed no verdict"
        fresh = any((setting.name, verb) not in self.digests for verb in outputs)
        if fresh:
            for verb, reason in self.check(setting, outputs).items():
                broken.setdefault(verb, reason)
        for verb, out in outputs.items():
            digest = hashlib.sha256(out.encode()).hexdigest()
            if self.digests.setdefault((setting.name, verb), digest) != digest:
                broken.setdefault(verb, "stdout differs from an earlier run of the same command")
        self.failures.extend(f"{setting.name} {verb}: {why}" for verb, why in broken.items())
        return total

    def measure(self, seconds: float, run=None):
        """Settings from the first on, until `seconds` of wall time passed.

        `run(setting, samples)` runs one setting; by default `run_setting`.
        Returns the scaled times per verb and per setting of the complete
        passes over the settings, and how many settings ran past the last
        complete pass (checked, not timed): a partial pass would weigh the
        first settings more on a slow host than on a fast one.  Each command
        is scaled by the reference timings taken just before and after it.
        """
        run = run or self.run_setting
        settings: list[list] = []
        deadline = time.perf_counter() + seconds
        while not settings or time.perf_counter() < deadline:
            samples: list = []
            run(self.settings[len(settings) % len(self.settings)], samples)
            settings.append(samples)
        self.reference.append(reference_seconds())
        # with no pass complete, every setting is timed
        complete = len(settings) - len(settings) % len(self.settings) or len(settings)
        times: dict[str, list[float]] = {}
        per_setting = []
        for samples in settings[:complete]:
            total = 0.0
            for verb, elapsed, ref in samples:
                scaled = scale(elapsed, self.reference[ref], self.reference[ref + 1])
                times.setdefault(verb, []).append(scaled)
                total += scaled
            per_setting.append(total)
        return times, per_setting, len(settings) - complete


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile with enough samples above it: (percentile, value, above).

    Enough is ten, or one sample in ten where that is more: on `soak` the
    setting times rise steeply past p90 (by a fifth over the five settings
    around p95), so a higher percentile moves with whichever heavy draw the
    host slowed most.  With too few samples for any percentile the maximum
    is given.
    """
    ordered = sorted(values)
    above = max(10, len(ordered) // 10)
    rank = len(ordered) - 1 - above if len(ordered) > above else len(ordered) - 1
    return 100.0 * (rank + 1) / len(ordered), ordered[rank], len(ordered) - 1 - rank


def end_to_end(setup: list[float], times, per_setting) -> tuple[dict, list[str]]:
    pct, tail_s, above = tail(per_setting)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "classify_s": (statistics.median(times["classify"]), "s"),
        "chase_one_s": (statistics.median(times["chase_one"]), "s"),
        "setting_p50_ms": (1000 * statistics.median(per_setting), "ms"),
        "setting_tail_ms": (1000 * tail_s, "ms"),
        "settings_per_s": (len(per_setting) / sum(per_setting), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = [
        f"settings {len(per_setting)}; setting_tail_ms is p{pct:.1f} ({above} settings above it)",
        f"setup runs {len(setup)}",
    ]
    for verb in sorted(times):
        notes.append(
            f"{verb}_s median {statistics.median(times[verb]):.6f} s over {len(times[verb])} commands"
        )
    return metrics, notes


def traced(loop: Loop, seconds: float, spans_file: Path) -> tuple[dict, list[str]]:
    """Each setting once untraced and once traced, alternating which goes first.

    Layer numbers come from the traced runs, as means per setting; the
    tracing overhead is the median over settings of traced minus untraced.
    """
    from tracing import Tracer, layer_metrics

    tracer = Tracer()
    plain: list[float] = []
    with_trace: list[float] = []

    def traced_main(argv):
        return tracer.run_command(loop.main, argv)

    def both(setting, samples):
        order = (False, True) if len(plain) % 2 == 0 else (True, False)
        for trace_on in order:
            if trace_on:
                with tracer.installed():
                    with_trace.append(loop.run_setting(setting, samples, traced_main))
            else:
                plain.append(loop.run_setting(setting, samples))

    loop.measure(seconds, both)
    # one scale for the whole run: spans are not split by reference timing
    speed = REFERENCE_NOMINAL_S / statistics.median(loop.reference)
    metrics = {name: (value * speed, "s") if name.endswith("_s") else (value, "count")
               for name, value in layer_metrics(tracer, len(with_trace)).items()}
    metrics["chase.useful_frac"] = (metrics["chase.useful_frac"][0], "fraction")
    metrics["trace.overhead_s"] = (
        speed * statistics.median(t - p for p, t in zip(plain, with_trace)), "s")
    metrics["trace.spans"] = (len(tracer.spans) / len(with_trace), "count")
    tracer.write(spans_file)
    notes = [
        f"settings traced {len(with_trace)}, each also run untraced",
        f"tracing overhead {sum(with_trace) / sum(plain) - 1:+.2%} of untraced setting time",
        f"spans written to {spans_file.relative_to(ROOT)}",
    ]
    notes += [f"trace target missing: {name}" for name in tracer.missing]
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(BENCH))
    from oracles import CHECKS
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        raise BenchError("--seconds must be positive")
    cli = load_cli()
    label = f"{args.workload}-{args.seed}-{os.getpid()}"
    work = WORK / label
    signal.signal(signal.SIGALRM, _on_alarm)
    hard_stop = time.perf_counter() + args.seconds + COMMAND_TIMEOUT_S
    try:
        settings = WORKLOADS[args.workload](args.seed, work)
        loop = Loop(cli.main, settings, CHECKS[args.workload], hard_stop)
        # warm-up: the first setting once, untimed; it also becomes the
        # reference that later runs of the same commands must reproduce
        loop.run_setting(settings[0], [])
        if args.trace:
            metrics, notes = traced(loop, args.seconds, WORK / f"trace-{label}.jsonl")
        else:
            argv = settings[0].commands[0].argv
            setup = measure_setup(Path(argv[argv.index("--schema") + 1]))
            times, per_setting, untimed = loop.measure(args.seconds)
            metrics, notes = end_to_end(setup, times, per_setting)
            notes.append(f"settings of complete passes timed; {untimed} after them not timed")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    reference = statistics.median(loop.reference)
    notes.append(f"reference work {1000 * reference:.3f} ms (median of {len(loop.reference)}); "
                 f"times are scaled to {1000 * REFERENCE_NOMINAL_S} ms")
    failed = len(loop.failures)
    for line in loop.failures[:20]:
        print(f"FAILED {line}")
    for line in notes:
        print(line)
    print(f"failed_frac {failed / loop.attempted:.6f} ({failed} of {loop.attempted} commands)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": loop.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(2)
