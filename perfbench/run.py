"""The gsworkbench benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cd-enumerate --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One workload runs in one single-threaded process.  The process imports the
package from ``src/`` and sets it up several times (``setup_s`` is the
median), then repeats passes over the workload's job list until ``--seconds``
have passed.  With ``--trace 0`` every pass is untraced and the end-to-end
metrics are printed; with ``--trace 1`` untraced and traced passes alternate
and the per-layer metrics are printed.  End-to-end times are scaled by
calibration rounds timed around them (see ``CAL_REF_S``), so that the host's
drifting speed does not move them.  Every answer of every pass is checked;
the last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--workload all`` runs every workload, untraced and traced, each in its own
process one after another, prints every metric by name and unit, and exits
with 1 when any answer check failed.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

PACKAGE = "gsworkbench"
SETUP_REPEATS = 11
WORK_ROOT = ROOT / ".perfbench_work"

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("call_p50_ms", "ms"),
    ("call_p90_ms", "ms"),
    ("peak_rss_mib", "MiB"),
]

# (metric, unit, better); a metric is "<layer>.<field>"
PER_LAYER = [
    ("engine.mode_step.calls", "count", "lower"),
    ("engine.mode_step.self_s", "s", "lower"),
    ("engine.mode_step.forms_out", "count", "lower"),
    ("engine.mode_step.turns_per_s", "1/s", "higher"),
    ("engine.one_step.calls", "count", "lower"),
    ("engine.one_step.self_s", "s", "lower"),
    ("engine.one_step.forms_out", "count", "lower"),
    ("engine.mode_predicate.calls", "count", "lower"),
    ("engine.mode_predicate.self_s", "s", "lower"),
    ("engine.enumerate.calls", "count", "lower"),
    ("engine.enumerate.self_s", "s", "lower"),
    ("engine.enumerate.words_out", "count", "higher"),
    ("engine.enumerate.truncated", "count", "lower"),
    ("engine.word_index.calls", "count", "lower"),
    ("engine.word_index.self_s", "s", "lower"),
    ("engine.word_index.unknown", "count", "lower"),
    ("verifier.certify_index_bound.calls", "count", "lower"),
    ("verifier.certify_index_bound.self_s", "s", "lower"),
    ("verifier.certify_index_bound.searches_per_word", "ratio", "lower"),
    ("engine.validate_trace.calls", "count", "lower"),
    ("engine.validate_trace.self_s", "s", "lower"),
    ("fileformat.parse_file.calls", "count", "lower"),
    ("fileformat.parse_file.self_s", "s", "lower"),
    ("fileformat.parse_file.lines_per_s", "1/s", "higher"),
    ("fileformat.serialize.calls", "count", "lower"),
    ("fileformat.serialize.self_s", "s", "lower"),
    ("fileformat.serialize.bytes", "B", "lower"),
    ("model.validate.calls", "count", "lower"),
    ("model.validate.self_s", "s", "lower"),
    ("constructions.build.calls", "count", "lower"),
    ("constructions.build.self_s", "s", "lower"),
    ("constructions.build.rules_out", "count", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("verifier.nsf_check.calls", "count", "lower"),
    ("verifier.nsf_check.self_s", "s", "lower"),
    ("verifier.bounded_equal.calls", "count", "lower"),
    ("verifier.bounded_equal.self_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


def use_sources() -> bool:
    """Put the checkout's src/ first on sys.path; False if it has no package."""
    src = ROOT / "src"
    if not (src / PACKAGE / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(src))
    return True


def import_fresh():
    """Import the package from src/, re-executing every module of it."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    package = importlib.import_module(PACKAGE)
    for mod in tracing.MODULES:
        importlib.import_module("%s.%s" % (PACKAGE, mod))
    return package


@contextmanager
def work_dir(prefix: str):
    """A scratch directory inside the checkout, removed afterwards."""
    WORK_ROOT.mkdir(exist_ok=True)
    path = tempfile.mkdtemp(prefix=prefix, dir=WORK_ROOT)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:  # another run still uses it
            pass


# The host's speed drifts by up to 2x, in phases from seconds to minutes long,
# which moves every raw time by as much.  So each timed interval is scaled by
# a calibration round timed just before and just after it: a fixed search in
# plain Python that uses nothing of the program.  Times are reported in
# seconds at the speed at which one round takes CAL_REF_S, its median on the
# baseline machine (see README.md).
CAL_RULES = {"S": (("A", "B"),), "A": (("a", "A"), ("a",), ("A", "B")),
             "B": (("b", "B"), ("b",))}
CAL_MAX_LEN = 8  # small, so that a round's memory stays below the program's
CAL_SEARCHES = 5
CAL_REF_S = 0.03
CAL_EVERY_S = 0.25  # calls are grouped into chunks of about this much time


def calibration_round() -> float:
    """Time of CAL_SEARCHES breadth-first searches over the forms of CAL_RULES."""
    start = time.perf_counter()
    for _ in range(CAL_SEARCHES):
        first = ("S",)
        seen, queue = {first}, deque([first])
        while queue:
            form = queue.popleft()
            for i, sym in enumerate(form):
                for rhs in CAL_RULES.get(sym, ()):
                    nxt = form[:i] + rhs + form[i + 1 :]
                    if len(nxt) <= CAL_MAX_LEN and nxt not in seen:
                        seen.add(nxt)
                        queue.append(nxt)
    return time.perf_counter() - start


def scaled(raw_s: float, before_s: float, after_s: float) -> float:
    """A raw time, scaled by the calibration rounds around it."""
    return raw_s * CAL_REF_S * 2.0 / (before_s + after_s)


def set_up(workload: str, seed: int, workdir: str):
    """Median scaled set-up time over SETUP_REPEATS, and the last set-up's state."""
    times = []
    for _ in range(SETUP_REPEATS):
        before = calibration_round()
        start = time.perf_counter()
        gsw = import_fresh()
        jobs = workloads.WORKLOADS[workload](gsw, workdir, seed)
        raw = time.perf_counter() - start
        times.append(scaled(raw, before, calibration_round()))
    return statistics.median(times), gsw, jobs


@dataclass
class Pass:
    """One pass over the job list: scaled wall time and call times, answers."""

    wall: float
    latencies: List[float]
    answers: List[str]  # answer digests, or the exception a call raised


def run_pass(jobs) -> Pass:
    raw, chunk_of, results = [], [], []
    rounds = [calibration_round()]  # rounds[k], rounds[k + 1] bracket chunk k
    since = 0.0
    for job in jobs:
        t0 = time.perf_counter()
        # a call that raises is counted as failed, and the pass goes on
        try:
            result = job.call()
        except Exception as err:  # noqa: BLE001
            result = err
        raw.append(time.perf_counter() - t0)
        results.append(result)
        chunk_of.append(len(rounds) - 1)
        since += raw[-1]
        if since >= CAL_EVERY_S:
            rounds.append(calibration_round())
            since = 0.0
    if len(rounds) == chunk_of[-1] + 1:
        rounds.append(calibration_round())
    latencies = [scaled(t, rounds[k], rounds[k + 1]) for t, k in zip(raw, chunk_of)]
    return Pass(sum(latencies), latencies, [answer_digest(j, r) for j, r in zip(jobs, results)])


def answer_digest(job, result) -> str:
    """Digest of a call's answer, or the exception the call or its answer raised."""
    if not isinstance(result, Exception):
        try:
            return workloads.digest(job.answer(result))
        except Exception as err:  # noqa: BLE001  e.g. a transform that wrote no file
            result = err
    return "raised " + "".join(traceback.format_exception_only(type(result), result)).strip()


@dataclass
class Checked:
    attempted: int
    failed: int
    failures: Dict[str, str]  # failing job: its first wrong answer
    defects: Dict[str, int]  # job: calls that gave its known-defect answer


def check(workload_name: str, jobs, passes) -> Checked:
    """Check every answer of every pass against its oracle or pin.

    The seed commit's answer of a known defect is accepted too, and counted
    apart, so a run shows the defect and a fix of it does not fail the run.
    """
    expected = workloads.expected_digests(workload_name, jobs)
    defective = workloads.defect_digests(workload_name)
    out = Checked(0, 0, {}, {})
    for p in passes:
        for job, got in zip(jobs, p.answers):
            out.attempted += 1
            if got == expected[job.name]:
                continue
            if got == defective.get(job.name):
                out.defects[job.name] = out.defects.get(job.name, 0) + 1
                continue
            out.failed += 1
            out.failures.setdefault(job.name, got)
    return out


def percentile_ms(samples: List[float], q: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1] * 1000.0


def end_to_end(setup_s: float, passes: List[Pass], rss_mib: float) -> Dict[str, float]:
    # each call's median over the passes, so the percentiles do not depend on
    # how many passes fit in the run, and a slow phase during one call of a
    # pass does not move the others
    latencies = [statistics.median(xs) for xs in zip(*(p.latencies for p in passes))]
    return {
        "setup_s": setup_s,
        "wall_s": sum(latencies),
        "call_p50_ms": percentile_ms(latencies, 50),
        "call_p90_ms": percentile_ms(latencies, 90),
        "peak_rss_mib": rss_mib,
    }


def layer_value(field: str, snaps: List[tracing.LayerStats], searches: int) -> float:
    """One metric of a layer from its stats in the traced passes.

    Counts come from the first pass, times are medians over the passes, and
    rates divide by the median span time, children included.
    """
    first = snaps[0]
    total = statistics.median(s.total_s for s in snaps)
    if field == "calls":
        return first.calls
    if field == "self_s":
        return statistics.median(s.self_s for s in snaps)
    if field == "turns_per_s":
        return first.calls / total if total else 0.0
    if field == "lines_per_s":
        return first.counts.get("lines", 0) / total if total else 0.0
    if field == "searches_per_word":
        words = first.counts.get("checked_words", 0)
        return searches / words if words else 0.0
    return first.counts.get(field, 0)


def per_layer(traced: List[Tuple[Pass, dict, int]], untraced: List[Pass]) -> Tuple[dict, list]:
    """Per-layer metrics from the traced passes, and the counts that differed."""
    out, unsteady = {}, []
    for name, _, _ in PER_LAYER:
        if name == "trace.overhead_ratio":
            out[name] = (statistics.median(p.wall for p, _, _ in traced)
                         / statistics.median(p.wall for p in untraced))
            continue
        layer, field = name.rsplit(".", 1)
        snaps = [layers.get(layer) or tracing.LayerStats() for _, layers, _ in traced]
        if field not in ("self_s", "turns_per_s", "lines_per_s"):
            per_pass = {layer_value(field, [s], n) for s, (_, _, n) in zip(snaps, traced)}
            if len(per_pass) > 1:
                unsteady.append(name)
        out[name] = layer_value(field, snaps, traced[0][2])
    return out, unsteady


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    if not use_sources():
        print("perfbench: no %s sources under %s" % (PACKAGE, ROOT / "src"), file=sys.stderr)
        return 2
    with work_dir(name + "-") as workdir:
        setup_s, gsw, jobs = set_up(name, seed, workdir)
        tracer = tracing.Tracer()
        untraced: List[Pass] = []
        traced: List[Tuple[Pass, dict, int]] = []
        start = time.perf_counter()
        while True:
            untraced.append(run_pass(jobs))
            if trace:
                tracer.reset()
                with tracer.installed(gsw):
                    p = run_pass(jobs)
                traced.append((p, tracer.layers, tracer.searches_in_certify))
            if time.perf_counter() - start >= seconds:
                break
        rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        passes = untraced + [p for p, _, _ in traced]
        checked = check(name, jobs, passes)
    attempted, failed = checked.attempted, checked.failed

    print("workload %s seed %d: %d untraced and %d traced passes of %d calls"
          % (name, seed, len(untraced), len(traced), len(jobs)))
    for job_name, got in checked.failures.items():
        print("FAILED %s: %s" % (job_name, got))
    for job_name, calls in checked.defects.items():
        print("KNOWN DEFECT %s: %s (the seed commit's answer, in %d calls)"
              % (job_name, workloads.KNOWN_DEFECTS[name][job_name], calls))
    print("%-48s %.6g (%d of %d calls)" % ("error_rate", failed / attempted, failed, attempted))
    if trace:
        values, unsteady = per_layer(traced, untraced)
        units = {n: u for n, u, _ in PER_LAYER}
        for n in unsteady:
            print("UNSTEADY count %s differs between traced passes" % n)
    else:
        values = end_to_end(setup_s, untraced, rss_mib)
        units = dict(END_TO_END)
    for metric, value in values.items():
        print("%-48s %.6g %s" % (metric, value, units[metric]))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in values.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in its own process."""
    failed = False
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(HERE / "run.py"), "--workload", name,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
            lines = proc.stdout.splitlines()
            for line in lines[:-1]:
                print(line)
            if proc.returncode != 0 or not lines:
                print("workload %s exited with %d" % (name, proc.returncode))
                failed = True
            elif json.loads(lines[-1])["failed"]:
                failed = True
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
