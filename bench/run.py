"""Cold-process CLI benchmark for loccat, with an outside-in layer trace.

Run from the repository root::

    python3 bench/run.py --workload ladder|dihedral|corpus --seed N \\
        --seconds S --trace 0|1

One client runs one command at a time (a closed loop, no threads).  Each
command is ``loccat.cli.main(argv)`` in a fresh fork of a process that
has imported ``loccat.cli`` and done nothing else (``zygote.py``), so no
module-level cache carries over between commands.  A run makes a fixed
number of whole passes over the workload's commands (``workloads.py``),
``--seconds`` over the time one pass takes on a 2-core shared VM
(``PASS_S``) and at least ``MIN_PASSES``, so every run attempts the same
commands whatever the machine's speed.  Command time runs from argv in
to report written.

Every process of a run is held to one CPU, and after each ``REF_EVERY_S``
of command time the benchmark runs one chunk of a fixed pure-Python
kernel (``reference.py``) on that CPU.  On a shared machine the speed of
one core changes by a third or more over minutes with other tenants'
load, so a whole run can fall in a slow stretch; every time reported is
therefore taken to the nominal machine speed, multiplied by
``reference.NOMINAL_S`` over the run's mean chunk time (``speed``).  A
change to loccat moves the commands and not the kernel.

``--trace 0`` prints the end-to-end metrics:

* ``setup_s``: median time from a fresh interpreter to a finished
  ``import loccat.cli``, over ``SETUP_SAMPLES`` interpreters, each
  followed by a reference chunk that the time is taken to nominal by;
* ``ops_per_s``: commands run over the sum of their times;
* ``latency_p50_s``: median over the workload's commands of each
  command's median time over the passes;
* ``peak_rss_mb``: the largest peak RSS of any command's process;
* ``correct_share``: commands whose outcome matches the known answer (a
  correct definite answer, or "undecided" where that is allowed), over
  commands attempted; ``1 - correct_share`` is the failed share, which is
  zero on ``ladder`` and ``dihedral``, so it is not reported itself;
* ``decided_share``: commands answered with the correct definite answer,
  over commands attempted.

It also prints ``latency_tail_s``, the highest percentile with at
least ten operations beyond it, over every operation of the run, with
that percentile and the operation count.  It is not among the metrics
of the last line: it falls on the few slowest commands of a pass, whose
time on a shared 2-core machine moves by more than a bound can allow
from one run to the next.  Both percentiles are Harrell-Davis estimates
(``harrell_davis``).

``--trace 1`` runs each command untraced and then traced (``tracer.py``)
and prints the per-layer metrics, per pass: ``<module>.<function>.calls``
and ``.self_s``, return-value counters, repeat ratios (calls per distinct
argument), the share of traced command time in ``rewrite.complete`` and
in the fill path (``FILL_PATH``), and ``trace.overhead_ratio`` (traced
over untraced command time), all as measured, with the run's mean
reference chunk time (``reference.chunk_s``).  Its self-checks: traced
and untraced reports are byte-identical, call counts repeat exactly from
pass to pass, and one command run twice more back to back repeats them
again.

A command fails when its exit code or decided answer differs from the
known answer, or an exception escapes ``cli.main``; ``failed`` counts
every such command and each is printed by name.  ``correct`` is false
when a self-check fails or a command fails that is not among the wrong
answers recorded in ``known_failures.json`` (``record.py``): the known
defects are reported, not hidden, and any new one fails the run.  On
``corpus`` the report bytes of the default-limit commands are compared
with ``digests.json``; drift is printed, not failed, since a change may
alter reports on purpose when CHANGES.md says why.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import reference  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# seconds one untraced pass takes on a 2-core shared VM; a traced pass
# runs every command twice, once traced, so it takes TRACE_COST times as long
PASS_S = {"ladder": 7.0, "dihedral": 8.5, "corpus": 6.5}
TRACE_COST = 2.4
MIN_PASSES = 2
REF_EVERY_S = 0.3         # command time between reference chunks
SETUP_SAMPLES = 15
STOP_STARTING_S = 150.0   # start no command after this much of a run
RUN_LIMIT_S = 170.0       # a command still running then is killed
FILL_PATH = ("rewrite.homset", "rewrite.normalize", "equivalence.solve_fill")


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric, with its unit, in output order."""
    names = []
    for label in tracer.LABELS:
        count = "builds" if label == "rewrite.DenomDecider" else "calls"
        names += [(f"{label}.{count}", "count"), (f"{label}.self_s", "s")]
    names += [(c, "count") for c in tracer.COUNTER_NAMES]
    names += [(f"{label}.repeat_ratio", "ratio") for label in tracer.REPEAT_KEYS]
    names += [("split.rewrite.complete", "share"), ("split.fill_path", "share"),
              ("trace.command_s", "s"), ("trace.overhead_ratio", "ratio"),
              ("trace.absent", "count"), ("reference.chunk_s", "s")]
    return names


END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("latency_p50_s", "s"),
              ("peak_rss_mb", "MB"), ("correct_share", "share"),
              ("decided_share", "share"))


class Zygote:
    """The fork server, as a context manager that always reaps it."""

    def __init__(self, seed: int, work: Path):
        env = {k: v for k, v in os.environ.items()
               if k != "LOCCAT_LIMITS_PROFILE"}
        env["PYTHONHASHSEED"] = str(seed % (2 ** 32))
        self.work = work
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "zygote.py"), str(ROOT / "src")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True)

    def run(self, op: workloads.Op, trace: bool, timeout: float) -> tuple[dict, bytes]:
        out, err = self.work / "stdout", self.work / "stderr"
        req = {"argv": list(op.argv), "env": dict(op.env), "out": str(out),
               "err": str(err), "trace": trace, "timeout": timeout}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("fork server exited")
        return json.loads(line), out.read_bytes()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def measure_setup() -> tuple[list[float], list[float]]:
    """Seconds from spawning a fresh interpreter to ``import loccat.cli``
    done, read on the system-wide monotonic clock in both processes, each
    sample followed by a reference chunk; returns both lists."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = "import loccat.cli, time; print(repr(time.perf_counter()))"
    samples, gauge = [], []
    for i in range(SETUP_SAMPLES + 1):  # the first writes bytecode caches
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                              capture_output=True, text=True).stdout
        if i:
            samples.append(float(done) - start)
            gauge.append(reference.chunk())
    return samples, gauge


def passes_for(workload: str, seconds: float, trace: bool) -> int:
    """Passes in a run: fixed by the workload and ``--seconds`` alone."""
    if trace:
        return max(1, round(seconds / (TRACE_COST * PASS_S[workload])))
    return max(MIN_PASSES, round(seconds / PASS_S[workload]))


def tail_level(n_min: int) -> int:
    """Highest integer percentile with at least ten of ``n_min`` beyond it."""
    return max([0] + [q for q in range(1, 100)
                      if n_min - math.ceil(q * n_min / 100) >= 10])


def harrell_davis(values: list[float], q: int, substeps: int = 16) -> float:
    """The ``q``-th percentile by the Harrell-Davis estimator: order
    statistics weighted by the Beta(p(n+1), (1-p)(n+1)) mass of their rank
    interval.  It averages the values near the rank instead of taking one,
    so a percentile that falls on a single command of a small mix does
    not move with that command's noise alone."""
    x = sorted(values)
    n, p = len(x), q / 100
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    width = 1 / (n * substeps)
    weights = [sum(math.exp(log_norm + (a - 1) * math.log(t) + (b - 1) * math.log1p(-t))
                   for t in ((i * substeps + k + 0.5) * width for k in range(substeps)))
               for i in range(n)]
    return sum(w * v for w, v in zip(weights, x)) / sum(weights)


class Runner:
    """Executes commands, checks each against its known answer."""

    def __init__(self, zygote: Zygote, digests: dict, started: float,
                 stop_starting_s: float = STOP_STARTING_S,
                 run_limit_s: float = RUN_LIMIT_S):
        self.zygote = zygote
        self.digests = digests
        self.stop_at = started + stop_starting_s
        self.kill_at = started + run_limit_s
        self.records: list[dict] = []
        self.drifted: list[str] = []
        self.gauge: list[float] = []      # reference chunk times
        self.since_gauge = 0.0            # command time since the last chunk

    def time_left(self) -> bool:
        return time.perf_counter() < self.stop_at

    def execute(self, op: workloads.Op, trace: bool = False,
                slot: int | None = None) -> dict:
        timeout = max(1.0, self.kill_at - time.perf_counter())
        reply, out = self.zygote.run(op, trace, timeout)
        try:
            report = json.loads(out)
        except ValueError:
            report = None
        outcome = workloads.classify(op.expect, reply["exit"],
                                     reply["exception"], report)
        rec = {"op": op.id, "slot": slot, "trace": trace, "outcome": outcome,
               "seconds": reply["seconds"], "maxrss_kb": reply["maxrss_kb"],
               "layers": reply["trace"],
               "sha256": hashlib.sha256(out).hexdigest()}
        if op.digest and not trace and \
                self.digests.get(op.id) != rec["sha256"] and op.id not in self.drifted:
            self.drifted.append(op.id)
        self.records.append(rec)
        # one reference chunk per REF_EVERY_S of command time, so the
        # chunks sample the machine's speed over the run evenly in time
        self.since_gauge += rec["seconds"]
        while self.since_gauge >= REF_EVERY_S:
            self.gauge.append(reference.chunk())
            self.since_gauge -= REF_EVERY_S
        return rec

    def failures(self) -> dict[str, str]:
        return {r["op"]: r["outcome"] for r in self.records
                if r["outcome"].startswith("failed")}


def ladder_self_check(runner: Runner, work: Path) -> dict:
    """L1 must give E7's verdict, exit code and section counters."""
    import families
    lad = families.write_ladder(work / "selfcheck", 1, families.Namer(0))
    results = {}
    for key, path in (("E7", "fixtures/E7.fun.json"),
                      ("L1", str(Path(lad["fun"]).relative_to(ROOT)))):
        op = workloads.Op(f"verify-approximation {key}",
                          ("verify-approximation", path),
                          workloads.Expect(0, {"result.ok": True}))
        rec = runner.execute(op)
        report = json.loads((runner.zygote.work / "stdout").read_text("utf-8"))
        results[key] = (rec["outcome"], _counters(report))
    ok = results["E7"] == results["L1"] and results["E7"][0] == "decided"
    return {"ok": ok, "detail": "" if ok else str(results)}


def _counters(node, path=""):
    """Section names, booleans and integer counters of a report."""
    if isinstance(node, dict):
        return {k: v for key in sorted(node)
                for k, v in _counters(node[key], f"{path}.{key}").items()}
    if isinstance(node, list):
        out = {}
        for i, item in enumerate(node):
            out.update(_counters(item, f"{path}[{i}]"))
        return out
    if isinstance(node, (bool, int)) or path.endswith(".name"):
        return {path: node}
    return {}


def timed_run(runner: Runner, ops: list, passes: int) -> int:
    done = 0
    while done < passes and runner.time_left():
        for slot, op in enumerate(ops):
            if not runner.time_left():
                break
            runner.execute(op, slot=slot)
        done += 1
    return done


def traced_run(runner: Runner, ops: list, passes: int,
               checks: dict) -> tuple[dict, int]:
    """Untraced then traced, command by command; per-pass layer metrics."""
    pairs: list[tuple[dict, dict]] = []
    calls_by_op: dict[str, dict] = {}
    repeat_ok, identical, done = True, True, 0
    while done < passes and runner.time_left():
        for op in ops:
            if not runner.time_left():
                break
            plain = runner.execute(op)
            traced = runner.execute(op, trace=True)
            identical &= plain["sha256"] == traced["sha256"]
            seen = calls_by_op.setdefault(op.id, traced["layers"]["calls"])
            repeat_ok &= seen == traced["layers"]["calls"]
            pairs.append((plain, traced))
        done += 1
    checks["stdout_identical_traced"] = {"ok": identical, "detail": ""}
    checks["calls_repeat_across_passes"] = {"ok": repeat_ok,
                                            "detail": f"{done} passes"}
    # the cheapest command that enumerates hom-sets (whose normal forms
    # rewrite.py caches per process), twice more back to back
    traced_s = {t["op"]: t["seconds"] for _, t in pairs
                if t["layers"]["calls"]["rewrite.homset"]} or \
        {t["op"]: t["seconds"] for _, t in pairs}
    cheapest = next(op for op in ops if op.id == min(traced_s, key=traced_s.get))
    again = [runner.execute(cheapest, trace=True)["layers"]["calls"]
             for _ in range(2)]
    checks["isolation"] = {
        "ok": again[0] == again[1] == calls_by_op[cheapest.id],
        "detail": f"{cheapest.id} run twice in a row"}
    return layer_metrics([t for _, t in pairs], [p for p, _ in pairs], done), done


def layer_metrics(traced: list[dict], plain: list[dict], passes: int) -> dict:
    calls = dict.fromkeys(tracer.LABELS, 0)
    self_s = dict.fromkeys(tracer.LABELS, 0.0)
    counters = dict.fromkeys(tracer.COUNTER_NAMES, 0)
    distinct = dict.fromkeys(tracer.REPEAT_KEYS, 0)
    absent: set[str] = set()
    for rec in traced:
        layers = rec["layers"]
        for label in tracer.LABELS:
            calls[label] += layers["calls"][label]
            self_s[label] += layers["self_s"][label]
        for name in counters:
            counters[name] += layers["counters"][name]
        for label in distinct:
            distinct[label] += layers["distinct"][label]
        absent.update(layers["absent"])
    traced_s = sum(r["seconds"] for r in traced)
    plain_s = sum(r["seconds"] for r in plain)
    metrics = {}
    for label in tracer.LABELS:
        count = "builds" if label == "rewrite.DenomDecider" else "calls"
        metrics[f"{label}.{count}"] = calls[label] / passes
        metrics[f"{label}.self_s"] = self_s[label] / passes
    for name, total in counters.items():
        metrics[name] = total / passes
    for label, n in distinct.items():
        metrics[f"{label}.repeat_ratio"] = calls[label] / n if n else 0.0
    metrics["split.rewrite.complete"] = self_s["rewrite.complete"] / traced_s
    metrics["split.fill_path"] = sum(self_s[k] for k in FILL_PATH) / traced_s
    metrics["trace.command_s"] = traced_s / passes
    metrics["trace.overhead_ratio"] = traced_s / plain_s
    metrics["trace.absent"] = len(absent)
    metrics["_absent"] = sorted(absent)
    return metrics


def speed(gauge: list[float]) -> float:
    """Nominal over measured reference time: the factor that takes a time
    measured now to the time it would take at the nominal machine speed."""
    return reference.NOMINAL_S / statistics.fmean(gauge)


def end_to_end(records: list[dict], gauge: list[float], setup: list[float],
               setup_gauge: list[float], level: int) -> dict:
    """Every time is taken to the nominal machine speed: command times by
    the reference chunks run among the commands, set-up times by those run
    among the set-up samples.  The mean chunk time matches the sum of
    command times, which a burst of load lengthens in the same way."""
    seconds = [r["seconds"] * speed(gauge) for r in records]
    by_slot: dict[int, list[float]] = {}
    for r, s in zip(records, seconds):
        by_slot.setdefault(r["slot"], []).append(s)
    n = len(records)
    failed = sum(r["outcome"].startswith("failed") for r in records)
    return {
        "setup_s": statistics.median(setup) * speed(setup_gauge),
        "ops_per_s": n / sum(seconds),
        "latency_p50_s": harrell_davis(
            [statistics.median(v) for v in by_slot.values()], 50),
        "latency_tail_s": harrell_davis(seconds, level),
        "peak_rss_mb": max(r["maxrss_kb"] for r in records) / 1024,
        "correct_share": (n - failed) / n,
        "decided_share": sum(r["outcome"] == "decided" for r in records) / n,
    }


def _load_json(path: Path, default):
    return json.loads(path.read_text("utf-8")) if path.exists() else default


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "loccat" / "cli.py").is_file():
        print(f"bench: no loccat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    started = time.perf_counter()
    work = BENCH_DIR / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        setup, setup_gauge = ([], []) if args.trace else measure_setup()
        ops = workloads.build(args.workload, work, args.seed)
        checks: dict[str, dict] = {}
        with Zygote(args.seed, work) as zygote:
            runner = Runner(zygote, _load_json(BENCH_DIR / "digests.json", {}),
                            started)
            if args.workload == "ladder":
                checks["ladder_L1_matches_E7"] = ladder_self_check(runner, work)
                runner.records.clear()
                runner.gauge.clear()
            passes = passes_for(args.workload, args.seconds, bool(args.trace))
            if args.trace:
                layers, passes = traced_run(runner, ops, passes, checks)
            else:
                passes = timed_run(runner, ops, passes)
                level = tail_level(len(runner.records))
        records = runner.records
        failures = runner.failures()
        known = _load_json(BENCH_DIR / "known_failures.json", {})
        if args.trace:
            absent = layers.pop("_absent")
            layers["reference.chunk_s"] = statistics.fmean(runner.gauge)
            metrics = {name: {"value": layers[name], "unit": unit}
                       for name, unit in per_layer_names()}
            lines = [f"traced {passes} passes of {len(ops)} commands"]
            lines += [f"absent from the trace: {name}" for name in absent]
        else:
            values = end_to_end(records, runner.gauge, setup, setup_gauge, level)
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in END_TO_END}
            lines = [f"{len(records)} commands in {passes} passes of {len(ops)}; "
                     f"latency_tail_s (p{level} of {len(records)}) "
                     f"{values['latency_tail_s']:.6f} s"]
        lines += [f"check {name}: {'ok' if c['ok'] else 'FAILED'} {c['detail']}"
                  for name, c in checks.items()]
        lines += [f"failed ({'known' if op in known else 'NEW'}): {op}: {outcome}"
                  for op, outcome in sorted(failures.items())]
        if any(op.digest for op in ops) and not args.trace:
            checked = sum(op.digest for op in ops)
            lines.append(f"report digests: {checked - len(runner.drifted)} of "
                         f"{checked} unchanged")
            lines += [f"report drifted: {op}" for op in runner.drifted]
        correct = all(c["ok"] for c in checks.values()) and \
            set(failures) <= set(known)
        failed = sum(r["outcome"].startswith("failed") for r in records)
        (BENCH_DIR / "work" / f"last-{args.workload}.json").write_text(
            json.dumps({"lines": lines, "metrics": metrics, "records": records,
                        "gauge": runner.gauge},
                       indent=1) + "\n")
        print("\n".join(lines))
        print(json.dumps({"correct": correct, "attempted": len(records),
                          "failed": failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
