"""Record the benchmark's reference data for the code as it stands.

Run from the repository root: ``python3 bench/record.py``.  It writes

* ``bench/digests.json``: the SHA-256 of the report of every
  default-limit fixture command (the ``corpus`` digest check compares
  against it and lists the commands whose report bytes drifted);
* ``bench/known_failures.json``: every ``corpus`` command that fails
  against its known answer, over the whole tight-limit space (every
  fixture command under every tight limit, of which a ``corpus`` run
  uses a fixed slice), with its outcome.

Re-record digests only in a change whose CHANGES.md entry says why the
report bytes changed.  The known failures may only shrink: a command
that newly fails makes ``run.py`` report ``correct: false``.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

import run
import workloads


def main() -> int:
    os.chdir(run.ROOT)
    work = run.BENCH_DIR / "work" / f"record-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        base = workloads.fixture_ops()
        ops = base + workloads.tight_space(base) + \
            workloads.non_converging_ops(work, workloads.families.Namer(0))
        with run.Zygote(0, work) as zygote:
            # the survey has no run deadline
            runner = run.Runner(zygote, {}, time.perf_counter(),
                                stop_starting_s=1e9, run_limit_s=1e9)
            digests = {}
            for op in ops:
                rec = runner.execute(op)
                if op.digest:
                    digests[op.id] = rec["sha256"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failures = runner.failures()
    for name, data in (("digests.json", digests),
                       ("known_failures.json", failures)):
        (run.BENCH_DIR / name).write_text(
            json.dumps(data, indent=1, sort_keys=True, ensure_ascii=False) + "\n",
            encoding="utf-8")
    print(f"{len(ops)} commands, {len(digests)} digests, "
          f"{len(failures)} failing commands recorded")
    return 0


if __name__ == "__main__":
    sys.exit(main())
