"""Fork server: import ``loccat.cli`` once, then run each command in a child.

Usage (from ``run.py``): ``python3 bench/zygote.py <src-dir>``.  The
process imports ``loccat.cli`` and does nothing else with it; every
command runs in a fresh fork, so no module-level cache (such as
``rewrite._reachable_normal_forms``) carries over from one command to
the next, and each child's ``ru_maxrss`` is that command's peak.

Protocol: one JSON request per line on stdin,
``{"argv": [...], "env": {...}, "out": path, "err": path, "trace": bool,
"timeout": seconds}``, answered by one JSON line on stdout with the exit
code, the name of any exception that escaped ``cli.main``, the command
time, the child's peak RSS and, when traced, the layer counters.
"""

from __future__ import annotations

import json
import os
import select
import signal
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def _redirect(fd: int, path: str, flags: int):
    target = os.open(path, flags, 0o644)
    os.dup2(target, fd)
    os.close(target)


def run_child(req: dict) -> dict:
    """Run one command in this (forked) process; never raises."""
    os.environ.update(req["env"])
    _redirect(0, os.devnull, os.O_RDONLY)
    write = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    _redirect(1, req["out"], write)
    _redirect(2, req["err"], write)
    sys.stdout = open(1, "w", encoding="utf-8", closefd=False)
    sys.stderr = open(2, "w", encoding="utf-8", closefd=False)
    recorder = None
    if req["trace"]:
        sys.path.insert(0, BENCH_DIR)
        import tracer
        recorder = tracer.install()
    main = sys.modules["loccat.cli"].main

    exit_code, exception, escaped = None, None, None
    t0 = time.perf_counter()
    try:
        exit_code = main(req["argv"])
    except SystemExit as e:  # argparse rejected the arguments
        exit_code = e.code if isinstance(e.code, int) else 2
        exception = "SystemExit"
    except BaseException as e:  # escaped cli.main: recorded, not fatal
        exception, escaped = type(e).__name__, e
    sys.stdout.flush()
    seconds = time.perf_counter() - t0
    if escaped is not None:
        traceback.print_exception(escaped)
        sys.stderr.flush()
    return {"exit": exit_code, "exception": exception, "seconds": seconds,
            "trace": recorder.snapshot() if recorder else None}


def _write_all(fd: int, data: bytes):
    while data:
        data = data[os.write(fd, data):]


def run_forked(req: dict) -> dict:
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(r)
        try:
            try:
                payload = run_child(req)
            except BaseException as e:  # harness fault in the child
                payload = {"exit": None, "exception": f"harness:{type(e).__name__}",
                           "seconds": 0.0, "trace": None}
            _write_all(w, json.dumps(payload).encode())
        finally:
            os._exit(0)
    os.close(w)
    chunks, killed = [], False
    deadline = time.monotonic() + req["timeout"]
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            os.kill(pid, signal.SIGKILL)
            killed = True
            break
        ready, _, _ = select.select([r], [], [], remaining)
        if ready:
            chunk = os.read(r, 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    os.close(r)
    _, _, usage = os.wait4(pid, 0)
    reply = json.loads(b"".join(chunks)) if chunks and not killed else {
        "exit": None, "exception": "timeout" if killed else "child-died",
        "seconds": req["timeout"] if killed else 0.0, "trace": None}
    reply["maxrss_kb"] = usage.ru_maxrss
    return reply


def main():
    sys.path.insert(0, sys.argv[1])
    import loccat.cli  # noqa: F401  (the only work done before forking)
    replies = os.fdopen(os.dup(1), "w")
    for line in sys.stdin:
        replies.write(json.dumps(run_forked(json.loads(line))) + "\n")
        replies.flush()


if __name__ == "__main__":
    main()
