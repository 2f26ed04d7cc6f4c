"""A CLI process with tracing: the traced twin of `python -m pfdr_sizer.cli`.

Usage: python3 perfbench/cli_child.py <trace-out.json> <spawn-time> <cli args...>

spawn-time is the parent's time.time() just before it started this process,
so the gap to the first line here is the interpreter start.  The CLI module
import is timed on its own, then the library and cli.parse_config/cli.run
are wrapped and cli.main runs unchanged; stdout and the exit code are the
CLI's own.  Spans and phase times go to trace-out.json.
"""

import time

STARTED = time.time()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def main() -> int:
    out_path, spawned, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    t = time.perf_counter()
    import pfdr_sizer.cli as cli

    import_s = time.perf_counter() - t
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
    record = tracer.dump()
    record["cli"] = {"interp_start_ms": 1e3 * (STARTED - spawned), "import_ms": 1e3 * import_s}
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
