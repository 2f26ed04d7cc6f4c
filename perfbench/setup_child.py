"""One cold set-up of a workload, timed by the parent from process start.

Imports the package (the CLI module for cli-cold), makes one warm-up call of
each operation kind, then prints "ready".  Usage:

    python3 perfbench/setup_child.py <workload>
"""

import contextlib
import io
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def main(workload: str) -> None:
    if workload == "cli-cold":
        import pfdr_sizer.cli as cli

        from workloads import warmup_requests

        for req in warmup_requests(workload):
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(req["argv"])
            if code != 0:
                raise SystemExit(f"warm-up {req['argv'][0]} exited {code}")
    else:
        from workloads import execute, warmup_requests

        for req in warmup_requests(workload):
            execute(req)
    print("ready", flush=True)


if __name__ == "__main__":
    main(sys.argv[1])
