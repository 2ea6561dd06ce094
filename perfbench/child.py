"""One measured splithygiene CLI invocation, run as a fresh child process.

    python3 perfbench/child.py --src SRC --probe OUT.json [--trace] -- <cli args>

Imports ``splithygiene.cli`` from SRC, runs the CLI with the given
arguments, and writes OUT.json with the import time, the CLOCK_MONOTONIC
instant at which ``experiments.build_pipeline_data`` returned (the end of
set-up for the ``run`` presets; null when it never ran), the exit code and,
with ``--trace``, the span aggregate of ``tracer.Tracer``. It exits with
the CLI's exit code.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--probe", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    sys.path.insert(0, args.src)
    t0 = time.perf_counter()
    import splithygiene.cli as cli
    import splithygiene.experiments as experiments
    import_s = time.perf_counter() - t0

    tracer = None
    if args.trace:
        from tracer import Tracer  # perfbench/ is sys.path[0] when run as a script

        tracer = Tracer()
        tracer.install()

    probe = {"import_s": import_s, "setup_end": None, "exit": None}
    build = experiments.build_pipeline_data

    @functools.wraps(build)
    def build_and_mark(*a, **kw):
        result = build(*a, **kw)
        probe["setup_end"] = time.monotonic()
        return result

    experiments.build_pipeline_data = build_and_mark

    def invoke():
        cli.main.main(args=cli_args, prog_name="splithygiene", standalone_mode=True)

    code = 0
    try:
        if tracer is not None:
            tracer.run_root(invoke)
        else:
            invoke()
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    probe["exit"] = code
    if tracer is not None:
        probe["trace"] = tracer.report()
    Path(args.probe).write_text(json.dumps(probe), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
