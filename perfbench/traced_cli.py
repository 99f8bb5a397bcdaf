"""Run one `ncspec` CLI call with per-layer tracing.

    python traced_cli.py <dump.json> <spawn time> <job id> <cli args...>

`<spawn time>` is the parent's `time.monotonic()` when it started this
process (the clock is shared across processes), so the dump can state
the interpreter start plus import time.  The report goes to stdout
exactly as `python -m ncspec.cli <cli args...>` writes it; the spans and
counters go to `<dump.json>`.
"""

import json
import sys
import time

import ncspec.cli

T_IMPORTED = time.monotonic()

import layers  # noqa: E402


def main():
    dump_path, spawned, job = sys.argv[1], float(sys.argv[2]), sys.argv[3]
    rec = layers.install(layers.Recorder())
    rec.job = job
    try:
        code = ncspec.cli.main(sys.argv[4:])
    finally:
        sys.stdout.flush()
        dump = rec.dump()
        dump["startup_s"] = T_IMPORTED - spawned
        with open(dump_path, "w", encoding="utf-8") as fh:
            json.dump(dump, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
