"""Traced stand-in for `python -m nanorod.cli`, used by the cli_cold trace pass.

    python3 bench/cli_boot.py SPANS_OUT OP_ID <nanorod arguments...>

Times `import nanorod`, installs the tracing hooks, runs nanorod.cli.main on
the arguments, writes the spans and counts to SPANS_OUT and exits with
main's exit code.  Bytes written to stdout while the table emitter runs are
counted as cli.emit.bytes.
"""

import json
import sys
import time

import tracing


class _CountingStdout:
    def __init__(self, stream, tracer):
        self._stream = stream
        self._tracer = tracer

    def write(self, text):
        if self._tracer.innermost() == "cli.emit":
            self._tracer.counts["cli.emit.bytes"] += len(text.encode())
        return self._stream.write(text)

    def __getattr__(self, name):
        return getattr(self._stream, name)


def main():
    out_path, op_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    before = len(sys.modules)
    t0 = time.perf_counter()
    import nanorod  # noqa: F401

    imports = {"nanorod_s": time.perf_counter() - t0, "modules_loaded": len(sys.modules) - before}
    import nanorod.cli

    tracer = tracing.Tracer()
    tracer.install()
    tracer.op_id = op_id
    tracer.active = True
    sys.stdout = _CountingStdout(sys.stdout, tracer)
    try:
        code = nanorod.cli.main(argv)
    finally:
        tracer.active = False
        sys.stdout.flush()
        sys.stdout = sys.__stdout__
        dump = tracer.dump()
        dump["import"] = imports
        with open(out_path, "w", encoding="ascii") as fh:
            json.dump(dump, fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
