"""Bootstrap for a traced `so3fft` child process.

Usage: python child.py SPANS_JSONL '[OP, PARENT_SPAN]' CLI_ARGS...

Installs the span recorder before ``so3fft.cli`` is imported, runs
``so3fft.cli.main(CLI_ARGS)`` inside a ``cli.main`` span nested under the
parent process's span, writes the spans as JSONL and exits with main's code.
"""

import json
import os
import sys

from tracer import Recorder, install


def main() -> int:
    spans_path, context, *args = sys.argv[1:]
    op, parent = json.loads(context)
    rec = Recorder(id_prefix=f"{os.getpid()}:")
    with rec.adopt(parent, op):
        install(rec)
        from so3fft.cli import main as cli_main

        with rec.span("cli.main"):
            code = cli_main(args)
    rec.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
