"""Run the isdd-lab CLI with layer tracing and dump the spans on exit.

Usage: python3 traced_cli.py DUMP_PATH CLI_ARG...

Behaves like the ``isdd-lab`` entry point (same arguments, output and exit
code) and pickles the span dump to DUMP_PATH when the CLI returns.
"""

import pickle
import sys

from layers import LayerTrace


def main() -> int:
    dump_path, argv = sys.argv[1], sys.argv[2:]
    trace = LayerTrace()
    idx = trace.tracer.open("cli.import")
    from isdd_lab import cli

    trace.tracer.close(idx)
    trace.install()
    try:
        return trace.run_main(cli.main, argv)
    finally:
        with open(dump_path, "wb") as fh:
            pickle.dump(trace.dump(), fh, protocol=pickle.HIGHEST_PROTOCOL)


if __name__ == "__main__":
    sys.exit(main())
