"""Run one nodegae command with its public functions traced.

    python perfbench/cli_shim.py SPANS_TSV <nodegae command and flags>

Used by the cli-512 workload in its traced rounds: it installs the same
wrappers as the in-process workloads, runs ``nodegae.cli.main`` and writes
the spans to SPANS_TSV for the parent to merge. Exits with main's code.
"""

import sys

from tracing import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.run_id = "child"
    tracer.install()
    from nodegae import cli

    try:
        return cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.write(spans_path)


if __name__ == "__main__":
    raise SystemExit(main())
