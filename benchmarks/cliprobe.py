"""Run one so3sym CLI command with the span tracer on and dump its trace.

Usage: python cliprobe.py TRACE_OUT.json <so3sym arguments...>

Exits with the CLI's own exit code. The benchmark runs fresh CLI
processes through this script only in its traced phase; the untraced
phase runs ``python -m so3sym.cli`` directly.
"""

import sys

import so3sym
import so3sym.cli
import tracer


def main():
    out, argv = sys.argv[1], sys.argv[2:]
    t = tracer.Tracer(so3sym)
    t.install()
    try:
        rc = so3sym.cli.main(argv)
    finally:
        t.uninstall()
        t.dump(out)
    return rc


if __name__ == "__main__":
    sys.exit(main())
