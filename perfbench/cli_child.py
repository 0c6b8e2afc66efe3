"""Run one zerocohom CLI invocation with the layer tracer installed.

    python3 perfbench/cli_child.py SPANS_OUT ARGV...

Behaves like ``python3 -m zerocohom.cli ARGV...`` (same stdout, stderr
and exit code) and also writes its spans and counters to SPANS_OUT.
"""

import sys

from tracer import Tracer

import zerocohom.cli


def main():
    spans_out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer().install()
    try:
        with tracer.span("cli.process"):
            code = zerocohom.cli.execute(argv)
    finally:
        tracer.dump(spans_out, {"counters": tracer.counters})
    return code


if __name__ == "__main__":
    sys.exit(main())
