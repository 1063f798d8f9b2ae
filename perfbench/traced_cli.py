"""Run one bundlezeta command line under the tracer (trace runs of the cli workload).

    python3 perfbench/traced_cli.py OUT.json <bundlezeta arguments...>

Imports ``bundlezeta`` and ``bundlezeta.cli``, wraps every layer's
public functions (``tracer.py``), runs ``bundlezeta.cli.main`` on the
arguments, writes the layer totals and spans to OUT.json, and exits with the
command's exit code.  The report on stdout is the command's own.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracer as tracing  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    import bundlezeta
    import bundlezeta.cli

    tr = tracing.Tracer()
    tr.install(bundlezeta)
    tr.active = True
    try:
        code = bundlezeta.cli.main(argv)
    finally:
        tr.active = False
        with open(out, "w") as fh:
            json.dump({"tracer": tr.snapshot(), "spans": tr.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
