"""Start one traced CLI process: ``launch.py SPANS_FILE ARG...``.

Times ``import tanfam.cli``, installs the span wrappers, runs
``tanfam.cli.main(ARG...)`` and writes the spans and the import time to
SPANS_FILE as JSON, then exits with main's code.  The interpreter's own
start and exit are what the parent's wall time adds on top.
"""

import json
import sys
import time

start = time.perf_counter()
import tanfam.cli  # noqa: E402

import_s = time.perf_counter() - start

from tracing import Tracer  # noqa: E402

tracer = Tracer().install()
try:
    code = tanfam.cli.main(sys.argv[2:])
except SystemExit as exc:  # argparse rejects the flags
    code = exc.code
finally:
    tracer.uninstall()
    export = tracer.export()
    export["counters"]["cli.import_s"] = import_s
    with open(sys.argv[1], "w", encoding="utf-8") as handle:
        json.dump(export, handle)
sys.exit(code)
