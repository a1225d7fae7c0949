"""Run one `qnshape` CLI command in this fresh interpreter with tracing on.

    python3 perfbench/cli_child.py SPANS_JSON <qnshape arguments...>

The import of qnshape.cli is recorded as the ``import.qnshape`` span, then
the layer wrappers are installed and ``qnshape.cli.main`` runs, so the import
span and the layer spans come from one process.  The spans are written to
SPANS_JSON when the command ends; the exit code is the command's.
"""

import json
import sys

from tracing import Tracer


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    with tracer.span("import.qnshape") as attrs:
        before = len(sys.modules)
        import qnshape.cli
        attrs["modules"] = len(sys.modules) - before
    tracer.install()
    try:
        code = qnshape.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.take(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
