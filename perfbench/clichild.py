"""Run one ``traceless`` CLI command with the tracer installed.

    python3 perfbench/clichild.py PAYLOAD.json factor A.txt --out-dir out ...

Behaves like the ``traceless`` console script, and writes the spans and
notes of this process to PAYLOAD.json when the command ends.
"""

import sys

import traceless.cli
from tracer import Tracer


def main() -> int:
    payload, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return traceless.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(payload)


if __name__ == "__main__":
    sys.exit(main())
