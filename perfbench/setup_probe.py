"""Set-up cost in a fresh interpreter: import rimcert and its CLI, parse specs.

Usage: python3 perfbench/setup_probe.py SRC_DIR < specs.json

Reads a JSON list of spec documents on stdin and prints one JSON object:
``import_s`` (import of ``rimcert`` and ``rimcert.cli``) and ``setup_s``
(that plus ``spec_from_json`` on every document).  Interpreter start-up is
not included: the clock starts before the first import.
"""

import json
import sys
import time


def main() -> None:
    docs = json.load(sys.stdin)
    sys.path.insert(0, sys.argv[1])
    start = time.perf_counter()
    import rimcert  # noqa: F401
    import rimcert.cli  # noqa: F401
    from rimcert.surgery import spec_from_json

    imported = time.perf_counter()
    for doc in docs:
        spec_from_json(doc)
    done = time.perf_counter()
    print(json.dumps({"import_s": imported - start, "setup_s": done - start}))


if __name__ == "__main__":
    main()
