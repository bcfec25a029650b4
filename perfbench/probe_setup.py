"""Set-up probe: time from `import cossinm` to the end of the first call.

Run in a fresh interpreter, several times per run, by harness.py:

    python3 probe_setup.py <src dir> <method> <n> <t>  < matrix bytes

The matrix arrives on standard input as n*n float64 values (read before the
clock starts).  Prints one JSON object with ``setup_s``.
"""

import json
import os
import sys
import time


def main() -> int:
    src, method, n, t = sys.argv[1], sys.argv[2], int(sys.argv[3]), \
        float(sys.argv[4])
    raw = sys.stdin.buffer.read()
    sys.path[:0] = [src, os.path.dirname(os.path.abspath(__file__))]
    start = time.perf_counter()
    import calls  # imports numpy and cossinm
    import numpy as np

    a = np.frombuffer(raw, dtype=np.float64).reshape(n, n)
    with np.errstate(over="ignore", invalid="ignore"):
        calls.invoke(method, a, t)
    print(json.dumps({"setup_s": time.perf_counter() - start}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
