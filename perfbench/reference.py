"""Reference load of the benchmark: a fixed pure-Python loop, timed chunk by chunk.

Usage: python3 perfbench/reference.py OUT

Runs until it is terminated. Every 0.2 s it appends one line per chunk,
"END SECONDS" (END a time.monotonic() value, SECONDS the chunk's duration),
to OUT. run.py runs it on one CPU while the workers run on another and
divides every time of the run by how much slower than REFERENCE_CHUNK_S
the chunks ran; see README.md, Steadiness.
"""
from __future__ import annotations

import sys
import time

CHUNK_ITERATIONS = 20_000


def chunk():
    s = 0
    for i in range(CHUNK_ITERATIONS):
        s += i * i
    return s


def main(path):
    lines = []
    flush_at = time.monotonic() + 0.2
    with open(path, "a") as out:
        while True:
            t0 = time.monotonic()
            chunk()
            t1 = time.monotonic()
            lines.append(f"{t1:.6f} {t1 - t0:.9f}\n")
            if t1 >= flush_at:
                out.writelines(lines)
                out.flush()
                lines.clear()
                flush_at = t1 + 0.2


if __name__ == "__main__":
    main(sys.argv[1])
