"""A fixed CPU job that sunurd does not touch: the benchmark's yardstick.

Each round of the benchmark runs this script as a child process, launched
the same way as the CLI calls, and divides the round's CLI wall times by its
wall time.  The work mixes what the CLI spends its time on (interpreter
start, bit-mask loops, tuple and dict churn, sorting, JSON with indentation),
so a slower machine slows both alike and the ratio stays put, while a change
to sunurd moves only the numerator.
"""

import json


def bitmask_walk(n: int) -> int:
    acc = 0
    for i in range(n):
        m = (i * 2654435761) & 0xFFFFFFFF
        while m:
            bit = m & -m
            m ^= bit
            acc += bit.bit_length()
    return acc


def tuple_churn(n: int) -> int:
    counts: dict[tuple[int, int], int] = {}
    for i in range(n):
        e = (i % 997, (i * 31) % 1009)
        counts[e] = counts.get(e, 0) + 1
    return len(sorted(counts, key=lambda e: (e[1], e[0])))


def json_round_trip(n: int) -> int:
    doc = {"classes": [{"edges": [[i, i + j] for j in range(1, 40)]} for i in range(n)]}
    return len(json.loads(json.dumps(doc, indent=2))["classes"])


if __name__ == "__main__":
    print(bitmask_walk(50_000), tuple_churn(70_000), json_round_trip(500))
