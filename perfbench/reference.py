"""Reference answers computed without importing tuplesieve.

A byte sieve over the odd numbers gives every prime up to the census
bound; the tuple count and the reciprocal sum (math.fsum, correctly
rounded) are read straight off it.
"""

import math

# offsets of each census pattern, and how its bound X limits the largest member
CENSUS = {
    "twins": ((0, 2), lambda X: X + 1),   # p < X, so p + 2 <= X + 1
    "quads": ((0, 2, 6, 8), lambda X: X - 1),  # largest member below X
}

REL_TOL = 1e-13  # the tolerance the library's tests use against math.fsum


def odd_prime_flags(limit: int) -> bytearray:
    """flags[i] == 1 exactly when 2*i + 1 <= limit is prime."""
    size = (limit + 1) // 2
    flags = bytearray([1]) * size
    flags[0] = 0
    for i in range(1, (math.isqrt(limit) - 1) // 2 + 1):
        if flags[i]:
            p = 2 * i + 1
            start = p * p // 2
            flags[start::p] = bytes(len(range(start, size, p)))
    return flags


def census(kind: str, X: int):
    """(count, reciprocal sum) of the census `kind` at bound X.

    Both patterns start with the pair (p, p + 2), i.e. two adjacent odd
    flags, so bytes.find locates the candidates and the other members
    are checked one by one.
    """
    offsets, top = CENSUS[kind]
    limit = top(X)
    flags = odd_prime_flags(max(limit, 1))
    rest = [o // 2 for o in offsets[2:]]
    count, terms = 0, []
    i = flags.find(b"\x01\x01")
    while 0 <= i < len(flags) - offsets[-1] // 2:
        if all(flags[i + s] for s in rest):
            count += 1
            p = 2 * i + 1
            terms.extend(1.0 / (p + o) for o in offsets)
        i = flags.find(b"\x01\x01", i + 1)
    return count, math.fsum(terms)


class Reference:
    """The expected answer of one workload."""

    def __init__(self, workload):
        self.workload = workload
        self.count = self.recip_sum = None
        if workload.census:
            self.count, self.recip_sum = census(workload.census, workload.args[0])

    def check(self, answer) -> str:
        """'' when answer is right, else what is wrong with it."""
        wl = self.workload
        if not wl.census:
            got = answer.get("value")
            return "" if got == wl.expected else f"answer {got} != published {wl.expected}"
        count, recip = answer.get("count"), float.fromhex(answer.get("recip_sum", "nan"))
        if count != wl.expected:
            return f"count {count} != published {wl.expected}"
        if count != self.count:
            return f"count {count} != sieve count {self.count}"
        if not abs(recip - self.recip_sum) <= REL_TOL * abs(self.recip_sum):
            return f"recip_sum {recip!r} != fsum {self.recip_sum!r} within {REL_TOL}"
        return ""

