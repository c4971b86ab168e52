"""Wheel over pairwise-coprime prime moduli: enumerates residues r mod W
that survive every wheel prime, in amortized constant time per residue.

Enumeration is a mixed-radix odometer over each modulus's acceptable
residues (increasing order, least-significant modulus first).  The
current residue is maintained incrementally through precomputed CRT
basis coefficients, so one odometer step costs O(1) arithmetic ops.
The order is deterministic, which makes striping and checkpoint cursors
well defined.
"""

from .apsieve import next_prime
from .arith import check_wide, modinv
from .pattern import acceptable_residues

__all__ = ["Wheel", "WheelError", "build_wheel", "wheel_primes"]


class WheelError(ValueError):
    pass


class Wheel:
    """Single-owner enumeration state; concurrent searches use one per worker."""

    def __init__(self, moduli_masks):
        if not moduli_masks:
            raise WheelError("wheel needs at least one modulus")
        self.moduli = []
        self.masks = []
        w = 1
        for p, mask in moduli_masks:
            if mask.modulus != p:
                raise WheelError(f"mask modulus {mask.modulus} != {p}")
            if mask.popcount == 0:
                raise WheelError(f"modulus {p} has no acceptable residues")
            self.moduli.append(p)
            self.masks.append(mask)
            w *= p
        if len(set(self.moduli)) != len(self.moduli):
            raise WheelError("moduli must be distinct")
        self.W = w
        # e_m = (W/m) * ((W/m)^-1 mod m): 1 mod m, 0 mod every other modulus
        self.basis = []
        for p in self.moduli:
            q = w // p
            self.basis.append(q * modinv(q % p, p) % w if p > 1 else 0)
        self.accept = [m.acceptable() for m in self.masks]
        # single-residue moduli contribute a constant; only the rest turn
        self._fixed = 0
        self._digits = []  # indices into moduli with >= 2 choices
        for i, acc in enumerate(self.accept):
            if len(acc) == 1:
                self._fixed = (self._fixed + acc[0] * self.basis[i]) % w
            else:
                self._digits.append(i)
        self.ops = 0  # odometer steps, for amortized-cost accounting
        self.reset()

    # -- enumeration ---------------------------------------------------

    def reset(self):
        self.counter = [0] * len(self.moduli)
        self.position = 0
        self.exhausted = False
        self._recompute_current()

    def _recompute_current(self):
        cur = self._fixed
        for i in self._digits:
            cur = (cur + self.accept[i][self.counter[i]] * self.basis[i]) % self.W
        self.current = cur

    def residue_count(self) -> int:
        n = 1
        for acc in self.accept:
            n *= len(acc)
        return n

    def next_residue(self):
        """Yield the next acceptable residue mod W, or None when exhausted."""
        if self.exhausted:
            return None
        out = self.current
        self.position += 1
        # advance odometer: step the lowest digit, carrying on wrap
        for i in self._digits:
            acc = self.accept[i]
            c = self.counter[i]
            self.ops += 1
            if c + 1 < len(acc):
                self.counter[i] = c + 1
                delta = acc[c + 1] - acc[c]
                self.current = (self.current + delta * self.basis[i]) % self.W
                return out
            self.counter[i] = 0
            delta = acc[0] - acc[c]
            self.current = (self.current + delta * self.basis[i]) % self.W
        self.exhausted = True
        return out

    def __iter__(self):
        while True:
            r = self.next_residue()
            if r is None:
                return
            yield r

    def stripe(self, nu: int, idx: int):
        """Yield residues whose enumeration position is idx mod nu."""
        if not 0 <= idx < nu:
            raise ValueError(f"stripe index {idx} not in [0, {nu})")
        while True:
            pos = self.position
            r = self.next_residue()
            if r is None:
                return
            if pos % nu == idx:
                yield r

    # -- cursors --------------------------------------------------------

    def cursor(self) -> list:
        """Odometer counters, the serialized enumeration position."""
        return list(self.counter)

    def seek(self, counter):
        if len(counter) != len(self.moduli):
            raise WheelError(
                f"cursor has {len(counter)} digits, wheel has {len(self.moduli)}"
            )
        for i, c in enumerate(counter):
            if not 0 <= c < len(self.accept[i]):
                raise WheelError(f"cursor digit {i}={c} out of range")
        # position is the mixed-radix value, low digit first
        pos = 0
        scale = 1
        for i in self._digits:
            pos += counter[i] * scale
            scale *= len(self.accept[i])
        self.counter = list(counter)
        self.position = pos
        self.exhausted = False
        self._recompute_current()

    def copy(self) -> "Wheel":
        w = Wheel(list(zip(self.moduli, self.masks)))
        w.seek(self.cursor())
        w.exhausted = self.exhausted
        w.position = self.position
        return w


def wheel_primes(limit: int, excluded=frozenset()) -> list:
    """The greedy wheel's moduli: primes 2, 3, 5, ... in order, skipping
    `excluded`, taken while their product stays <= limit."""
    primes = []
    w = 1
    p = 2
    while True:
        if p not in excluded:
            if w * p > limit:
                return primes
            primes.append(p)
            w *= p
        p = next_prime(p)


def build_wheel(pattern, limit: int, excluded=frozenset()) -> Wheel:
    """Greedy wheel for a pattern over `wheel_primes(limit, excluded)`.

    Dropping a poorly filtering prime (one that excludes few residues)
    is the caller's call via `excluded`; nothing is dropped implicitly.
    """
    check_wide(limit, "wheel limit")
    if limit < 2:
        raise WheelError(f"wheel limit {limit} admits no prime modulus")
    moduli = wheel_primes(limit, frozenset(excluded))
    if not moduli:
        raise WheelError(f"no usable wheel prime under limit {limit}")
    return Wheel([(p, acceptable_residues(pattern, p)) for p in moduli])
