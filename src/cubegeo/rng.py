"""Seeded randomness with a fixed cross-platform algorithm.

The generator is SplitMix64 (Steele, Lea & Flood's mix64 variant 13 over
a Weyl sequence with increment 0x9E3779B97F4A7C15): 64 bits of state, one
multiply-xorshift avalanche per output word. Identical seeds produce
identical streams on every platform because all arithmetic is integral.

Stream splitting: every parallel unit of work (one instance, one sampled
colouring) gets its own generator via ``derive(root_seed, index, ...)``,
never a shared stream, so results are independent of worker scheduling
and of the number of workers.

Bernoulli draws take exact ``Fraction`` probabilities and compare a
uniform real against them 16 bits at a time, escalating on the boundary
window, so densities like 1/5 are hit exactly rather than through a
float threshold. ``bernoulli_mask`` makes many such draws at once, bit
for bit the same as drawing them one by one.
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_BIT_CHARS = bytes.maketrans(b"\0\1", b"01")


def mix64(z: int) -> int:
    """SplitMix64 finalizer: avalanche a 64-bit word."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def derive(seed: int, *keys: int) -> int:
    """Deterministically derive a sub-stream seed from a root seed and a
    key path, e.g. derive(root, instance_index)."""
    s = mix64(seed)
    for k in keys:
        s = mix64((s + _GAMMA) ^ mix64(k))
    return s


def _probability(p: Fraction) -> tuple[int, int]:
    num, den = p.numerator, p.denominator
    if num < 0:
        raise ValueError("probability below 0")
    if num > den:
        raise ValueError("probability above 1")
    return num, den


class SplitMix64:
    """The harness RNG. 64-bit state; see the module docstring."""

    __slots__ = ("state", "_buf", "_bufbits")

    def __init__(self, seed: int):
        self.state = seed & _MASK
        self._buf = 0
        self._bufbits = 0

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        return mix64(self.state)

    def bits(self, k: int) -> int:
        """A uniform k-bit integer (buffered, so small draws do not burn
        a full word each)."""
        while self._bufbits < k:
            self._buf |= self.next_u64() << self._bufbits
            self._bufbits += 64
        out = self._buf & ((1 << k) - 1)
        self._buf >>= k
        self._bufbits -= k
        return out

    def randrange(self, bound: int) -> int:
        """Uniform integer in [0, bound), unbiased via rejection."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        k = (bound - 1).bit_length()
        while True:
            r = self.bits(k) if k else 0
            if r < bound:
                return r

    def bernoulli(self, p: Fraction) -> bool:
        """True with probability exactly p (a Fraction in [0, 1])."""
        num, den = _probability(p)
        if num == 0:
            return False
        if num == den:
            return True
        return self._below(num, den)

    def _below(self, num: int, den: int) -> bool:
        """Whether a uniform real U, drawn 16 bits at a time, is below
        num/den: draw v, decide if the window [v, v+1)/2^16 is entirely
        below or above the target, otherwise zoom into the window and
        repeat."""
        while True:
            v = self.bits(16)
            num <<= 16
            lo = v * den
            if num <= lo:
                return False
            if num >= lo + den:
                return True
            num -= lo

    def bernoulli_mask(self, p: Fraction, count: int) -> int:
        """``count`` draws of ``bernoulli(p)`` as one int: bit i is the
        i-th of ``count`` sequential calls, and the generator ends in the
        same state, buffered bits included.

        A draw's first 16-bit chunk v decides it (True iff v < cut, where
        cut = floor(p * 2^16)) unless p * 2^16 is not an integer and v ==
        cut. So the chunks of all draws are generated in one word loop and
        compared at C speed; at such a boundary chunk the stream is rewound
        to just after it, that draw is finished exactly, and the rest
        start again from there.
        """
        num, den = _probability(p)
        if num == 0 or count <= 0:
            return 0
        if num == den:
            return (1 << count) - 1
        cut, rest = divmod(num << 16, den)
        mask = 0
        done = 0
        while done < count:
            k = count - done
            state, buf, bufbits = self.state, self._buf, self._bufbits
            raw = bytearray()
            for _ in range(-(-(16 * k - bufbits) // 64)):
                state = (state + _GAMMA) & _MASK
                raw += mix64(state).to_bytes(8, "little")
            stream = buf | int.from_bytes(raw, "little") << bufbits
            chunks = array("H", (stream & ((1 << 16 * k) - 1)).to_bytes(2 * k, "little"))
            if sys.byteorder == "big":
                chunks.byteswap()
            j = k
            if rest and cut in chunks:
                j = chunks.index(cut)
            decided = bytes(map(cut.__gt__, chunks[:j])).translate(_BIT_CHARS)[::-1]
            mask |= int(decided or b"0", 2) << done
            used = 16 * min(j + 1, k)
            words = max(0, -(-(used - bufbits) // 64))
            self.state = (self.state + words * _GAMMA) & _MASK
            self._bufbits = bufbits + 64 * words - used
            self._buf = (stream >> used) & ((1 << self._bufbits) - 1)
            if j < k:
                mask |= self._below(rest, den) << (done + j)
            done += j + 1
        return mask

    def shuffle(self, seq: list) -> None:
        """In-place Fisher-Yates; every permutation equiprobable."""
        for i in range(len(seq) - 1, 0, -1):
            j = self.randrange(i + 1)
            seq[i], seq[j] = seq[j], seq[i]
