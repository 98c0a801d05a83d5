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

Long draws run word-parallel. The i-th next state is state + i*gamma
mod 2^64, so ``_words`` puts up to ``_LANES`` of them into the 128-bit
lanes of one int, as ``state * ONES + gamma * STEPS`` masked to the low
64 bits of every lane, and runs each mix64 round on all lanes with one
big-int shift, xor and multiply, masking every lane to 64 bits before
and after the multiply. This is exact: a lane holds state + i*gamma <
2^74 before its mask and a product of two 64-bit values after the
multiply, both below 2^128, so no carry crosses into the next lane; the
bits a right shift moves down from the lane above land at lane bits 97
and up, which the mask clears before the multiply and the final gather
(the low 8 bytes of every 16) drops. Each output is therefore the word
``next_u64`` would have returned. A refill of at most three words keeps
the scalar ``next_u64`` loop, which is cheaper there than building lanes.

Short draws in a loop run on local state. The two draw rules that loops
repeat are module helpers that take the stream as ``(state, buf,
bufbits)`` and return it advanced: ``_randbelow``, the rejection draw of
a uniform int below a bound, and ``_fisher_yates``, one in-place shuffle.
A caller copies the generator's three fields into locals, draws through
the helpers and stores the fields back once, so the stream is word for
word the one that single calls would read. ``shuffle`` does this for one
shuffle; ``subset_draws`` does it for a whole stream of shuffle-based
draws, and stores the fields back when the stream is closed.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from functools import lru_cache

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
#: Words per block of the lane kernel: lane constants and peak memory stay
#: fixed however many words a draw needs.
_LANES = 512
_ONES = int.from_bytes((b"\1" + bytes(15)) * _LANES, "little")
_LOW = int.from_bytes((b"\xff" * 8 + bytes(8)) * _LANES, "little")
_STEPS = int.from_bytes(
    b"".join((i * _GAMMA).to_bytes(16, "little") for i in range(1, _LANES + 1)), "little"
)
#: A lane's bit 16 to its draw's digit: 0 means the chunk is below the cut.
_DECIDED = bytes.maketrans(b"\0\1", b"10")


def mix64(z: int) -> int:
    """SplitMix64 finalizer: avalanche a 64-bit word."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _words(state: int, count: int) -> bytes:
    """The next ``count`` outputs of a generator in ``state``, 8
    little-endian bytes each, computed ``_LANES`` at a time in 128-bit
    lanes (see the module docstring for why this is exact)."""
    out = []
    for start in range(0, count, _LANES):
        lanes = min(_LANES, count - start)
        ones, steps, low = _ONES, _STEPS, _LOW
        if lanes < _LANES:
            keep = (1 << 128 * lanes) - 1
            ones, steps, low = ones & keep, steps & keep, low & keep
        z = (state * ones + steps) & low
        z = (z ^ z >> 30 & low) * 0xBF58476D1CE4E5B9 & low
        z = (z ^ z >> 27 & low) * 0x94D049BB133111EB & low
        z ^= z >> 31
        # every other 8-byte item, copied verbatim: the low half of each lane
        out.append(memoryview(z.to_bytes(16 * lanes, "little")).cast("Q")[::2].tobytes())
        state = (state + lanes * _GAMMA) & _MASK
    return b"".join(out)


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


def _first_chunk(raw: bytes, chunk: bytes) -> int:
    """Index of the first 16-bit chunk of ``raw`` equal to ``chunk``, or
    the number of chunks if there is none."""
    at = raw.find(chunk)
    while at > 0 and at & 1:
        at = raw.find(chunk, at + 1)
    return at >> 1 if at >= 0 else len(raw) >> 1


@lru_cache(maxsize=64)
def _shuffle_steps(length: int) -> tuple[tuple[int, int, int], ...]:
    """(i, 2^k - 1, k) with k = i.bit_length(), for i = length - 1 down to
    1: the Fisher-Yates steps of a list of this length."""
    return tuple((i, (1 << i.bit_length()) - 1, i.bit_length()) for i in range(length - 1, 0, -1))


def _randbelow(bound: int, state: int, buf: int, bufbits: int) -> tuple[int, int, int, int]:
    """A uniform int in [0, bound), unbiased by rejection: draw
    (bound - 1).bit_length() bits from the buffer, refilled one ``mix64``
    word at a time, until they are below ``bound``. Returns the int and
    the advanced ``(state, buf, bufbits)``; a bound of 1 draws nothing."""
    if bound < 1:
        raise ValueError("bound must be positive")
    k = (bound - 1).bit_length()
    low = (1 << k) - 1
    while True:
        while bufbits < k:
            state = (state + _GAMMA) & _MASK
            buf |= mix64(state) << bufbits
            bufbits += 64
        r = buf & low
        buf >>= k
        bufbits -= k
        if r < bound:
            return r, state, buf, bufbits


def _fisher_yates(seq: list, state: int, buf: int, bufbits: int) -> tuple[int, int, int]:
    """Shuffle ``seq`` in place and return the advanced ``(state, buf,
    bufbits)``. Position i, from the last down to 1, swaps with a
    ``_randbelow(i + 1)`` draw, written out here with each step's bound,
    mask and width from ``_shuffle_steps``."""
    for i, low, k in _shuffle_steps(len(seq)):
        while True:
            while bufbits < k:
                state = (state + _GAMMA) & _MASK
                buf |= mix64(state) << bufbits
                bufbits += 64
            j = buf & low
            buf >>= k
            bufbits -= k
            if j <= i:
                break
        seq[i], seq[j] = seq[j], seq[i]
    return state, buf, bufbits


def _nth_bit(x: int, i: int) -> int:
    """The i-th lowest one bit of x (from 0), as a one-bit mask."""
    for _ in range(i):
        x &= x - 1
    return x & -x


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
        a full word each). A refill of more than three words comes from
        the lane kernel, a shorter one from ``next_u64``."""
        words = (k - self._bufbits + 63) >> 6
        if words > 3:
            self._buf |= int.from_bytes(_words(self.state, words), "little") << self._bufbits
            self._bufbits += 64 * words
            self.state = (self.state + words * _GAMMA) & _MASK
        while self._bufbits < k:
            self._buf |= self.next_u64() << self._bufbits
            self._bufbits += 64
        out = self._buf & ((1 << k) - 1)
        self._buf >>= k
        self._bufbits -= k
        return out

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
        """``count`` draws, each True with probability exactly p (a
        Fraction in [0, 1]), as one int: bit i is the i-th draw, and the
        generator ends as after drawing them one by one, buffer included.

        A draw's first 16-bit chunk v decides it (True iff v < cut, where
        cut = floor(p * 2^16)) unless p * 2^16 is not an integer and v ==
        cut. So the chunks of up to ``4 * _LANES`` draws at a time come
        from the lane kernel, and are decided all at once: each chunk is
        copied into a 32-bit lane of one int, 2^16 - cut is added to every
        lane, and bit 16 of a lane is then set exactly when v >= cut. At a
        boundary chunk the stream is rewound to just after it, that draw
        is finished exactly, and the rest start again from there.
        """
        num, den = _probability(p)
        if num == 0 or count <= 0:
            return 0
        if num == den:
            return (1 << count) - 1
        cut, rest = divmod(num << 16, den)
        boundary = cut.to_bytes(2, "little")
        lift = (0x10000 - cut).to_bytes(4, "little")
        digits = []  # per block, its draws' digits, last draw first
        done = 0
        while done < count:
            k = min(count - done, 4 * _LANES)
            buf, bufbits = self._buf, self._bufbits
            words = max(0, -(-(16 * k - bufbits) // 64))
            stream = buf | int.from_bytes(_words(self.state, words), "little") << bufbits
            raw = (stream & ((1 << 16 * k) - 1)).to_bytes(2 * k, "little")
            j = _first_chunk(raw, boundary) if rest else k
            lanes = bytearray(4 * j)
            lanes[0::4] = raw[0 : 2 * j : 2]
            lanes[1::4] = raw[1 : 2 * j : 2]
            lifted = int.from_bytes(lanes, "little") + int.from_bytes(lift * j, "little")
            digits.append(lifted.to_bytes(4 * j, "big")[1::4].translate(_DECIDED))
            used = 16 * min(j + 1, k)
            words = max(0, -(-(used - bufbits) // 64))
            self.state = (self.state + words * _GAMMA) & _MASK
            self._bufbits = bufbits + 64 * words - used
            self._buf = (stream >> used) & ((1 << self._bufbits) - 1)
            if j < k:
                digits.append(b"1" if self._below(rest, den) else b"0")
            done += min(j + 1, k)
        return int(b"".join(reversed(digits)) or b"0", 2)

    def shuffle(self, seq: list) -> None:
        """In-place Fisher-Yates; every permutation equiprobable. Runs
        ``_fisher_yates`` on a local copy of the state and buffer, which
        is stored back once."""
        self.state, self._buf, self._bufbits = _fisher_yates(seq, self.state, self._buf, self._bufbits)

    def subset_draws(self, outside: list[int], m: int, base: int, n: int) -> Iterator[int]:
        """An endless stream of masks over [n]: each is ``base`` plus the
        first m one-bit masks of ``outside`` (disjoint from ``base``) after
        a Fisher-Yates shuffle of them, the shuffles running on in one
        copy of the list. From the second mask on, a 2-bit coin is drawn;
        at 0, when the mask has k >= 1 one bits and n - k >= 1 zero bits,
        its ``_randbelow(k)``-th one bit (ascending) is swapped for its
        ``_randbelow(n - k)``-th zero bit below 2^n.

        The draws run on a local copy of the state and buffer, stored
        back when the stream is closed (or collected); the generator then
        ends exactly as after the same shuffles and rejection draws made
        one call at a time. Draw nothing else from it until then."""
        outside = list(outside)
        k = base.bit_count() + m
        full = (1 << n) - 1
        swaps = 0 < k < n
        state, buf, bufbits = self.state, self._buf, self._bufbits
        try:
            state, buf, bufbits = _fisher_yates(outside, state, buf, bufbits)
            yield base + sum(outside[:m])
            while True:
                state, buf, bufbits = _fisher_yates(outside, state, buf, bufbits)
                s = base + sum(outside[:m])
                # the coin, _randbelow(4) written out: 2 bits, never rejected
                if bufbits < 2:
                    state = (state + _GAMMA) & _MASK
                    buf |= mix64(state) << bufbits
                    bufbits += 64
                coin = buf & 3
                buf >>= 2
                bufbits -= 2
                if not coin and swaps:
                    i, state, buf, bufbits = _randbelow(k, state, buf, bufbits)
                    j, state, buf, bufbits = _randbelow(n - k, state, buf, bufbits)
                    s ^= _nth_bit(s, i) | _nth_bit(full ^ s, j)
                yield s
        finally:
            self.state, self._buf, self._bufbits = state, buf, bufbits
