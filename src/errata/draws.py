"""numpy's PCG64 streams, computed without ``numpy.random``.

errata draws every random number from the streams that numpy's
``Generator(PCG64(seed))`` would give, equal bit for bit, but computes them
itself from numpy's algorithms: the SeedSequence hash (``_pool`` for one
seed of any size, ``_seed_pools`` for a uint64 array of them), PCG64's
seeding, steps and XSL-RR output, Lemire's bounded integers on buffered
32-bit halves or 64-bit words (``_Stream.integers``) and 53-bit uniforms,
in lanes packed into one Python int (``_Stream.random``) or in lanes on
uint64 arrays (``_uniforms``). ``synth.generate`` draws with
``_Stream.random`` while numpy is unloaded and the log needs at most
``synth._INT_DRAWS`` uniforms, and otherwise with one ``_uniforms`` call,
so a process that has numpy loaded draws on arrays at any size;
``synth.random_log`` draws its sizes from a ``_Stream`` and then its
uniforms with ``_uniforms``. For the theorem sweep, ``_state_words``
computes a chunk of trial seeds from the master seed's pool, and
``_fuzz_draws`` computes ``random_log``'s draws for many seeds at once,
without a stream per seed. So no errata process imports ``numpy.random``,
and a stream of Python ints imports no numpy at all: only the functions
that build arrays import it.
"""

import sys
from functools import cache

# numpy's SeedSequence hashes its entropy words into a pool of four uint32
# words (hashmix j xors with _HASH_A[j] and multiplies by _HASH_A[j + 1];
# mix combines two words), and generate_state hashes pool word i % 4 into
# output word i with _INIT_B * _MULT_B**i mod 2**32.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_HASH_A = [_INIT_A * pow(_MULT_A, j, 1 << 32) & _MASK32 for j in range(17)]
# PCG64 steps its 128-bit state s to s * _PCG_MULT + inc mod 2**128. The
# batched draws jump at most _JUMPS steps from a known state, so they draw
# a trial's uniforms at most _JUMPS at a time; a single stream steps
# _LANES lanes _LANES states at a time.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_JUMPS = 4096
_LANES = 1 << 14
# On Python ints a stream steps _INT_LANES lanes at once, each lane's state
# in _LANE_BITS bits of one packed int: a state times a 128-bit multiplier,
# plus a 128-bit increment, stays below 2**256, so no lane carries into the
# next. memoryview.cast reads native words, and to_bytes in the native order
# puts a big-endian host's words last first.
_INT_LANES = 1 << 10
_LANE_BITS = 256
_WORD_ORDER = 1 if sys.byteorder == "little" else -1


def _hashmix(x, xor, mult):
    x = (x ^ xor) * mult
    return x ^ (x >> 16)


def _seed_pools(seeds):
    """``SeedSequence(s).pool`` of each s in the uint64 array ``seeds``, a
    column each of a 4-row uint32 array."""
    import numpy as np
    consts = np.array(_HASH_A, np.uint32)[:, None]
    # The entropy words are s's low and high halves (a seed below 2**32 has
    # one word, and the pool hashes a missing word as 0), then two zeros.
    pool = np.zeros((4, len(seeds)), np.uint32)
    pool[0], pool[1] = seeds.astype(np.uint32), (seeds >> 32).astype(np.uint32)
    pool = _hashmix(pool, consts[:4], consts[1:5])
    for src in range(4):
        # Each other word, in order, mixes in word src hashed anew.
        dst, j = [i for i in range(4) if i != src], 4 + 3 * src
        hashed = _hashmix(pool[src], consts[j:j + 3], consts[j + 1:j + 4])
        mixed = pool[dst] * _MIX_L - hashed * _MIX_R
        pool[dst] = mixed ^ (mixed >> 16)
    return pool


def _pool(seed: int) -> list[int]:
    """``SeedSequence(seed).pool`` of any nonnegative int, as Python ints.
    The entropy words are the seed's 32-bit words, low first (0 has one):
    hashed into four pool words (padded with zeros), mixed together, and
    then each word past the fourth mixed into every pool word in turn."""
    words = [seed >> 32 * i & _MASK32 for i in range(max(1, -(-seed.bit_length() // 32)))]
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value ^= const
        const = const * _MULT_A & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        x = (x * _MIX_L - y * _MIX_R) & _MASK32
        return x ^ x >> 16

    pool = [hashmix(word) for word in (words + [0] * 3)[:4]]
    for src in range(4):
        for dst in range(4):
            if dst != src:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


def _state_words(pool, first: int, count: int):
    """uint64 words first, ..., first + count − 1 of
    ``SeedSequence.generate_state(n, np.uint64)`` on ``pool``: a uint32
    array of four rows, each a scalar or a column per trial. ``first`` may
    be any nonnegative int. uint64 word i joins uint32 words 2i (low) and
    2i + 1 (high)."""
    import numpy as np
    consts = np.full(2 * count + 1, _MULT_B, np.uint32)
    consts[0] = _INIT_B * pow(_MULT_B, 2 * first, 1 << 32) & _MASK32
    consts = np.multiply.accumulate(consts, dtype=np.uint32).reshape(-1, *[1] * (pool.ndim - 1))
    words = (pool[(np.arange(2 * count) + 2 * (first % 2)) % 4] ^ consts[:-1]) * consts[1:]
    words = (words ^ (words >> 16)).astype(np.uint64)
    return words[0::2] | words[1::2] << 32


def _seeded(seed: int) -> tuple[int, int]:
    """The 128-bit state and increment of numpy's ``PCG64(seed)``, for any
    nonnegative int. uint64 words 0 and 1 of the seed's ``generate_state``
    are the seed value, words 2 and 3 the stream; PCG64's srandom takes the
    odd increment from the stream, steps from state 0, adds the seed value
    and steps again. generate_state hashes pool word i % 4 into uint32
    word i, as ``_state_words`` does on arrays."""
    pool, const, halves = _pool(seed), _INIT_B, []
    for i in range(8):
        x = pool[i % 4] ^ const
        const = const * _MULT_B & _MASK32
        x = x * const & _MASK32
        halves.append(x ^ x >> 16)
    words = [low | high << 32 for low, high in zip(halves[0::2], halves[1::2])]
    inc = (words[2] << 65 | words[3] << 1 | 1) & _MASK128
    return (((words[0] << 64 | words[1]) + inc) * _PCG_MULT + inc) & _MASK128, inc


class _Stream:
    """The bounded integers of numpy's ``Generator(PCG64(seed))``, on
    Python ints: the 128-bit ``state`` and ``inc``, and ``half``, the high
    half of the last output while a 32-bit draw has used only its low
    half (None otherwise). A 64-bit draw leaves ``half`` as it is."""

    def __init__(self, seed: int):
        self.state, self.inc = _seeded(seed)
        self.half = None

    def _next64(self) -> int:
        """Step the state, then PCG64's XSL-RR output of the new state."""
        self.state = (self.state * _PCG_MULT + self.inc) & _MASK128
        high = self.state >> 64
        x, rot = (high ^ self.state) & _MASK64, high >> 58
        return (x >> rot | x << (64 - rot)) & _MASK64

    def random(self, count: int) -> list[float]:
        """``Generator.random(count)``: each uniform takes the top 53 bits
        of a 64-bit output. A buffered half stays buffered, as in numpy.
        Lane r of at most _INT_LANES lanes starts at the state of output r,
        the lanes filled by doubling as in ``_uniforms``; then every lane
        steps _INT_LANES states at once. The last output's state is kept."""
        out = []
        if not count:
            return out
        lanes = min(count, _INT_LANES)
        ones = int.from_bytes(b"\1".ljust(_LANE_BITS // 8, b"\0") * lanes, "little")  # 1 in each lane
        a, c, width = _PCG_MULT, self.inc, 1  # s → a·s + c steps width states on
        packed = (self.state * a + c) & _MASK128
        while width < lanes:
            more = min(width, lanes - width)
            some = ones >> _LANE_BITS * (lanes - more)  # 1 in each of the first `more` lanes
            head = packed & (1 << _LANE_BITS * more) - 1
            packed |= (head * a + c * some & _MASK128 * some) << _LANE_BITS * width
            a, c, width = a * a & _MASK128, c * (a + 1) & _MASK128, 2 * width
        step, mask = c * ones, _MASK128 * ones
        # XSL-RR of every lane: word 0 its x = high ^ low, word 1 its
        # rotation (high >> 58) plus the 11 bits a uniform drops.
        low, rotation, dropped = _MASK64 * ones, (63 << 64) * ones, (11 << 64) * ones
        for first in range(0, count, lanes):
            if first:  # only when lanes == _INT_LANES, a power of two: a and c step that many states
                packed = packed * a + step & mask
            block = ((packed >> 64 ^ packed) & low | packed >> 58 & rotation) + dropped
            words = memoryview(block.to_bytes(lanes * _LANE_BITS // 8, sys.byteorder)).cast("Q")[::_WORD_ORDER]
            # A lane is four words. x · (2**64 + 1) holds x twice, so shifting
            # it right by the rotation rotates x, and by 11 more leaves its
            # top 53 bits.
            out += [(x * ((1 << 64) + 1) >> s & (1 << 53) - 1) * 2.0 ** -53
                    for x, s in zip(words[:4 * (count - first):4], words[1::4])]
        self.state = packed >> _LANE_BITS * ((count - 1) % lanes) & _MASK128
        return out

    def _next32(self) -> int:
        if self.half is None:
            out = self._next64()
            self.half = out >> 32
            return out & _MASK32
        half, self.half = self.half, None
        return half

    def integers(self, low: int, high: int) -> int:
        """``Generator.integers(low, high)`` with int64 bounds (high
        excluded). A range of one value draws nothing; a range of at most
        2**32 values takes 32-bit draws, a wider one 64-bit draws. Lemire's
        method scales a draw by the range and rejects it while the low word
        of the product falls below 2**bits mod the range (never, for a
        range of exactly 2**bits)."""
        if high > 1 << 63:
            raise ValueError("high is out of bounds for int64")
        span = high - low
        if span == 1:
            return low
        bits, draw = (32, self._next32) if span <= 1 << 32 else (64, self._next64)
        product = draw() * span
        while product & ((1 << bits) - 1) < (1 << bits) % span:
            product = draw() * span
        return low + (product >> bits)


def _mul128(a, b):
    """a × b mod 2**128 of (high, low) pairs of uint64 arrays."""
    (ah, al), (bh, bl) = a, b
    a0, a1, b0, b1 = al & _MASK32, al >> 32, bl & _MASK32, bl >> 32
    # The high word of al × bl from four 32-bit products (none overflows).
    mid = a1 * b0 + (a0 * b0 >> 32)
    carry = (mid & _MASK32) + a0 * b1
    high = a1 * b1 + (mid >> 32) + (carry >> 32) + ah * bl + al * bh
    return high, al * bl


def _add128(a, b):
    low = a[1] + b[1]
    return a[0] + b[0] + (low < b[1]), low


def _jump(jumps, r, state, inc):
    """The states r + 1 PCG64 steps on from ``state``: A[r]·state + C[r]·inc."""
    a_hi, a_lo, c_hi, c_lo = jumps
    return _add128(_mul128((a_hi[r], a_lo[r]), state), _mul128((c_hi[r], c_lo[r]), inc))


def _pcg_output(state):
    """PCG64's XSL-RR output of each 128-bit state."""
    x, rot = state[0] ^ state[1], state[0] >> 58
    return (x >> rot) | (x << ((64 - rot) & 63))


@cache
def _jumps() -> tuple:
    """A and C of 1, ..., _JUMPS PCG64 steps, as high and low uint64
    arrays (A high, A low, C high, C low): r + 1 steps take a state s to
    A[r]·s + C[r]·inc."""
    import numpy as np
    a = np.array([_PCG_MULT >> 64], np.uint64), np.array([_PCG_MULT & _MASK64], np.uint64)
    c = np.zeros(1, np.uint64), np.ones(1, np.uint64)
    while len(a[0]) < _JUMPS:  # h + s steps are s steps after h steps
        a_h, c_h = (a[0][-1:], a[1][-1:]), (c[0][-1:], c[1][-1:])
        c = tuple(map(np.concatenate, zip(c, _add128(_mul128(a, c_h), c))))
        a = tuple(map(np.concatenate, zip(a, _mul128(a, a_h))))
    for table in (*a, *c):
        table.flags.writeable = False  # shared by every call
    return (*a, *c)


def _words(x: int):
    """A 128-bit int as its (high, low) uint64 words, one-element arrays."""
    import numpy as np
    return np.array([x >> 64], np.uint64), np.array([x & _MASK64], np.uint64)


def _uniforms(state: int, inc: int, count: int):
    """The next ``count`` uniforms of the PCG64 stream at the 128-bit
    ``state`` with increment ``inc``, as ``Generator.random(count)`` draws
    them: a float64 array. Each uniform steps the state and takes the top
    53 bits of its output. Lane r of at most _LANES lanes starts at the
    state of output r, r + 1 steps on, each half of the lanes jumped from
    the half before; then every lane steps _LANES states at once."""
    import numpy as np
    out = np.empty(count)
    if not count:
        return out
    lanes = min(count, _LANES)
    hi, lo = np.empty(lanes, np.uint64), np.empty(lanes, np.uint64)
    a, c, width = _PCG_MULT, inc, 1  # s → a·s + c steps width states on
    hi[:1], lo[:1] = _words((state * a + c) & _MASK128)
    while width < lanes:
        more = min(width, lanes - width)
        hi[width:width + more], lo[width:width + more] = _add128(
            _mul128(_words(a), (hi[:more], lo[:more])), _words(c))
        a, c, width = a * a & _MASK128, c * (a + 1) & _MASK128, 2 * width
    for first in range(0, count, lanes):
        if first:  # only when lanes == _LANES, a power of two: a and c step _LANES states
            hi, lo = _add128(_mul128(_words(a), (hi, lo)), _words(c))
        x = _pcg_output((hi, lo))
        x >>= 11
        np.multiply(x[:count - first], 2.0 ** -53, out=out[first:first + lanes])
    return out


def _fuzz_draws(seeds, max_records: int, max_labels: int, max_conditions: int):
    """``_fuzz_draw``'s draws for each seed of the uint64 array ``seeds``,
    from numpy's algorithms (SeedSequence, PCG64, Lemire's bounded
    integers, 53-bit uniforms) without building a generator.

    Returns n, k and m (int64 arrays), ``redraw`` and ``rounds``.
    ``redraw`` marks the trials whose bounded draw numpy rejects and
    repeats, and every trial when a bound needs more than a 32-bit draw;
    their n, k and m are placeholders, and ``_fuzz_draw`` must draw them.
    ``rounds`` yields (trials, index, uniforms) arrays, at most ``_JUMPS``
    uniforms of each trial a round: uniform ``index`` of trial ``trials``
    is uniform ``index`` of the n · (2k + m) that ``_fuzz_draw`` draws.
    Every uniform of the other trials comes once."""
    import numpy as np
    jumps = _jumps()
    trials = len(seeds)
    ranges = (max_records, max_labels, max_conditions + 1)  # of n, k and m
    if max(ranges) > _MASK32:
        ones = np.ones(trials, np.int64)
        return ones, ones, ones, np.ones(trials, bool), iter(())
    words = _state_words(_seed_pools(seeds), 0, 4)
    # PCG64's srandom: inc is the odd stream word; the state steps from 0
    # to inc, adds the seed word and steps again to the seeded state. So
    # r + 1 steps on from that sum is the seeded state (r = 0), then the
    # state of output r − 1.
    inc = words[2] << 1 | words[3] >> 63, words[3] << 1 | 1
    start = _add128((words[0], words[1]), inc)
    # Each drawn bound takes the next 32-bit half, low half first, of the
    # first outputs; a range of 1 draws nothing.
    drawn = sum(r > 1 for r in ranges)
    states = _jump(jumps, np.arange((drawn + 1) // 2 + 1)[:, None], start, inc)
    heads = _pcg_output((states[0][1:], states[1][1:]))
    halves = [half for out in heads for half in (out & _MASK32, out >> 32)]
    values, redraw = [], np.zeros(trials, bool)
    for r in ranges:
        if r == 1:
            values.append(np.zeros(trials, np.int64))
            continue
        x = halves.pop(0) * r
        values.append((x >> 32).astype(np.int64))
        redraw |= (x & _MASK32) < (1 << 32) % r  # numpy's Lemire rejection
    n, k, m = values[0] + 1, values[1] + 1, values[2]
    sizes = np.where(redraw, 0, n * (2 * k + m))
    most = int(sizes.max(initial=0))

    def rounds(state):
        for first in range(0, most, _JUMPS):
            count = np.clip(sizes - first, 0, _JUMPS)
            trial = np.repeat(np.arange(trials), count)
            r = np.arange(len(trial)) - np.repeat(np.cumsum(count) - count, count)
            inc_t = inc[0][trial], inc[1][trial]
            out = _pcg_output(_jump(jumps, r, (state[0][trial], state[1][trial]), inc_t))
            yield trial, first + r, (out >> 11) * 2.0 ** -53
            if first + _JUMPS < most:
                state = _jump(jumps, slice(_JUMPS - 1, None), state, inc)

    return n, k, m, redraw, rounds((states[0][-1], states[1][-1]))
