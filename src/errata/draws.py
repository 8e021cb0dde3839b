"""Batched draws of ``synth.random_log`` for the theorem sweep.

``_fuzz_draws`` computes ``random_log``'s draws for many seeds at once
from numpy's algorithms (SeedSequence, PCG64, Lemire's bounded integers,
53-bit uniforms), equal bit for bit to numpy's own streams, without
building a generator per seed; ``_state_words`` computes a chunk of the
sweep's trial seeds from its master seed's pool. Only ``theorems.sweep``
imports this module, so the ``synth`` command does not compile it.
"""

from functools import cache

import numpy as np

# numpy's SeedSequence hashes its entropy words into a pool of four uint32
# words (hashmix j xors with _HASH_A[j] and multiplies by _HASH_A[j + 1];
# mix combines two words), and generate_state hashes pool word i % 4 into
# output word i with _INIT_B * _MULT_B**i mod 2**32.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32, _MASK64 = (1 << 32) - 1, (1 << 64) - 1
_HASH_A = [_INIT_A * pow(_MULT_A, j, 1 << 32) & _MASK32 for j in range(17)]
# PCG64 steps its 128-bit state s to s * _PCG_MULT + inc mod 2**128. The
# batched draws jump at most _JUMPS steps from a known state, so they draw
# a trial's uniforms at most _JUMPS at a time.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_JUMPS = 4096


def _hashmix(x, xor, mult):
    x = (x ^ xor) * mult
    return x ^ (x >> 16)


def _seed_pools(seeds):
    """``SeedSequence(s).pool`` of each s in the uint64 array ``seeds``, a
    column each of a 4-row uint32 array."""
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


def _state_words(pool, first: int, count: int):
    """uint64 words first, ..., first + count − 1 of
    ``SeedSequence.generate_state(n, np.uint64)`` on ``pool``: a uint32
    array of four rows, each a scalar or a column per trial. ``first`` may
    be any nonnegative int. uint64 word i joins uint32 words 2i (low) and
    2i + 1 (high)."""
    consts = np.full(2 * count + 1, _MULT_B, np.uint32)
    consts[0] = _INIT_B * pow(_MULT_B, 2 * first, 1 << 32) & _MASK32
    consts = np.multiply.accumulate(consts, dtype=np.uint32).reshape(-1, *[1] * (pool.ndim - 1))
    words = (pool[(np.arange(2 * count) + 2 * (first % 2)) % 4] ^ consts[:-1]) * consts[1:]
    words = (words ^ (words >> 16)).astype(np.uint64)
    return words[0::2] | words[1::2] << 32


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
    a = np.array([_PCG_MULT >> 64], np.uint64), np.array([_PCG_MULT & _MASK64], np.uint64)
    c = np.zeros(1, np.uint64), np.ones(1, np.uint64)
    while len(a[0]) < _JUMPS:  # h + s steps are s steps after h steps
        a_h, c_h = (a[0][-1:], a[1][-1:]), (c[0][-1:], c[1][-1:])
        c = tuple(map(np.concatenate, zip(c, _add128(_mul128(a, c_h), c))))
        a = tuple(map(np.concatenate, zip(a, _mul128(a, a_h))))
    for table in (*a, *c):
        table.flags.writeable = False  # shared by every call
    return (*a, *c)


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
    is element ``index`` of ``_fuzz_draw``'s ``rng.random(n * (2k + m))``.
    Every uniform of the other trials comes once."""
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
