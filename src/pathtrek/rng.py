"""Deterministic variate streams: identical seed, identical bytes.

Generator: Knuth's MMIX linear congruential generator,
    state <- (6364136223846793005 * state + 1442695040888963407) mod 2^64
Uniforms take the top 53 bits offset by half an ulp, so u is in (0, 1)
exclusive.  Normals use the Box-Muller cosine branch, consuming exactly two
uniforms each: sqrt(-2 log u1) * cos(2 pi u2).

The stream is drawn with numpy, BLOCK states at a time.  State i of a block
is A^i * s + c_i mod 2^64, where s is the last state of the previous block
(the seed for the first) and the table of (A^i, c_i) is built on first use by
doubling in wrapping uint64 arithmetic (jump-ahead; Brown 1994, "Random
number generation with arbitrary strides").  log and cos come from `math`,
not numpy, whose SIMD kernels may differ from libm in the last bit, so the
output equals the scalar MMIX/Box-Muller loop in tests/test_rng.py byte for
byte.  Blocks bound the memory held beside the output array.
"""

import functools
import math

import numpy as np

_A = 6364136223846793005
_C = 1442695040888963407
_MASK = (1 << 64) - 1
_TWO_PI = 6.283185307179586476925287
_INV_2_53 = 1.0 / 9007199254740992.0  # 2**-53
BLOCK = 1 << 15  # LCG states per block; even, so a normal never spans two


@functools.cache
def _jump_table():
    """Arrays (A^i, c_i) mod 2^64, i = 1..BLOCK: state i after s is A^i*s + c_i."""
    mult = np.array([_A], dtype=np.uint64)
    add = np.array([_C], dtype=np.uint64)
    while len(mult) < BLOCK:
        # i steps after state L: A^i (A^L s + c_L) + c_i
        mult, add = (np.concatenate((mult, mult * mult[-1])),
                     np.concatenate((add, mult * add[-1] + add)))
    return mult, add


def _uniform_blocks(seed, count):
    """Yield the first count uniforms after seed, at most BLOCK per array."""
    mult, add = _jump_table()
    state = np.uint64(int(seed) & _MASK)
    for start in range(0, count, BLOCK):
        size = min(BLOCK, count - start)
        states = mult[:size] * state + add[:size]
        state = states[-1]
        yield ((states >> np.uint64(11)) + 0.5) * _INV_2_53


def uniform_stream(seed, count):
    """Uniform (0,1) draws as a float64 array; identical seed, identical bytes."""
    out = np.empty(int(count), dtype=np.float64)
    start = 0
    for u in _uniform_blocks(seed, len(out)):
        out[start:start + len(u)] = u
        start += len(u)
    return out


def normal_stream(seed, count):
    """Standard normal draws as a float64 array; identical seed, identical bytes."""
    out = np.empty(int(count), dtype=np.float64)
    start = 0
    for u in _uniform_blocks(seed, 2 * len(out)):
        log_u1 = np.fromiter(map(math.log, u[0::2].tolist()), np.float64)
        cos_u2 = np.fromiter(map(math.cos, (_TWO_PI * u[1::2]).tolist()), np.float64)
        out[start:start + len(log_u1)] = np.sqrt(-2.0 * log_u1) * cos_u2
        start += len(log_u1)
    return out
