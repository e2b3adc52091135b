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
number generation with arbitrary strides").  Every log and cos carries
libm's exact bits, so the output equals the scalar MMIX/Box-Muller loop over
`math.log` and `math.cos` in tests/test_rng.py byte for byte:

- cos is numpy's float64 `np.cos`.  On x86-64 glibc (numpy 2.4 measured)
  that loop calls libm's own `cos` once per value, with no SIMD kernel;
  tests/test_rng.py checks it against `math.cos` on 10^6 stream angles, so
  a numpy whose cos differs fails there.
- log is not numpy's float64 `np.log`, whose SIMD kernel differs from libm
  in the last bit on ~0.35% of draws.  Where long double is x87 extended
  precision (`_X87`: a 64-bit significand with an explicit integer bit),
  each block takes wide = logl(u1), rounds it to h = float64(wide), and
  keeps h where the 11 significand bits that the rounding drops, r (the
  significand mod 2^11), decide it (`_log_accepted`).  The proof is the
  bound glibc's log gives: it misses the true log t by at most
  (1/2 + 4.13/128) ulp (e_log.c), so it returns h wherever t lies within
  (1/2 - 0.05) ulp of h.  In units of 2^(E-63), wide's own ulp at exponent
  E, a double ulp of h is 2048, |wide - h| is min(r, 2048 - r), and logl's
  error, at most 4 long double ulps of |h| <= 2^(E+1), is at most 8.  So
  |r - 1024| >= _LOG_K = 111, i.e. min(r, 2048 - r) <= 913, puts t within
  921 < 0.45 * 2048 = 921.6 units of h.  A round up that carries into the
  next binade makes h a power of two whose spacing toward zero is still
  2048 units; a round down onto a power of two halves that spacing, so
  significands below 2^63 + 2^11 (those, and wide = 0 from u = 1.0, whose
  integer bit is 0) are not accepted.  The other ~10.8% of logs go through
  `math.log` one value at a time.  Where long double is not x87 extended
  (binary128, or plain double) every log goes through `math.log`, with the
  same bytes; that speed is unmeasured.

Each block's uniforms are drawn in place, in the one new array a block
allocates: its states are multiplied into it, then the add and the shift
by 11 run in place.  A shifted state is below 2^53, so its int64 view
reads the same integer, and the cast of that view onto the float64 view of
the same memory is exact; each element is read before it is written over,
at the same address and width.  Then + 0.5 and * 2^-53 in place give the
bits of ((state >> 11) + 0.5) * 2^-53, with no second array per block.

Blocks bound the memory held beside the output array.  A stream
can start anywhere: `_jump` moves the seed ahead by binary powering of the
step map mod 2^64, so normal_stream(seed, count, first) is the slice
[first, first + count) of the one stream without drawing what precedes it.

A seed is an int (not a bool) in [0, 2^64), the LCG's state space; anything
else raises ValueError rather than being reduced to some other seed.
"""

import functools
import math

import numpy as np

_A = 6364136223846793005
_C = 1442695040888963407
_TWO_PI = 6.283185307179586476925287
_INV_2_53 = 1.0 / 9007199254740992.0  # 2**-53
_MASK = (1 << 64) - 1
BLOCK = 1 << 15  # LCG states per block; even, so a normal never spans two
# long double is x87 extended precision in 16 little-endian bytes: the
# significand in the first 8, sign and exponent in the next 2
_X87 = np.finfo(np.longdouble).nmant == 63 and np.longdouble().itemsize == 16 and np.little_endian
_LOG_K = 111  # accept rounded logl where |r - 1024| >= _LOG_K (module docstring)


def check_seed(seed):
    """Return seed if it is an int (not a bool) in [0, 2**64); else ValueError."""
    if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    return seed


def _nonnegative_int(name, value):
    """Return value if it is an int (not a bool) >= 0; else ValueError naming it."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ValueError(f"{name} must be an integer >= 0, got {value!r}")
    return value


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


def _jump(state, steps):
    """The LCG state `steps` steps after `state`, in exact integer arithmetic.

    Squares the one-step map x -> A x + C once per bit of steps and
    composes the squares whose bit is set.
    """
    mult, add = 1, 0  # the map of the steps taken so far
    sq_mult, sq_add = _A, _C  # the map of 2^j steps
    while steps:
        if steps & 1:
            mult, add = (sq_mult * mult) & _MASK, (sq_mult * add + sq_add) & _MASK
        sq_mult, sq_add = (sq_mult * sq_mult) & _MASK, (sq_mult * sq_add + sq_add) & _MASK
        steps >>= 1
    return (mult * state + add) & _MASK


def _uniform_blocks(seed, count, first=0):
    """Yield uniforms first .. first+count-1 after seed, at most BLOCK per array."""
    state = np.uint64(_jump(check_seed(seed), first))
    mult, add = _jump_table()
    for start in range(0, count, BLOCK):
        size = min(BLOCK, count - start)
        states = mult[:size] * state  # the block's one new array
        states += add[:size]
        state = states[-1]
        states >>= np.uint64(11)
        u = states.view(np.float64)  # in place, exactly (module docstring)
        np.copyto(u, states.view(np.int64))
        yield np.multiply(np.add(u, 0.5, out=u), _INV_2_53, out=u)


def uniform_stream(seed, count):
    """Uniform (0,1) draws as a float64 array; identical seed, identical bytes."""
    out = np.empty(_nonnegative_int("count", count), dtype=np.float64)
    for start, u in zip(range(0, len(out), BLOCK), _uniform_blocks(seed, len(out))):
        out[start:start + BLOCK] = u
    return out


def normal_stream(seed, count, first=0):
    """Standard normal draws first .. first+count-1 of seed's stream, as float64.

    Identical arguments, identical bytes; the draws equal those at the same
    places of normal_stream(seed, first + count).
    """
    _nonnegative_int("first", first)
    out = np.empty(_nonnegative_int("count", count), dtype=np.float64)
    blocks = _uniform_blocks(seed, 2 * len(out), 2 * first)
    for start, u in zip(range(0, len(out), BLOCK // 2), blocks):
        z = out[start:start + BLOCK // 2]  # in place: 2 pi u2, its cos, times sqrt(-2 log u1)
        np.cos(np.multiply(_TWO_PI, u[1::2], out=z), out=z)
        radius = _log(u[0::2])
        z *= np.sqrt(np.multiply(radius, -2.0, out=radius), out=radius)
    return out


def _log(u):
    """libm's log of each u > 0, bit for bit: rounded logl where decided, else math.log."""
    if not _X87:
        return np.fromiter(map(math.log, u.tolist()), np.float64, len(u))
    wide = np.log(u, dtype=np.longdouble)
    out = wide.astype(np.float64)
    slow = np.flatnonzero(~_log_accepted(wide))
    out[slow] = np.fromiter(map(math.log, u[slow].tolist()), np.float64, len(slow))
    return out


def _log_accepted(wide):
    """Where float64(wide), wide being x87 logl's, is provably glibc's log.

    Reads each significand: the 11 bits that rounding to double drops must
    lie at least _LOG_K from the tie at 2^10, and the significand must be at
    least 2^63 + 2^11: below it wide is 0 or may round down onto a power of
    two (see the module docstring for the proof).
    """
    significand = wide.view(np.uint64)[0::2]
    # r outside 1024 ± (_LOG_K - 1): (r - (1025 - _LOG_K)) mod 2^11 > 2 _LOG_K - 2
    dropped = (significand - np.uint64(1025 - _LOG_K)) & np.uint64(2047)
    return (dropped > np.uint64(2 * _LOG_K - 2)) & (significand >= np.uint64(2**63 + 2**11))
