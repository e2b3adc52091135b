"""Deterministic stream: golden values, moments, and byte equality with a
scalar reference loop."""

import functools
import math

import numpy as np
import pytest

from pathtrek import rng


# Scalar reference: Knuth's MMIX LCG, top 53 bits plus half an ulp for
# uniforms, the Box-Muller cosine branch (two uniforms each) for normals.
_A = 6364136223846793005
_C = 1442695040888963407
_MASK = (1 << 64) - 1
_TWO_PI = 6.283185307179586476925287
_INV_2_53 = 1.0 / 9007199254740992.0


def reference_uniforms(seed, count):
    state = seed & _MASK
    out = []
    for _ in range(count):
        state = (_A * state + _C) & _MASK
        out.append(((state >> 11) + 0.5) * _INV_2_53)
    return out


def reference_normals(seed, count):
    u = reference_uniforms(seed, 2 * count)
    return [math.sqrt(-2.0 * math.log(u1)) * math.cos(_TWO_PI * u2)
            for u1, u2 in zip(u[0::2], u[1::2])]


# Counts straddle the block edges (BLOCK = 2**15 states; a normal takes two).
REFERENCE_COUNTS = (0, 1, 2, 3, 7, 1000, 32767, 32768, 32769, 65537, 200001)
REFERENCE_SEEDS = (0, 1, 42, 12345, 123456789, 2 ** 64 - 1)


@functools.cache
def reference_bytes(kind, seed):
    draws = {"uniform": reference_uniforms, "normal": reference_normals}[kind]
    return np.array(draws(seed, max(REFERENCE_COUNTS)), dtype=np.float64).tobytes()


# First draws of the stream, frozen exactly.
GOLDEN_NORMALS_SEED_12345 = [
    -0.20296894248883945,
    0.2528566229590236,
    -1.3911555478297175,
    -0.5275802874472227,
]


def test_normal_stream_golden():
    assert rng.normal_stream(12345, 4).tolist() == GOLDEN_NORMALS_SEED_12345


def test_same_seed_same_bytes():
    a = rng.normal_stream(77, 5000)
    b = rng.normal_stream(77, 5000)
    assert a.tobytes() == b.tobytes()


def test_different_seeds_differ():
    assert rng.normal_stream(1, 100).tolist() != rng.normal_stream(2, 100).tolist()


def test_prefix_property():
    # a longer stream starts with the shorter one: single sequential stream
    short = rng.normal_stream(9, 100)
    long = rng.normal_stream(9, 1000)
    assert np.array_equal(long[:100], short)


def test_uniforms_in_open_interval():
    u = rng.uniform_stream(3, 20000)
    assert u.min() > 0.0
    assert u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.01


def test_normal_moments():
    z = rng.normal_stream(5, 100000)
    assert abs(z.mean()) < 0.02
    assert abs(z.std(ddof=1) - 1.0) < 0.02


@pytest.mark.parametrize("seed", [2 ** 64, -1, 1.7, True])
@pytest.mark.parametrize("kind", ["uniform", "normal"])
def test_stream_rejects_seed_outside_64_bits(kind, seed):
    # reducing these would give another seed's stream: 0, 2**64 - 1, 1 and 1
    stream = {"uniform": rng.uniform_stream, "normal": rng.normal_stream}[kind]
    with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
        stream(seed, 4)


@pytest.mark.parametrize("seed", REFERENCE_SEEDS)
@pytest.mark.parametrize("kind", ["uniform", "normal"])
def test_stream_matches_reference(kind, seed):
    stream = {"uniform": rng.uniform_stream, "normal": rng.normal_stream}[kind]
    expected = reference_bytes(kind, seed)
    for count in REFERENCE_COUNTS:
        got = stream(seed, count)
        assert got.dtype == np.float64
        assert got.tobytes() == expected[:8 * count], count


def reference_state(seed, steps):
    state = seed
    for _ in range(steps):
        state = (_A * state + _C) & _MASK
    return state


@pytest.mark.parametrize("seed", REFERENCE_SEEDS)
def test_jump_matches_reference_loop(seed):
    for steps in (0, 1, 2, 3, 7, 1000, 32767, 32768, 32769, 65537):
        assert rng._jump(seed, steps) == reference_state(seed, steps), steps


@pytest.mark.parametrize("seed", REFERENCE_SEEDS)
def test_far_jumps_compose(seed):
    a, b = (1 << 40) + 12345, (1 << 40) - 6789
    assert rng._jump(rng._jump(seed, a), b) == rng._jump(seed, a + b)
    assert rng._jump(rng._jump(seed, b), a) == rng._jump(seed, a + b)
    # c odd and A - 1 divisible by 4: the LCG's period is the full 2**64
    assert rng._jump(seed, 1 << 64) == seed
    assert rng._jump(seed, (1 << 64) + 5) == rng._jump(seed, 5)


# Draw offsets and counts straddling the block edges (BLOCK states, BLOCK / 2 normals).
OFFSET_FIRSTS = (0, 1, 16383, 16384, 16385, 32767, 32768, 40000)
OFFSET_COUNTS = (0, 1, 2, 16383, 16384, 16385, 32769)


@pytest.mark.parametrize("seed", (0, 42, 2 ** 64 - 1))
def test_normal_stream_from_an_offset_is_a_slice(seed):
    full = rng.normal_stream(seed, max(OFFSET_FIRSTS) + max(OFFSET_COUNTS))
    for first in OFFSET_FIRSTS:
        for count in OFFSET_COUNTS:
            got = rng.normal_stream(seed, count, first)
            assert got.tobytes() == full[first:first + count].tobytes(), (first, count)


def test_normal_stream_far_offset_matches_jumped_seed():
    # normal i takes states 2i+1 and 2i+2 after the seed
    first = 1 << 40
    jumped = rng._jump(7, 2 * first)
    assert rng.normal_stream(7, 5, first).tobytes() == rng.normal_stream(jumped, 5).tobytes()


@pytest.mark.parametrize("first", [-1, 1.0, True, "3", None])
def test_normal_stream_rejects_bad_offset(first):
    with pytest.raises(ValueError, match="first must be an integer >= 0"):
        rng.normal_stream(1, 4, first)


@pytest.mark.parametrize("count", [2.7, 2.0, True, -1, "3", None])
@pytest.mark.parametrize("kind", ["uniform", "normal"])
def test_stream_rejects_bad_count(kind, count):
    # int() would turn 2.7 into 2 draws and True into 1
    stream = {"uniform": rng.uniform_stream, "normal": rng.normal_stream}[kind]
    with pytest.raises(ValueError, match="count must be an integer >= 0"):
        stream(1, count)


# Oracles for the vectorized log and cos: libm's bits through `math`, one
# value at a time, on a million draws.
wide_long_double = pytest.mark.skipif(
    not rng._X87, reason="long double is not x87 extended: every log goes through math.log")


@functools.cache
def stream_uniforms():
    """Two million uniforms of one seed's stream, and their libm logs."""
    u = rng.uniform_stream(20240531, 2_000_000)
    return u, np.array(list(map(math.log, u.tolist())))


def test_normal_stream_matches_reference_on_a_million_draws():
    # the scalar loop starts from the LCG state 2 * first steps after the seed
    first, count = 12345, 250_000
    for seed in (3, 99, 2 ** 63 + 1, 2 ** 64 - 1):
        start = reference_state(seed, 2 * first)
        expected = np.array(reference_normals(start, count)).tobytes()
        assert rng.normal_stream(seed, count, first).tobytes() == expected, seed


@wide_long_double
def test_log_gives_libm_bits_where_rounding_logl_does_not():
    u, libm = stream_uniforms()
    rounded = np.log(u.astype(np.longdouble)).astype(np.float64)
    hard = np.flatnonzero(rounded != libm)
    assert len(hard) > 1000  # x87 logl: ~1,750 of 2e6
    assert rng._log(u[hard]).tobytes() == libm[hard].tobytes()
    assert rng._log(u).tobytes() == libm.tobytes()


# The reference acceptance: narrow = float64(wide) is glibc's log where
# |wide - narrow| <= (1/2 - 0.05) ulp - 4 eps |narrow|, ulp the spacing toward
# zero (glibc's log errs by at most 0.5 + 4.13/128 ulp, logl by 4 of its
# own ulps).  rng._log_accepted must accept a subset of it.
def reference_accepted(wide, narrow):
    eps = float(np.finfo(np.longdouble).eps)
    ulp = np.abs(narrow - (narrow.view(np.int64) - 1).view(np.float64))
    bound = (0.5 - 0.05) * ulp - 4 * eps * np.abs(narrow)
    return np.abs((wide - narrow).astype(np.float64)) <= bound


def x87(significand, exponent=0x3FFF):
    """A negative x87 long double from its 64-bit significand and exponent field."""
    return np.array([significand, 0x8000 | exponent], dtype=np.uint64).view(np.longdouble)


def dropped_bits(wide):
    return wide.view(np.uint64)[0::2] & np.uint64(2047)


@wide_long_double
def test_log_fallback_share():
    # a kernel that falls back everywhere, or almost never, fails here
    u = stream_uniforms()[0]
    share = 1.0 - rng._log_accepted(np.log(u.astype(np.longdouble))).mean()
    assert 0.01 < share < 0.25, share


@wide_long_double
def test_log_acceptance_is_a_subset_of_the_bound():
    u = stream_uniforms()[0]
    wide = np.log(u.astype(np.longdouble))
    accepted = rng._log_accepted(wide)
    reference = reference_accepted(wide, wide.astype(np.float64))
    assert not (accepted & ~reference).any()
    assert accepted.sum() >= 0.99 * reference.sum()  # 10.79% fall back, against 10.56%


@wide_long_double
@pytest.mark.parametrize("power", [-1.0, -0.5, -4.0, -32.0])
def test_log_bound_at_a_power_of_two_takes_the_spacing_toward_zero(power):
    # the step toward zero is half the outward one: 0.47 of it toward zero
    # may leave the true log past the midpoint, 0.4 of it either way may not;
    # the bit test accepts a carry up onto the power (0.4 toward zero) and no
    # round down onto it
    step = np.longdouble(np.nextafter(power, 0.0) - power)
    narrow = np.array([power, power, power])
    wide = np.array([power + 0.47 * step, power + 0.4 * step, power - 0.4 * step])
    assert (wide.astype(np.float64) == narrow).all()
    assert reference_accepted(wide, narrow).tolist() == [False, True, True]
    assert rng._log_accepted(wide).tolist() == [False, True, False]


@wide_long_double
@pytest.mark.parametrize("significand, exponent, accepted", [
    ((1 << 63) + 5 * 2048 + 1024 - 110, 0x3FFF, False),
    ((1 << 63) + 5 * 2048 + 1024 + 110, 0x3FFF, False),
    ((1 << 63) + 5 * 2048 + 1024 - 111, 0x3FFF, True),
    ((1 << 63) + 5 * 2048 + 1024 + 111, 0x3FFF, True),
    ((1 << 63) + 100, 0x3FFE, False),  # rounds down onto -0.5
    ((1 << 64) - 2048 + 1024 + 111, 0x3FFF, True),  # carries up to -2.0
    (0, 0, False),  # wide = 0: logl(1.0) (the sign is not read)
])
def test_log_acceptance_on_hand_built_long_doubles(significand, exponent, accepted):
    wide = x87(significand, exponent)
    assert rng._log_accepted(wide).tolist() == [accepted]
    if accepted:
        assert reference_accepted(wide, wide.astype(np.float64)).tolist() == [True]


@wide_long_double
@pytest.mark.parametrize("distance", [110, 111])
def test_log_at_the_threshold_is_libm_log(distance):
    u, libm = stream_uniforms()
    wide = np.log(u.astype(np.longdouble))
    near = np.flatnonzero(np.abs(dropped_bits(wide).astype(np.int64) - 1024) == distance)
    assert len(near) > 100  # ~1,000 of 2e6 at each of the two bit patterns
    assert (rng._log_accepted(wide[near]) == (distance == 111)).all()
    assert rng._log(u[near]).tobytes() == libm[near].tobytes()


@wide_long_double
def test_log_next_to_a_power_of_two_and_at_one_is_libm_log():
    # the doubles within 64 steps of exp(-2^j): their logls round down onto
    # -2^j, carry up to it, or neither; u = 1.0 can be drawn, its logl is 0
    center = np.exp(-np.ldexp(1.0, np.arange(-2, 6)))
    u = (center.view(np.int64)[:, None] + np.arange(-64, 65)).ravel().view(np.float64)
    u = np.append(u, 1.0)
    wide = np.log(u.astype(np.longdouble))
    top = wide.view(np.uint64)[0::2] >> np.uint64(11)
    down = (top == 1 << 52) & (dropped_bits(wide) < 1024)
    carry = (top == (1 << 53) - 1) & (dropped_bits(wide) >= 1024 + rng._LOG_K)
    assert down.sum() > 10 and carry.sum() > 10
    accepted = rng._log_accepted(wide)
    assert not accepted[down].any() and accepted[carry].all() and not accepted[-1]
    libm = np.array(list(map(math.log, u.tolist())))
    assert rng._log(u).tobytes() == libm.tobytes()


def test_log_off_x87_is_math_log(monkeypatch):
    # the branch taken where long double is binary128 or double, run here
    u, libm = stream_uniforms()
    monkeypatch.setattr(rng, "_X87", False)
    assert rng._log(u[:100_000]).tobytes() == libm[:100_000].tobytes()
    assert rng.normal_stream(12345, 4).tolist() == GOLDEN_NORMALS_SEED_12345


def test_numpy_cos_is_libm_cos():
    angles = _TWO_PI * stream_uniforms()[0][:1_000_000]
    expected = np.array(list(map(math.cos, angles.tolist())))
    assert np.cos(angles).tobytes() == expected.tobytes()
