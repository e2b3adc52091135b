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


@pytest.mark.parametrize("seed", REFERENCE_SEEDS)
@pytest.mark.parametrize("kind", ["uniform", "normal"])
def test_stream_matches_reference(kind, seed):
    stream = {"uniform": rng.uniform_stream, "normal": rng.normal_stream}[kind]
    expected = reference_bytes(kind, seed)
    for count in REFERENCE_COUNTS:
        got = stream(seed, count)
        assert got.dtype == np.float64
        assert got.tobytes() == expected[:8 * count], count
