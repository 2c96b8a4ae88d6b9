"""Property-based fuzzing of the wire codec.

Seeded generators produce random weight tables — mixed dtypes, shapes
(scalars, empties, high-rank), C- and F-contiguity, NaN/inf payloads —
and ship evolving sequences of them.  The property: every frame decodes
on its own to tables *bit-identical* to the originals.
"""

import numpy as np
import pytest

from repro.fl.codec import decode_message, encode_message

SEEDS = (0, 1, 2, 3)

DTYPES = (np.float64, np.float32, np.int64, np.int32, np.int8,
          np.uint8, np.bool_, np.complex128)


class _Batch:
    def __init__(self, weights_table):
        self.weights_table = weights_table


def _random_array(rng, dtype):
    rank = int(rng.integers(0, 4))
    shape = tuple(int(rng.integers(0, 6)) for _ in range(rank))
    if dtype is np.bool_:
        array = rng.integers(0, 2, size=shape).astype(bool)
    elif dtype is np.complex128:
        array = (rng.normal(size=shape) + 1j * rng.normal(size=shape))
    elif np.issubdtype(dtype, np.floating):
        array = rng.normal(size=shape).astype(dtype)
        if array.size and rng.random() < 0.3:
            flat = array.reshape(-1)
            flat[rng.integers(0, len(flat))] = np.nan
            if len(flat) > 1:
                flat[rng.integers(0, len(flat))] = np.inf
    else:
        array = rng.integers(-100, 100, size=shape).astype(dtype)
    if array.ndim >= 2 and rng.random() < 0.5:
        array = np.asfortranarray(array)
    return array


def _random_table(rng):
    names = [f"p{i}" for i in range(int(rng.integers(1, 6)))]
    return {name: _random_array(rng, DTYPES[int(rng.integers(0,
                                                             len(DTYPES)))])
            for name in names}


def _evolve(rng, table):
    """A plausible next-cycle table: most parameters nudged, some kept
    bit-identical, occasionally one reshaped or added."""
    evolved = {}
    for name, value in table.items():
        roll = rng.random()
        if roll < 0.25:
            evolved[name] = value  # unchanged
        elif roll < 0.85 and value.size and np.issubdtype(value.dtype,
                                                          np.floating):
            evolved[name] = (value + value.dtype.type(1e-3)
                             * rng.normal(size=value.shape).astype(
                                 value.dtype))
        elif roll < 0.92:
            evolved[name] = _random_array(rng, value.dtype.type
                                          if value.dtype.type in DTYPES
                                          else np.float64)
        else:
            evolved[name] = value.copy()
    if rng.random() < 0.3:
        evolved[f"new{int(rng.integers(0, 100))}"] = _random_array(
            rng, np.float64)
    return evolved


def _assert_bit_identical(actual, expected):
    assert actual.keys() == expected.keys()
    for name in expected:
        got, want = np.asarray(actual[name]), np.asarray(expected[name])
        assert got.dtype == want.dtype, name
        assert got.shape == want.shape, name
        assert (np.ascontiguousarray(got).tobytes()
                == np.ascontiguousarray(want).tobytes()), name


@pytest.mark.parametrize("seed", SEEDS)
def test_random_tables_roundtrip_bit_identical(seed):
    """Every cycle of an evolving sequence — parameters nudged, kept,
    reshaped, added — round-trips bit-identically, and frames decoded
    out of order still do: no frame depends on an earlier one."""
    rng = np.random.default_rng(seed)
    table = _random_table(rng)
    shipped = []
    for _ in range(6):
        shipped.append((encode_message(("run", _Batch([table]))).tobytes(),
                        table))
        table = _evolve(rng, table)
    for blob, expected in reversed(shipped):
        _, payload = decode_message(blob)
        _assert_bit_identical(payload.weights_table[0], expected)
