"""Shared test fixtures."""

import pytest


@pytest.fixture
def table_dict():
    """Turn a kernel ``Table`` into {key tuple: mass}, in its key order, with
    Python ints (or floats) for keys and masses."""

    def as_dict(table):
        return dict(zip(map(tuple, table.keys.tolist()), table.masses.tolist()))

    return as_dict
