"""Numeric continuation: input handling."""

import mpmath as mp
import pytest

from crepant.continuation import (ContinuationError, _to_mp,
                                  mellin_barnes_integral)


def test_to_mp_accepts_strings():
    with mp.workdps(30):
        assert _to_mp("0.06") == mp.mpf("0.06")
        assert _to_mp("1/27") == mp.mpf(1) / 27
    with pytest.raises(ContinuationError, match="not a number"):
        _to_mp("q")


def test_mb_string_point_reaches_the_wall_check():
    # a string q is converted like any other number: on ex1's wall
    # |q| = 1/27 the integral refuses with its own error
    with pytest.raises(ContinuationError, match="wall"):
        mellin_barnes_integral("ex1", "1/27")
