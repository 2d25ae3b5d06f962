import warnings

import numpy as np
import pytest
from scipy import special as scipy_special

from banknet.special import expit, ndtr

EDGES = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e-300, -1e-300, 5e-324, -5e-324]


def _bits(values) -> bytes:
    """Bytes of a float array with every NaN made the one canonical NaN."""
    values = np.array(values, dtype=float)
    values[np.isnan(values)] = np.nan
    return values.tobytes()


class TestNdtr:
    def test_equals_the_cephes_cdf_bit_for_bit(self):
        # A dense grid over both branches of erf/erfc, the 1 and 8 break
        # points of erfc's two fits, the underflow below -37.68, and the edges.
        grid = np.concatenate(
            [np.linspace(-40.0, 40.0, 160_001), np.sqrt(2.0) * np.array([1.0, 8.0]), EDGES]
        )
        grid = np.concatenate([grid, np.nextafter(grid, np.inf), np.nextafter(grid, -np.inf)])
        assert _bits(ndtr(grid)) == _bits(scipy_special.ndtr(grid))

    def test_keeps_the_input_shape(self):
        z = np.array([[-1.0, 0.0], [1.0, 2.0]])
        assert ndtr(z).shape == (2, 2)
        assert ndtr(0.0).shape == () and ndtr(0.0) == 0.5

    def test_tails(self):
        assert ndtr(-np.inf) == 0.0 and ndtr(np.inf) == 1.0 and np.isnan(ndtr(np.nan))
        assert ndtr(-37.7) == 0.0 and ndtr(-37.6) > 0.0  # erfc underflows at MAXLOG


class TestExpit:
    def test_within_four_ulp_of_the_c_exp_logistic(self):
        x = np.linspace(-750.0, 750.0, 600_001)
        want = scipy_special.expit(x)
        normal = want >= np.finfo(float).tiny
        ulps = np.abs(expit(x).view(np.int64) - want.view(np.int64))
        assert ulps[normal].max() <= 4

    def test_fixed_points(self):
        got = expit(np.array([0.0, np.inf, -np.inf, np.nan]))
        assert got[:3].tolist() == [0.5, 1.0, 0.0] and np.isnan(got[3])

    @pytest.mark.parametrize("x", [1000.0, -1000.0, np.array([-1e308, 1e308])])
    def test_far_tails_raise_no_warning(self, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = expit(x)
        assert np.all((got == 0.0) | (got == 1.0))
