import pytest

from cycle4 import Tolerance


class TestTolerance:
    def test_defaults(self):
        tol = Tolerance()
        assert tol.eigen_residual == 1e-8
        assert tol.boundary_band == 1e-9
        assert Tolerance._fields == ("eigen_residual", "boundary_band")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"eigen_residual": 0.0},
            {"boundary_band": -1e-9},
            {"eigen_residual": float("nan")},
            {"boundary_band": "1e-9"},
            {"boundary_band": float("inf")},
            {"eigen_residual": True},
            {"boundary_band": True},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            Tolerance(**kwargs)

    def test_make_and_replace_validate(self):
        with pytest.raises(ValueError):
            Tolerance()._replace(boundary_band=0)
        with pytest.raises(ValueError):
            Tolerance._make((0.0, 1e-9))
        tol = Tolerance._make((1e-6, 1e-7))._replace(boundary_band=1e-5)
        assert type(tol) is Tolerance and tol == Tolerance(1e-6, 1e-5)

