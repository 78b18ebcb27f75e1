"""Every law has one calling convention: it takes a float or an array, and
returns a float for scalar input (a Python or numpy number, or a 0-d array)
and otherwise a float64 array of the input's shape, whose entries equal the
scalar results."""

import numpy as np
import pytest

from qstrat.distributions import (
    Beta,
    Custom,
    Discrete,
    Gamma,
    Normal,
    Uniform01,
    conditional_cdf,
    conditional_pdf,
    conditional_quantile,
)
from qstrat.estimators import beta_log_integral, importance_weight
from qstrat.theory import spacing_law

FAMILIES = {
    "uniform": Uniform01(),
    "normal": Normal(1.0, 2.0),
    "beta": Beta(0.5, 2.0),
    "gamma": Gamma(0.3, 5.0),
    "discrete": Discrete([0.2, 0.7, 1.5], [0.3, 0.5, 0.2]),
    "custom": Custom(quantile=np.sqrt, pdf=lambda x: 2.0 * x,
                     cdf=lambda x: np.clip(x, 0.0, 1.0) ** 2, support=(0.0, 1.0)),
}

# name -> function of one argument (x or p); every value in GRID is inside
# the domain of each.
CALLS = {
    f"{family}.{method}": getattr(dist, method)
    for family, dist in FAMILIES.items()
    for method in ("pdf", "logpdf", "cdf", "quantile")
}
CALLS.update({
    "conditional_pdf": lambda x: conditional_pdf(Beta(2.0, 3.0), 4, 2, x),
    "conditional_cdf": lambda x: conditional_cdf(Gamma(2.0, 5.0), 4, 3, x),
    "conditional_quantile": lambda p: conditional_quantile(Normal(), 4, 2, p),
    "importance_weight": lambda x: importance_weight(x, beta_log_integral()),
    "spacing_law iid.pdf": spacing_law(10, 3, "iid").pdf,
    "spacing_law iid.cdf": spacing_law(10, 3, "iid").cdf,
    "spacing_law qs.pdf": spacing_law(10, 3, "qs").pdf,
    "spacing_law qs.cdf": spacing_law(10, 3, "qs").cdf,
})

GRID = np.array([[0.2, 0.35, 0.7], [0.05, 0.3, 0.9]])
SCALARS = {
    "float": lambda v: float(v),
    "np.float64": lambda v: np.float64(v),
    "0-d array": lambda v: np.array(v),
}
ARRAYS = {
    "list": (lambda g: g[0].tolist(), GRID[0]),
    "2-d array": (lambda g: g, GRID),
}


@pytest.mark.parametrize("kind", SCALARS)
@pytest.mark.parametrize("name", CALLS)
def test_scalar_input_returns_a_float_equal_to_the_array_entry(name, kind):
    call = CALLS[name]
    expected = call(GRID)
    for index, value in np.ndenumerate(GRID):
        out = call(SCALARS[kind](value))
        assert type(out) is float
        np.testing.assert_array_equal(out, expected[index])


@pytest.mark.parametrize("kind", ARRAYS)
@pytest.mark.parametrize("name", CALLS)
def test_array_input_returns_a_float64_array_of_its_shape(name, kind):
    call = CALLS[name]
    make, grid = ARRAYS[kind]
    out = call(make(GRID))
    assert isinstance(out, np.ndarray) and out.dtype == np.float64
    assert out.shape == grid.shape
    scalars = np.reshape([call(float(v)) for v in grid.flat], grid.shape)
    np.testing.assert_array_equal(out, scalars)


@pytest.mark.parametrize("m,ell", [(10, 1), (10, 3), (12, 4), (50, 49), (1000, 500)])
@pytest.mark.parametrize("method", ["pdf", "cdf"])
def test_iid_spacing_law_is_bit_equal_to_beta(m, ell, method):
    x = np.concatenate(([1e-300, 1e-9, 1.0 - 2.0 ** -53], np.linspace(0.0, 1.0, 1001)[1:-1]))
    law = getattr(spacing_law(m, ell, "iid"), method)
    ref = getattr(Beta(ell, m - ell + 1), method)
    np.testing.assert_array_equal(law(x), ref(x))
    assert law(0.25) == ref(0.25)
