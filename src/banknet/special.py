"""The two special functions banknet needs, on numpy and ``math`` alone.

``ndtr`` is the standard normal CDF, a port of the Cephes ``ndtr``/``erf``/
``erfc`` rational approximations (S. L. Moshier, Cephes Math Library,
``ndtr.c``): the same coefficients, the same Horner order, the same branch
points and the same ``MAXLOG`` underflow, evaluated one scalar at a time with
``math.exp``. It is the CDF behind the Wald p-values, which are a handful of
numbers per fit, so a scalar loop costs nothing.

``expit`` is the logistic function ``1 / (1 + exp(-x))`` on numpy's ``exp``,
which overflows to inf (and so rounds to 0) far in the negative tail without
a warning.
"""

from __future__ import annotations

import math

import numpy as np

_MAXLOG = 7.09782712893383996843e2  # log(DBL_MAX)

# erfc(x) = exp(-x^2) P(x) / Q(x) on 1 <= x < 8, exp(-x^2) R(x) / S(x) from 8 on.
_P = (
    2.46196981473530512524e-10,
    5.64189564831068821977e-1,
    7.46321056442269912687e0,
    4.86371970985681366614e1,
    1.96520832956077098242e2,
    5.26445194995477358631e2,
    9.34528527171957607540e2,
    1.02755188689515710272e3,
    5.57535335369399327526e2,
)
_Q = (
    1.0,
    1.32281951154744992508e1,
    8.67072140885989742329e1,
    3.54937778887819891062e2,
    9.75708501743205489753e2,
    1.82390916687909736289e3,
    2.24633760818710981792e3,
    1.65666309194161350182e3,
    5.57535340817727675546e2,
)
_R = (
    5.64189583547755073984e-1,
    1.27536670759978104416e0,
    5.01905042251180477414e0,
    6.16021097993053585195e0,
    7.40974269950448939160e0,
    2.97886665372100240670e0,
)
_S = (
    1.0,
    2.26052863220117276590e0,
    9.39603524938001434673e0,
    1.20489539808096656605e1,
    1.70814450747565897222e1,
    9.60896809063285878198e0,
    3.36907645100081516050e0,
)
# erf(x) = x T(x^2) / U(x^2) on |x| <= 1.
_T = (
    9.60497373987051638749e0,
    9.00260197203842689217e1,
    2.23200534594684319226e3,
    7.00332514112805075473e3,
    5.55923013010394962768e4,
)
_U = (
    1.0,
    3.35617141647503099647e1,
    5.21357949780152679795e2,
    4.59432382970980127987e3,
    2.26290000613890934246e4,
    4.92673942608635921086e4,
)


def _polevl(x: float, coef: tuple[float, ...]) -> float:
    """Horner's rule, highest power first. A leading 1.0 gives Cephes'
    ``p1evl`` bit for bit, since ``1.0 * x`` is ``x``."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _erfc(a: float) -> float:
    x = abs(a)
    if x < 1.0:
        return 1.0 - _erf(a)
    z = -a * a
    if z >= -_MAXLOG:
        p, q = (_P, _Q) if x < 8.0 else (_R, _S)
        y = (math.exp(z) * _polevl(x, p)) / _polevl(x, q)
        if a < 0:
            y = 2.0 - y
        if y != 0.0:
            return y
    return 2.0 if a < 0 else 0.0  # underflow


def _erf(x: float) -> float:
    if x < 0.0:
        return -_erf(-x)
    if x > 1.0:
        return 1.0 - _erfc(x)
    z = x * x
    return x * _polevl(z, _T) / _polevl(z, _U)


def _ndtr(a: float) -> float:
    if math.isnan(a):
        return math.nan
    x = a * math.sqrt(0.5)
    z = abs(x)
    if z < math.sqrt(0.5):
        return 0.5 + 0.5 * _erf(x)
    y = 0.5 * _erfc(z)
    return 1.0 - y if x > 0 else y


def ndtr(a):
    """Standard normal CDF, elementwise; a float array of ``a``'s shape."""
    a = np.asarray(a, dtype=float)
    return np.array([_ndtr(v) for v in a.ravel().tolist()]).reshape(a.shape)


@np.errstate(over="ignore")
def expit(x):
    """The logistic function ``1 / (1 + exp(-x))``, elementwise."""
    return 1.0 / (1.0 + np.exp(np.negative(x)))
