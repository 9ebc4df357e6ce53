"""Shapiro-Wilk W test for normality, without scipy.stats.

A plain-Python port of Royston, "Remark AS R94: A Remark on Algorithm AS 181:
The W-test for Normality", Applied Statistics 44 (1995), following the
double-precision translation that `scipy.stats.shapiro` runs: the same
constants, the same order of operations, and the same AS 111 normal quantile
for the expected order statistics, so W and p come out bit for bit equal to
scipy 1.17's. Importing scipy.stats costs about 1 s; this module needs only
`math`.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

_SMALL = 1e-19

# AS R94 polynomial coefficients, lowest order first.
_C1 = (0.0, 0.221157, -0.147981, -2.071190, 4.434685, -2.706056)
_C2 = (0.0, 0.042981, -0.293762, -1.752461, 5.682633, -3.582633)
_C3 = (0.5440, -0.39978, 0.025054, -6.714e-4)
_C4 = (1.3822, -0.77857, 0.062767, -0.0020322)
_C5 = (-1.5861, -0.31082, -0.083751, 0.0038915)
_C6 = (-0.4803, -0.082676, 0.0030302)
_G = (-2.273, 0.459)


def _poly(cc: Sequence[float], x: float) -> float:
    """AS 181.2: cc[0] + cc[1]*x + ... evaluated by Horner's rule."""
    p = x * cc[-1]
    for c in cc[-2:0:-1]:
        p = (p + c) * x
    return cc[0] + p


def _ppnd(p: float) -> float:
    """AS 111 (Beasley and Springer): the normal quantile of p."""
    q = p - 0.5
    if abs(q) <= 0.42:
        r = q * q
        return (
            q * (((-25.44106049637 * r + 41.39119773534) * r - 18.61500062529) * r
                 + 2.50662823884)
            / ((((3.13082909833 * r - 21.06224101826) * r + 23.08336743743) * r
                - 8.47351093090) * r + 1.0)
        )
    r = p if q < 0.0 else 1.0 - p
    r = math.sqrt(-math.log(r))
    value = (
        ((2.32121276858 * r + 4.85014127135) * r - 2.29796479134) * r - 2.78718931138
    ) / ((1.63706781897 * r + 3.54388924762) * r + 1.0)
    return -value if q < 0.0 else value


def _alnorm(x: float) -> float:
    """AS 66 (Hill): the upper tail area of the standard normal beyond x."""
    upper = True
    z = x
    if z < 0.0:
        upper = False
        z = -z
    if z <= 7.0 or (upper and z <= 38.0):
        y = 0.5 * z * z
        if z > 1.28:
            tail = 0.398942280385 * math.exp(-y) / (
                z - 3.8052e-8 + 1.00000615302 / (
                    z + 3.98064794e-4 + 1.98615381364 / (
                        z - 0.151679116635 + 5.29330324926 / (
                            z + 4.8385912808 - 15.1508972451 / (
                                z + 0.742380924027 + 30.789933034 / (z + 3.99019417011)
                            )
                        )
                    )
                )
            )
        else:
            tail = 0.5 - z * (
                0.398942280444 - 0.399903438504 * y / (
                    y + 5.75885480458 - 29.8213557808 / (
                        y + 2.62433121679 + 48.6959930692 / (y + 5.92885724438)
                    )
                )
            )
    else:
        tail = 0.0
    return tail if upper else 1.0 - tail


@functools.cache
def _coefficients_for(n: int) -> tuple[float, ...]:
    """The n // 2 antisymmetric AS R94 weights for a sample of size n."""
    half = n // 2
    if n == 3:
        a = [math.sqrt(0.5)]
    else:
        an25 = n + 0.25
        m = [_ppnd((i - 0.375) / an25) for i in range(1, half + 1)]
        summ2 = 0.0
        for mi in m:
            summ2 += mi * mi
        summ2 *= 2.0
        ssumm2 = math.sqrt(summ2)
        rsn = 1.0 / math.sqrt(n)
        a1 = _poly(_C1, rsn) - m[0] / ssumm2
        if n > 5:
            first = 2
            a2 = -m[1] / ssumm2 + _poly(_C2, rsn)
            fac = 1.0 / math.sqrt(
                (summ2 - 2.0 * m[0] ** 2 - 2.0 * m[1] ** 2)
                / (1.0 - 2.0 * a1 ** 2 - 2.0 * a2 ** 2)
            )
            a = [a1, a2]
        else:
            first = 1
            fac = 1.0 / math.sqrt((summ2 - 2.0 * m[0] ** 2) / (1.0 - 2.0 * a1 ** 2))
            a = [a1]
        # Times the reciprocal, as scipy's compiled code rounds it.
        a.extend(-mi * fac for mi in m[first:])
    return tuple(a)


def shapiro(samples: Sequence[float]) -> tuple[float, float]:
    """Shapiro-Wilk (W, p) for at least 3 samples, as scipy.stats.shapiro.

    A sample whose range is below 1e-19 gives (1.0, 1.0). The p-value is
    exact for n = 3 and comes from Royston's normalising transformations
    otherwise.
    """
    n = len(samples)
    if n < 3:
        raise ValueError("Shapiro-Wilk needs at least 3 samples")
    shift = float(samples[n // 2])
    x = sorted(float(v) - shift for v in samples)
    a = _coefficients_for(n)

    span = x[-1] - x[0]
    if span < _SMALL:
        return 1.0, 1.0
    # Signed weight of the i-th order statistic: -a[i] in the lower half,
    # +a[n-1-i] in the upper half, 0 at the middle of an odd sample.
    weights = [-a[i] for i in range(n // 2)]
    if n % 2:
        weights.append(0.0)
    weights.extend(reversed(a))
    scaled = [v / span for v in x]

    sa = 0.0
    sx = 0.0
    for w, xi in zip(weights, scaled):
        sa += w
        sx += xi
    sa /= n
    sx /= n
    ssa = ssx = sax = 0.0
    for w, xi in zip(weights, scaled):
        asa = w - sa
        xsx = xi - sx
        ssa += asa * asa
        ssx += xsx * xsx
        sax += asa * xsx
    # w1 is 1 - W, computed so that W near 1 keeps its precision.
    ssassx = math.sqrt(ssa * ssx)
    w1 = (ssassx - sax) * (ssassx + sax) / (ssa * ssx)
    w = 1.0 - w1

    if n == 3:
        # Exact: p = (6/pi) (asin(sqrt(W)) - pi/3), and W >= 3/4 in theory.
        if w < 0.75:
            return 0.75, 0.0
        return w, 1.0 - 6.0 / math.pi * math.acos(math.sqrt(w))
    y = math.log(w1)
    if n <= 11:
        gamma = _poly(_G, n)
        if y >= gamma:  # below W's lower bound, so only a guard for the log
            return w, _SMALL
        y = -math.log(gamma - y)
        m = _poly(_C3, n)
        s = math.exp(_poly(_C4, n))
    else:
        xx = math.log(n)
        m = _poly(_C5, xx)
        s = math.exp(_poly(_C6, xx))
    return w, _alnorm((y - m) / s)
