"""Independent reference implementations used to pin test expectations.

Everything here is deliberately written against different formulas (or
different libraries) than the package itself, so agreement is evidence and
not tautology.  The heavy oracles are the finite-argument density ratios:
the package computes suprema by closed series, these compute the underlying
ratio on a grid and locate the supremum by brute force.  The two series
oracles are the exception: they sum the package's own series one Python
term at a time with log_sum_series, from k = 0, so they check the numpy
summation, its window and its vectorised term recurrences rather than the
series formulas.  log_lr_sup_f_hyp1f1 checks the F formula itself,
log_lr_sup_t_integral the t formula through its integral form, and the
other mpmath oracles the special functions, at 50 digits.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special, stats

from pfdr_sizer.normal_t import log_lr_sup_t
from pfdr_sizer.numerics import log_sum_series

EULER_GAMMA = 0.5772156649015328606


def digamma_half() -> float:
    """psi(1/2) from the duplication identity and psi(1) = -gamma."""
    return -EULER_GAMMA - 2.0 * math.log(2.0)


def log_i0_quadrature(t: float, points: int = 20_001) -> float:
    """log I0(t) by trapezoid rule on (1/2 pi) integral of exp(t sin angle).

    The integrand is smooth and periodic, so the trapezoid rule converges
    spectrally; 20001 points is far more than enough for |t| <= 30.
    """
    theta = np.linspace(0.0, 2.0 * math.pi, points)
    vals = np.exp(t * np.sin(theta))
    # trapezoid weights on a closed periodic interval
    integral = np.trapezoid(vals, theta) / (2.0 * math.pi)
    return math.log(float(integral))


def lr_t_at_x(n: int, r: float, x: float, k_max: int = 4000) -> float:
    """Density ratio of the noncentral to central t statistic at value x.

    exp(-d^2/2) sum_k a_{n,k} (d x)^k / k! * (2 / (n + x^2))^(k/2) with
    d = sqrt(n+1) r, summed in log space.  Increasing in x; its supremum
    over x is what the package's lr_sup_t computes by a different series.
    """
    d = math.sqrt(n + 1.0) * r
    if d == 0.0:
        return 1.0
    k = np.arange(k_max)
    lg0 = math.lgamma(0.5 * (n + 1))
    log_terms = (
        special.gammaln(0.5 * (n + k + 1))
        - lg0
        + k * (math.log(d) + math.log(x))
        - special.gammaln(k + 1.0)
        + 0.5 * k * (math.log(2.0) - math.log(n + x * x))
    )
    top = special.logsumexp(log_terms)
    # the cut tail must be negligible for the sum to be trustworthy
    assert log_terms[-1] < top - 60.0, "k_max too small for these arguments"
    return math.exp(-0.5 * d * d + top)


def brute_force_lr_t(n: int, r: float) -> float:
    """Supremum of lr_t_at_x over x by scanning to very large x.

    The ratio increases in x toward its limit; the value at the far end of
    a log-spaced grid is the supremum once the curve has flattened, which
    is asserted rather than assumed.
    """
    xs = np.logspace(1.0, 6.0, 60)
    vals = [lr_t_at_x(n, r, float(x)) for x in xs]
    assert vals[-1] >= vals[0]
    flat = abs(vals[-1] / vals[-2] - 1.0)
    assert flat < 1e-7, f"ratio not flat at the grid end (rel change {flat:.2e})"
    return vals[-1]


def brute_force_lr_f(p: int, n: int, delta: float) -> float:
    """Supremum of the noncentral over central F density ratio.

    Uses scipy's distributions with numerator noncentrality (n + p) delta^2,
    evaluated on a log-spaced grid of statistic values; the ratio increases
    toward its supremum as the statistic grows.
    """
    nc = (n + p) * delta * delta
    xs = np.logspace(0.0, 9.0, 80)
    logs = stats.ncf.logpdf(xs, p, n, nc) - stats.f.logpdf(xs, p, n)
    vals = np.exp(logs)
    flat = abs(vals[-1] / vals[-2] - 1.0)
    assert flat < 1e-7, f"ratio not flat at the grid end (rel change {flat:.2e})"
    return float(vals[-1])


def log_lr_sup_f_series(p: int, n: int, delta: float) -> float:
    """log K(p, n, delta) summed term by term in Python.

    This was the package's own F kernel before the numpy summator replaced
    it: the same series, with log b_{p,n,k} carried as a running sum of
    log((n + p + 2k) / (p + 2k)) and the terms added by log_sum_series.
    """
    a = 0.5 * (n + p) * delta * delta
    log_a = math.log(a)

    def log_terms():
        lb = 0.0  # log b_{p,n,k}
        k = 0
        while True:
            yield lb + k * log_a - math.lgamma(k + 1)
            lb += math.log((n + p + 2.0 * k) / (p + 2.0 * k))
            k += 1

    return -a + log_sum_series(log_terms())


def log_lr_sup_f_hyp1f1(p: int, n: int, delta: float) -> float:
    """log K(p, n, delta) from Kummer's function at 50 digits.

    The series is e^-A 1F1((n + p) / 2; p / 2; A), since b_{p,n,k} is the
    ratio of rising factorials ((n + p) / 2)_k / (p / 2)_k; mpmath sums it
    in extended precision, so this oracle shares no rounding with the
    package.
    """
    import mpmath

    with mpmath.workdps(50):
        a = mpmath.mpf(n + p) * mpmath.mpf(delta) ** 2 / 2
        k = mpmath.hyp1f1(mpmath.mpf(n + p) / 2, mpmath.mpf(p) / 2, a, maxterms=10**7)
        return float(mpmath.log(k) - a)


def log_lr_sup_t_integral(n: int, r: float) -> float:
    """log L(n, r) from its integral form, by mpmath quadrature at 50 digits.

    Writing Gamma((n + k + 1)/2) as an integral over s = u^2 / 2 and summing
    the exponential series under it gives

        L = e^{-d^2/2} 2^{-(n-1)/2} / Gamma((n+1)/2) int_0^inf u^n e^{-u^2/2 + d u} du,

    whose integrand peaks at u0 = (d + sqrt(d^2 + 4n)) / 2 with a width of
    about 1 / sqrt(1 + n / u0^2).  The integrand is taken relative to its
    peak, so the quadrature sees values near 1 whatever the size of L.
    """
    import mpmath

    with mpmath.workdps(50):
        n = mpmath.mpf(n)
        d = mpmath.sqrt(n + 1) * mpmath.mpf(r)
        u0 = (d + mpmath.sqrt(d * d + 4 * n)) / 2
        width = 1 / mpmath.sqrt(1 + n / (u0 * u0))

        def relative(u):
            return mpmath.exp(n * mpmath.log(u / u0) - (u * u - u0 * u0) / 2 + d * (u - u0))

        cuts = [u0 + k * width for k in (-40, -10, 0, 10, 40) if u0 + k * width > 0]
        integral = mpmath.quad(relative, [mpmath.mpf(0), *cuts, mpmath.inf])
        log_peak = n * mpmath.log(u0) - u0 * u0 / 2 + d * u0
        return float(
            -d * d / 2 - (n - 1) / 2 * mpmath.log(2) - mpmath.loggamma((n + 1) / 2)
            + log_peak + mpmath.log(integral)
        )


def log_m_p_hyp0f1(p: int, t: float) -> float:
    """log M_p(t) = log 0F1(; p / 2; t^2 / 4) from mpmath at 50 digits."""
    import mpmath

    with mpmath.workdps(50):
        z = mpmath.mpf(t) ** 2 / 4
        return float(mpmath.log(mpmath.hyp0f1(mpmath.mpf(p) / 2, z, maxterms=10**6)))


def log_i0_and_ratio_mpmath(u: float) -> tuple[float, float]:
    """(log I0(u), I1(u) / I0(u)) from mpmath's Bessel functions at 50 digits."""
    import mpmath

    with mpmath.workdps(50):
        i0 = mpmath.besseli(0, u)
        return float(mpmath.log(i0)), float(mpmath.besseli(1, u) / i0)


def polygamma_mpmath(m: int, x: float) -> float:
    """psi^(m)(x) from mpmath at 50 digits: digamma for m = 0, trigamma for 1."""
    import mpmath

    with mpmath.workdps(50):
        return float(mpmath.psi(m, x))


def lr_sup_t_mixture_by_atom(n: int, atoms, scale: float) -> float:
    """Weighted average of the scalar t kernel, one atom at a time."""
    logs = [math.log(w) + log_lr_sup_t(n, scale * r) for r, w in atoms]
    out = float(special.logsumexp(logs))
    return math.inf if out >= 709.78 else math.exp(out)


def m_p_direct(p: int, t: float, k_max: int = 50) -> float:
    """Direct finite-sum evaluation of the n delta -> t limit transform."""
    total = 0.0
    for k in range(k_max):
        total += math.exp(
            math.lgamma(0.5 * p)
            + k * math.log(t * t / 4.0)
            - math.lgamma(k + 1.0)
            - math.lgamma(k + 0.5 * p)
        )
    return total


def golden_max(f, lo: float, hi: float, tol: float = 1e-12) -> tuple[float, float]:
    """Golden-section maximizer for a unimodal function; returns (x, f(x))."""
    invphi = 0.5 * (math.sqrt(5.0) - 1.0)
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def empirical_tilted_reference(x, t: float) -> tuple[float, float, float]:
    """Lambda, Lambda' and Lambda'' of the centered empirical cgf at t.

    The direct formulas: the sample is centered, the weights are
    exp(t x_i - max_j t x_j) with the maximum found by a pass over t x, and
    every moment is summed from its own temporaries.  empirical_cgf
    reorganises these sums to save memory and must return the same bits.
    """
    x = np.asarray(x, dtype=float).ravel()
    x = x - x.mean()
    w = t * x
    m = float(w.max())
    e = np.exp(w - m)
    s = float(e.sum())
    mean1 = float((x * e).sum()) / s
    mean2 = float((x * x * e).sum()) / s
    return m + math.log(s / x.size), mean1, mean2 - mean1 * mean1


def exact_normal_mean_tail(u: float, sigma: float, n: int) -> float:
    """P(mean of n independent N(0, sigma) >= u), exactly."""
    return 0.5 * math.erfc(u * math.sqrt(n) / (sigma * math.sqrt(2.0)))


def central_diff(f, x: float, h: float = 1e-6) -> float:
    return (f(x + h) - f(x - h)) / (2.0 * h)


def studentized_tail_ratio_exact(n: int, m: int, z: float, d: float) -> float:
    """Exact shifted-to-null rejection ratio for normal data.

    For N(0,1) observations the scale estimate satisfies m S^2 ~ chi^2_m
    independent of the mean, so P(mean >= z S) is a t tail with m degrees
    of freedom at z sqrt(n), and the shifted numerator is the same tail of
    a noncentral t with noncentrality d sqrt(n).
    """
    a = z * math.sqrt(n)
    nc = d * math.sqrt(n)
    return float(stats.nct.sf(a, m, nc) / stats.t.sf(a, m))


def studentized_pfdr_exact(n: int, m: int, z: float, d: float, pi: float) -> float:
    """Batch-mean pFDR E[V/R | R > 0] for normal data, exactly.

    Each null is false with probability pi and rejects with the central t
    tail p0 = P(T >= z sqrt(n)), T on m degrees of freedom, if true, or the
    noncentral tail p1 with noncentrality d sqrt(n), d in standard
    deviations, if false.  Given R = r rejections among independent nulls,
    each rejection is a true null with probability
    q = (1 - pi) p0 / ((1 - pi) p0 + pi p1), so V ~ Bin(r, q) and
    E[V/R | R = r] = q for every r >= 1, whatever the batch size.
    """
    a = z * math.sqrt(n)
    p0 = float(stats.t.sf(a, m))
    p1 = float(stats.nct.sf(a, m, d * math.sqrt(n)))
    return (1.0 - pi) * p0 / ((1.0 - pi) * p0 + pi * p1)


def studentized_tilt(z: float, rho: float) -> float:
    """Mean of unit-normal data conditioned on rejection at a fixed threshold z.

    A null is rejected when xbar >= z S, with n = (1 - rho) N observations
    in the mean and m = rho N scale pairs, so m S^2 ~ chi^2_m.  For large N
    the cheapest way to reject puts S at s and the mean at z s, which costs
    n z^2 s^2 / 2 (the mean's tail) plus m (s^2 - 1 - ln s^2) / 2 (the
    chi-square rate).  Setting the derivative in v = s^2 to zero,
    n z^2 + m (1 - 1/v) = 0, gives v* = m / (m + n z^2), so the conditioned
    mean is

        x*(z) = z sqrt(v*) = z sqrt(rho / ((1 - rho) z^2 + rho)).

    As z grows, x*(z) rises to sqrt(rho / (1 - rho)), the tilt root t0 of
    the unit normal family.
    """
    return z * math.sqrt(rho / ((1.0 - rho) * z * z + rho))


def studentized_tail_ratio_limit(z: float, rho: float, t_growth: float) -> float:
    """Large-N limit of the shifted-to-null rejection ratio at a fixed z.

    A mean shift d = T / N multiplies the null density near the conditioned
    mean x*(z) by exp(n d x*) = exp((1 - rho) T x*(z)), which is the limit
    of studentized_tail_ratio_exact as N grows with z held fixed.  Only a
    threshold growing without bound reaches exp((1 - rho) T t0).
    """
    return math.exp((1.0 - rho) * t_growth * studentized_tilt(z, rho))
