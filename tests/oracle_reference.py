"""Reference values of the harmonic chain's exact covariance in mpmath.

For omega = b |sin(k/2)|, b > 0, the three oracle quantities are integrals
over the Brillouin zone, each even in k:

    gamma_p(n)                 = (1/pi) int_0^pi (omega / 2) cos(k n) dk,
    gamma_q(n) - gamma_q(0)    = -(1/pi) int_0^pi sin^2(k n / 2) / omega dk,
    ||gamma_q (e_0 - e_n)||^2  = (1/pi) int_0^pi sin^2(k n / 2) / omega^2 dk,

written with 1 - cos(k n) = 2 sin^2(k n / 2), so no sample cancels.
``quadrature`` evaluates them with ``mp.quad`` on a split of [0, pi] that
resolves cos(k n); ``series`` sums their closed forms -b / (pi (4 n^2 - 1)),
-(2 / (pi b)) sum_{j <= n} 1 / (2j - 1) and sqrt(n) / b term by term.  Both
work at DIGITS + 10 digits; at offsets up to 64 they agree to about 47.

For the massive chain hypot(m, sin(k/2)), m > 0, ``legendre`` gives the same
three quantities from Legendre functions of the second kind (mpmath's
``legenq``) and the geometric Fourier coefficients of 1 / omega^2, and
``harmonic_quadrature`` checks gamma_q and the norm by ``mp.quad``.
"""

from functools import cache

import mpmath as mp

DIGITS = 40


@cache
def quadrature(b: float, n: int) -> tuple:
    """(gamma_p(n), regulated gamma_q(n), q-difference norm at delta = n)
    of the chain b |sin(k/2)| by mp.quad on n + 1 pieces of [0, pi]; the
    norm is None at n = 0."""
    n = abs(n)
    with mp.workdps(DIGITS + 10):
        b = mp.mpf(b)
        cuts = mp.linspace(0, mp.pi, n + 2)

        def mean(f):
            return mp.quad(f, cuts) / mp.pi

        p = mean(lambda k: b * mp.sin(k / 2) / 2 * mp.cos(k * n))
        q = -mean(lambda k: mp.sin(k * n / 2) ** 2 / (b * mp.sin(k / 2)))
        norm = mp.sqrt(mean(lambda k: (mp.sin(k * n / 2)
                                       / (b * mp.sin(k / 2))) ** 2)) \
            if n else None
        return p, q, norm


@cache
def series(b: float, top: int) -> tuple:
    """(gamma_p, regulated gamma_q, q-difference norms) at offsets
    0 .. top of the chain b |sin(k/2)| from the closed forms, as lists of
    mpf; the norm at offset 0 is None."""
    with mp.workdps(DIGITS + 10):
        b = mp.mpf(b)
        p = [-b / (mp.pi * (4 * n * n - 1)) for n in range(top + 1)]
        q, total = [mp.mpf(0)], mp.mpf(0)
        for j in range(1, top + 1):
            total += mp.mpf(1) / (2 * j - 1)
            q.append(-2 / (mp.pi * b) * total)
        norms = [None] + [mp.sqrt(n) / b for n in range(1, top + 1)]
        return p, q, norms


@cache
def legendre(m: float, n: int) -> tuple:
    """(gamma_q(n), gamma_p(n), q-difference norm at delta = n) of the
    chain hypot(m, sin(k/2)), m > 0, as mpf: gamma_q(n) = Q_{n-1/2}(z) / pi
    with z = 1 + 2 m^2 (mpmath's legenq, type 3, real part), gamma_p(n) =
    A gamma_q(n) - (1/4)(gamma_q(n-1) + gamma_q(n+1)) with A = m^2 + 1/2,
    and the norm sqrt((1 - e^{-eta n}) / (2 m h)), cosh eta = z and
    h = sqrt(m^2 + 1); the norm is None at n = 0."""
    n = abs(n)
    with mp.workdps(DIGITS + 10):
        a = mp.mpf(m)
        z = 1 + 2 * a * a

        def q(j):
            return mp.re(mp.legenq(abs(j) - mp.mpf(1) / 2, 0, z,
                                   type=3)) / mp.pi

        p = (a * a + mp.mpf(1) / 2) * q(n) - (q(n - 1) + q(n + 1)) / 4
        eta = mp.acosh(z)
        norm = mp.sqrt(-mp.expm1(-eta * n) / (2 * a * mp.sqrt(a * a + 1))) \
            if n else None
        return q(n), p, norm


@cache
def harmonic_quadrature(m: float, n: int) -> tuple:
    """(gamma_q(n), q-difference norm at delta = n) of hypot(m, sin(k/2))
    by mp.quad of (1/pi) int_0^pi cos(k n) / (2 omega) dk and of
    (1/pi) int_0^pi sin^2(k n / 2) / omega^2 dk on n + 1 pieces, with a cut
    at k = m, where the integrands' peak ends; the norm is None at n = 0."""
    n = abs(n)
    with mp.workdps(DIGITS + 10):
        a = mp.mpf(m)
        cuts = sorted(set(mp.linspace(0, mp.pi, n + 2)) | {min(a, mp.pi)})

        def omega2(k):
            return a * a + mp.sin(k / 2) ** 2

        q = mp.quad(lambda k: mp.cos(k * n) / (2 * mp.sqrt(omega2(k))),
                    cuts) / mp.pi
        norm = mp.sqrt(mp.quad(lambda k: mp.sin(k * n / 2) ** 2 / omega2(k),
                               cuts) / mp.pi) if n else None
        return q, norm
