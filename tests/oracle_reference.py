"""Reference values of the massless chain's exact covariance in mpmath.

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
