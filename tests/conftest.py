import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240814)


def random_hurwitz(rng, n: int, margin: float = 0.2) -> np.ndarray:
    """Random real matrix shifted left of -margin."""
    A = rng.standard_normal((n, n))
    top = float(np.max(np.linalg.eigvals(A).real))
    return A - (top + margin) * np.eye(n)


def random_system(rng, n: int, m: int = 1, p: int = 1, margin: float = 0.2):
    from modalstab import StateSpaceSystem

    A = random_hurwitz(rng, n, margin)
    B = rng.standard_normal((n, m))
    C = rng.standard_normal((p, n))
    return StateSpaceSystem(A, B, C)


def mp_lyapunov(S, Q, dps: int = 40):
    """The mpmath matrix P solving S^* P + P S = -Q, by a Kronecker solve at
    dps digits: row i + n j of the system is entry (i, j) of the equation."""
    import mpmath

    n = len(S)
    with mpmath.workdps(dps):
        K = mpmath.zeros(n * n, n * n)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    K[i + n * j, k + n * j] += mpmath.conj(mpmath.mpmathify(S[k][i]))
                    K[i + n * j, i + n * k] += mpmath.mpmathify(S[k][j])
        rhs = mpmath.matrix([-mpmath.mpmathify(Q[i][j]) for j in range(n) for i in range(n)])
        p = mpmath.lu_solve(K, rhs)
        return mpmath.matrix([[p[i + n * j] for j in range(n)] for i in range(n)])


def eig_match_distance(a, b) -> float:
    """Greedy nearest-neighbor multiset distance between two spectra.

    Sorting complex eigenvalues is unstable when real parts tie to roundoff
    (conjugate pairs swap); matching each value to its nearest partner is not.
    """
    a = list(np.asarray(a, dtype=complex).ravel())
    b = list(np.asarray(b, dtype=complex).ravel())
    assert len(a) == len(b)
    worst = 0.0
    for z in a:
        j = int(np.argmin([abs(z - w) for w in b]))
        worst = max(worst, abs(z - b.pop(j)))
    return worst
