import math

import numpy as np
import pytest

from apvar import sieve_dk


def smallest_prime_factors(limit):
    """spf[n] = the least prime factor of n for 2 <= n <= limit (int32), by
    the sieve of Eratosthenes: the factorization oracle of the tests."""
    if limit < 2:
        raise ValueError(f"factor table limit must be >= 2, got {limit}")
    spf = np.zeros(limit + 1, dtype=np.int32)
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == 0:
            block = spf[p * p :: p]
            block[block == 0] = p
    remaining = np.nonzero(spf[2:] == 0)[0] + 2
    spf[remaining] = remaining
    return spf


@pytest.fixture(scope="session")
def spf_builder():
    return smallest_prime_factors


@pytest.fixture(scope="session")
def spf_table_1e7():
    return smallest_prime_factors(10**7)


@pytest.fixture(scope="session")
def table_k2_1e4():
    return sieve_dk(10**4, 2)


@pytest.fixture(scope="session")
def table_k3_1e4():
    return sieve_dk(10**4, 3)


@pytest.fixture(scope="session")
def table_k2_1e6():
    return sieve_dk(10**6, 2)


@pytest.fixture(scope="session")
def table_k3_1e6():
    return sieve_dk(10**6, 3)


@pytest.fixture(scope="session")
def table_k4_1e6():
    return sieve_dk(10**6, 4)
