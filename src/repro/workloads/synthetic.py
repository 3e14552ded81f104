"""Service-time distributions.

Each sampler is a callable returning an integer nanosecond service time;
they carry their analytic mean so capacity math does not need sampling.

The hot samplers run the standard library's own algorithms inline (the
same uniforms, in the same order, through the same float operations),
so a draw costs one Python frame instead of three and every draw stays
bit-identical to the ``random.Random`` method it replaces;
``tests/workloads/test_stdlib_draws.py`` pins each one to its stdlib
reference.
"""

from __future__ import annotations

import random
from math import exp, log
from random import NV_MAGICCONST


def randint(rng: random.Random, a: int, b: int) -> int:
    """``rng.randint(a, b)`` in one frame.

    The stdlib goes randint -> randrange -> _randbelow, which draws
    ``getrandbits(k)`` for the width's bit length until the draw falls
    below the width; this repeats that rejection loop.
    """
    n = b - a + 1
    if n <= 0:
        raise ValueError(f"empty range for randint({a}, {b})")
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return a + r


class ServiceSampler:
    """Base: callable with a known mean."""

    mean_ns: float

    def __call__(self) -> int:
        raise NotImplementedError


class ConstantService(ServiceSampler):
    """Deterministic service time."""

    def __init__(self, service_ns: int) -> None:
        if service_ns <= 0:
            raise ValueError(f"service time must be positive: {service_ns}")
        self.service_ns = int(service_ns)
        self.mean_ns = float(service_ns)

    def __call__(self) -> int:
        return self.service_ns


class ExponentialService(ServiceSampler):
    """Exponential service time (the classic M/M/k assumption)."""

    def __init__(self, mean_ns: float, rng: random.Random) -> None:
        if mean_ns <= 0:
            raise ValueError(f"mean must be positive: {mean_ns}")
        self.mean_ns = float(mean_ns)
        self.rng = rng

    def __call__(self) -> int:
        return max(1, int(self.rng.expovariate(1.0 / self.mean_ns)))


class LognormalService(ServiceSampler):
    """Lognormal service time parameterized by median and sigma."""

    def __init__(self, median_ns: float, sigma: float,
                 rng: random.Random) -> None:
        if median_ns <= 0 or sigma < 0:
            raise ValueError("median must be positive and sigma >= 0")
        self.mu = log(median_ns)
        self.sigma = sigma
        self.mean_ns = median_ns * exp(sigma * sigma / 2.0)
        self.rng = rng

    def __call__(self) -> int:
        # rng.lognormvariate(mu, sigma): exp of normalvariate's
        # Kinderman-Monahan ratio-of-uniforms draw.
        random = self.rng.random
        while True:
            u1 = random()
            u2 = 1.0 - random()
            z = NV_MAGICCONST * (u1 - 0.5) / u2
            if z * z / 4.0 <= -log(u2):
                break
        return max(1, int(exp(self.mu + z * self.sigma)))


class BimodalService(ServiceSampler):
    """Two-point mixture (short fast path, occasional slow path)."""

    def __init__(self, fast_ns: int, slow_ns: int, slow_fraction: float,
                 rng: random.Random) -> None:
        if not 0.0 <= slow_fraction <= 1.0:
            raise ValueError(f"slow_fraction out of range: {slow_fraction}")
        self.fast_ns = int(fast_ns)
        self.slow_ns = int(slow_ns)
        self.slow_fraction = slow_fraction
        self.rng = rng
        self.mean_ns = (fast_ns * (1 - slow_fraction)
                        + slow_ns * slow_fraction)

    def __call__(self) -> int:
        if self.rng.random() < self.slow_fraction:
            return self.slow_ns
        return self.fast_ns
