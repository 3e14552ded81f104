"""Silo stressed with TPC-C (§6.1).

"TPC-C has high service time variability (20 µs at median and 280 µs at
the 99.9th percentile)."  A lognormal with median 20 µs and sigma chosen
so that P999 = 280 µs reproduces exactly those two quantiles:
sigma = ln(280/20) / z(0.999) = ln(14) / 3.0902 ≈ 0.854.
"""

from __future__ import annotations

import math
import random

from repro.workloads.base import App, AppKind
from repro.workloads.synthetic import LognormalService, randint

SILO_MEDIAN_SERVICE_NS = 20_000
SILO_P999_SERVICE_NS = 280_000
_Z_999 = 3.0902
SILO_SIGMA = math.log(SILO_P999_SERVICE_NS / SILO_MEDIAN_SERVICE_NS) / _Z_999


def silo_service_sampler(rng: random.Random) -> LognormalService:
    return LognormalService(median_ns=SILO_MEDIAN_SERVICE_NS,
                            sigma=SILO_SIGMA, rng=rng)


class TpccPayloadSampler:
    """(bytes_in, bytes_out) for TPC-C transactions over the wire.

    A transaction request ships its parameters (warehouse/district ids
    plus 5-15 order lines for new-order, ~100-500 B total); the response
    carries the result rows — new-order and stock-level replies run to a
    couple of kilobytes, payment/delivery acks are small.
    """

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng

    def __call__(self) -> tuple:
        rng = self.rng
        bytes_in = 96 + randint(rng, 0, 416)
        if rng.random() < 0.55:               # result-heavy transactions
            bytes_out = 512 + randint(rng, 0, 1536)
        else:                                  # short acks
            bytes_out = 64 + randint(rng, 0, 192)
        return bytes_in, bytes_out


def silo_app(name: str = "silo") -> App:
    sampler = LognormalService(SILO_MEDIAN_SERVICE_NS, SILO_SIGMA,
                               random.Random(0))
    return App(name, AppKind.LATENCY, mean_service_ns=sampler.mean_ns)
