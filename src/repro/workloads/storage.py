"""A storage-backed latency app (exercises §5.2.5 + §4.4 park-on-block).

Models a RocksDB-like service: every request parses and looks up in
memory (CPU phase 1); a fraction of requests miss the cache and read a
block from an NVMe-class device (the thread parks for ~10 µs while the
IO is in flight), then finish with a second CPU phase.
"""

from __future__ import annotations

import random
from math import log
from typing import Optional

from repro.sim.engine import Simulator
from repro.workloads.base import App, AppKind, OpenLoopSource, Request
from repro.workloads.synthetic import LognormalService

DEFAULT_CPU1_NS = 1200
DEFAULT_CPU2_NS = 800
DEFAULT_IO_MISS_FRACTION = 0.2
DEFAULT_IO_MEDIAN_NS = 10_000
DEFAULT_IO_SIGMA = 0.35


def storage_app(name: str = "rocksdb") -> App:
    mean = DEFAULT_CPU1_NS + DEFAULT_IO_MISS_FRACTION * DEFAULT_CPU2_NS
    return App(name, AppKind.LATENCY, mean_service_ns=mean)


class StorageRequestSource(OpenLoopSource):
    """Open-loop source emitting requests that may park on storage IO."""

    def __init__(self, sim: Simulator, app: App, submit, rate_mops: float,
                 rng: random.Random,
                 miss_fraction: float = DEFAULT_IO_MISS_FRACTION,
                 cpu1_ns: int = DEFAULT_CPU1_NS,
                 cpu2_ns: int = DEFAULT_CPU2_NS,
                 io_median_ns: int = DEFAULT_IO_MEDIAN_NS,
                 connections: int = 1,
                 stop_ns: Optional[int] = None) -> None:
        if not 0.0 <= miss_fraction <= 1.0:
            raise ValueError(f"miss_fraction out of range: {miss_fraction}")
        self.miss_fraction = miss_fraction
        self.cpu1_ns = cpu1_ns
        self.cpu2_ns = cpu2_ns
        self._io_sampler = LognormalService(io_median_ns, DEFAULT_IO_SIGMA,
                                            rng)
        self._miss_rng = rng
        super().__init__(sim, app, submit, rate_mops,
                         service_sampler=lambda: cpu1_ns, rng=rng,
                         connections=connections, stop_ns=stop_ns)
        self.io_requests = 0

    def _tick(self) -> None:
        if self.stop_ns is not None and self.sim.now >= self.stop_ns:
            return
        request = Request(self.app, self.sim.now, self.cpu1_ns,
                          self.generated % self.connections)
        if self._miss_rng.random() < self.miss_fraction:
            request.io_wait_ns = self._io_sampler()
            request.post_io_service_ns = self.cpu2_ns
            self.io_requests += 1
        self.generated += 1
        self.submit(request)
        gap = int(-log(1.0 - self.rng.random())
                  / (1.0 / (1000.0 / self.rate_mops)))
        self.sim.post(gap if gap > 0 else 1, self._tick)
