"""The inline samplers draw exactly what the stdlib calls they replace do.

The hot samplers and arrival generators run ``random.Random``'s own
algorithms inline (one Python frame per draw instead of three).  Each
test below drives one of them and a twin ``random.Random`` with the same
seed through the stdlib call, and checks that every value matches and
that both streams end in the same state, i.e. that the inline version
consumed exactly the same uniforms.  The stdlib stays the reference, so
this runs on every CI Python version.

Truncation to integer nanoseconds hides a last-ulp difference at
everyday magnitudes, so each float draw is also checked at magnitudes
near 1e16 ns, where a float's ulp is 1-2 ns and any change in the float
operations changes the integer.
"""

import random

import pytest

from repro.net.client import ClientMachine, _ClientWorkload
from repro.net.config import NetConfig
from repro.workloads.base import BurstySource, OpenLoopSource
from repro.workloads.memcached import (
    UsrPayloadSampler, UsrServiceSampler, memcached_app)
from repro.workloads.silo import SILO_SIGMA, TpccPayloadSampler, \
    silo_service_sampler
from repro.workloads.synthetic import LognormalService, randint

SEEDS = (0, 1, 7, 42, 2024)
DRAWS = 5_000
#: a median (ns) whose draws have an ulp of 2 or more
HUGE_NS = 1e16
#: a rate (Mops/s) with a ~6e15 ns mean gap, at which ``rate / 1000.0``
#: and the contract's ``1.0 / (1000.0 / rate)`` differ in the last bit
HUGE_GAP_RATE = 1.7e-13


class _RecordingSim:
    """Just enough of a Simulator to collect the gaps a generator posts."""

    def __init__(self):
        self.now = 0
        self.gaps = []

    def at(self, when, fn, *args):
        pass

    def post(self, delay, fn, *args):
        self.gaps.append(delay)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("median_ns,sigma", [
    (930, 0.22), (1450, 0.30), (20_000, SILO_SIGMA), (10_000, 0.35),
    (50, 2.5), (1_000, 0.0), (HUGE_NS, 0.5)])
def test_lognormal_service_matches_lognormvariate(seed, median_ns, sigma):
    rng, twin = random.Random(seed), random.Random(seed)
    sampler = LognormalService(median_ns, sigma, rng)
    for _ in range(DRAWS):
        assert sampler() == max(1, int(twin.lognormvariate(sampler.mu,
                                                           sigma)))
    assert rng.getstate() == twin.getstate()


@pytest.mark.parametrize("seed", SEEDS)
def test_silo_sampler_matches_lognormvariate(seed):
    rng, twin = random.Random(seed), random.Random(seed)
    sampler = silo_service_sampler(rng)
    draws = [sampler() for _ in range(DRAWS)]
    assert draws == [max(1, int(twin.lognormvariate(sampler.mu, SILO_SIGMA)))
                     for _ in range(DRAWS)]
    assert rng.getstate() == twin.getstate()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("huge", [False, True])
def test_usr_service_matches_coin_then_lognormvariate(seed, huge):
    rng, twin = random.Random(seed), random.Random(seed)
    sampler = UsrServiceSampler(rng)
    if huge:
        sampler._get = LognormalService(HUGE_NS, 0.22, rng)
        sampler._set = LognormalService(2 * HUGE_NS, 0.30, rng)
    get, set_ = sampler._get, sampler._set
    sets = 0
    for _ in range(DRAWS):
        chosen = get if twin.random() < 0.97 else set_
        sets += chosen is set_
        assert sampler() == max(1, int(twin.lognormvariate(chosen.mu,
                                                           chosen.sigma)))
    assert sets > 0  # both branches ran
    assert rng.getstate() == twin.getstate()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("a,b", [
    (16, 21), (2, 30), (64, 512), (0, 416), (0, 1536), (0, 192),
    (5, 5), (0, 1), (0, 255), (0, 256), (-3, 3)])
def test_randint_matches_stdlib(seed, a, b):
    rng, twin = random.Random(seed), random.Random(seed)
    for _ in range(DRAWS):
        assert randint(rng, a, b) == twin.randint(a, b)
    assert rng.getstate() == twin.getstate()


def test_randint_rejects_an_empty_range():
    with pytest.raises(ValueError):
        randint(random.Random(0), 3, 2)


@pytest.mark.parametrize("seed", SEEDS)
def test_usr_payload_matches_stdlib_randint(seed):
    rng, twin = random.Random(seed), random.Random(seed)
    sampler = UsrPayloadSampler(rng)
    for _ in range(DRAWS):
        key = twin.randint(16, 21)
        value = twin.randint(2, 30) if twin.random() < 0.95 \
            else twin.randint(64, 512)
        expected = (24 + key, 32 + value) if twin.random() < 0.97 \
            else (32 + key + value, 8)
        assert sampler() == expected
    assert rng.getstate() == twin.getstate()


@pytest.mark.parametrize("seed", SEEDS)
def test_tpcc_payload_matches_stdlib_randint(seed):
    rng, twin = random.Random(seed), random.Random(seed)
    sampler = TpccPayloadSampler(rng)
    for _ in range(DRAWS):
        bytes_in = 96 + twin.randint(0, 416)
        bytes_out = 512 + twin.randint(0, 1536) if twin.random() < 0.55 \
            else 64 + twin.randint(0, 192)
        assert sampler() == (bytes_in, bytes_out)
    assert rng.getstate() == twin.getstate()


def _expected_gaps(twin, rates):
    return [max(1, int(twin.expovariate(1.0 / (1000.0 / rate))))
            for rate in rates]


@pytest.mark.parametrize("seed", SEEDS)
def test_source_gap_matches_expovariate_across_rate_changes(seed):
    rng, twin = random.Random(seed), random.Random(seed)
    sim = _RecordingSim()
    source = OpenLoopSource(sim, memcached_app(), lambda request: None,
                            rate_mops=1.7, service_sampler=lambda: 1_000,
                            rng=rng)
    rates = [1.7] * DRAWS + [0.3] * DRAWS + [123.0] * DRAWS \
        + [HUGE_GAP_RATE] * DRAWS
    for index, rate in enumerate(rates):
        if index and rate != rates[index - 1]:
            source.rate_mops = rate  # what a LoadShaper phase does
        source._tick()
    assert source.rate_mops == HUGE_GAP_RATE
    assert sim.gaps == _expected_gaps(twin, rates)
    assert rng.getstate() == twin.getstate()


@pytest.mark.parametrize("seed", SEEDS)
def test_bursty_source_gap_matches_expovariate_in_both_phases(seed):
    rng, twin = random.Random(seed), random.Random(seed)
    sim = _RecordingSim()
    source = BurstySource(sim, memcached_app(), lambda request: None,
                          rate_mops=2.0, service_sampler=lambda: 1_000,
                          rng=rng, burst_factor=4.0)
    base = source.rate_mops
    expected = []
    for burst in (False, True, False, True):
        if burst != source._in_burst:
            source._toggle_phase()
            mean = source.burst_mean_ns if burst else source.calm_mean_ns
            expected.append(max(1, int(twin.expovariate(1.0 / mean))))
        for _ in range(DRAWS):
            source._tick()
        expected += _expected_gaps(twin, [base * (4.0 if burst else 1.0)]
                                   * DRAWS)
    assert sim.gaps == expected
    assert rng.getstate() == twin.getstate()


@pytest.mark.parametrize("seed", SEEDS)
def test_client_gap_matches_expovariate_across_rate_changes(seed):
    rng, twin = random.Random(seed), random.Random(seed)
    sim = _RecordingSim()
    machine = ClientMachine(sim, 0, fabric=None, cfg=NetConfig())
    machine._send_new = lambda workload, conn_id: None
    workload = _ClientWorkload(memcached_app(), lambda: 1_000, None,
                               conn_ids=[0, 1, 2], rate_mops=0.9, rng=rng)
    rates = [0.9] * DRAWS + [4.2] * DRAWS + [0.05] * DRAWS \
        + [HUGE_GAP_RATE] * DRAWS
    for rate in rates:
        workload.rate_mops = rate
        machine._open_loop_tick(workload)
    assert sim.gaps == _expected_gaps(twin, rates)
    assert rng.getstate() == twin.getstate()
