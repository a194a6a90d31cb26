"""Tests for the §5.2 workload orchestrators (on a small scaled star)."""

import random

import pytest

from repro.core import AcdcVswitch
from repro.metrics import FctRecorder
from repro.net.topology import star
from repro.sim import Simulator
from repro.workloads.apps import BulkSender, Sink
from repro.workloads.generators import (
    APPS_PER_HOST,
    MESSAGES_PER_APP,
    ConcurrentStride,
    Shuffle,
    TraceDriven,
)
from repro.workloads.traces import web_search


@pytest.fixture
def small_star():
    sim = Simulator()
    topo, hosts, switch = star(sim, 6, rate_bps=1e9, mtu=1500,
                               ecn_enabled=True, ecn_threshold_bytes=30_000)
    for h in hosts:
        h.attach_vswitch(AcdcVswitch(h))
    return sim, hosts, switch


def incast(sim, senders, receiver, size_bytes=None, start_jitter=()):
    """N-to-1 BulkSenders into one Sink, sender *i* starting at
    ``start_jitter[i]`` (default 0)."""
    Sink(receiver, 5000)
    return [BulkSender(sim, s, receiver.addr, 5000, size_bytes=size_bytes,
                       start_at=(start_jitter[i] if i < len(start_jitter)
                                 else 0.0))
            for i, s in enumerate(senders)]


def test_incast_generator_starts_all_flows(small_star):
    sim, hosts, switch = small_star
    flows = incast(sim, hosts[1:], hosts[0], size_bytes=100_000)
    sim.run(until=0.5)
    assert len(flows) == 5
    for flow in flows:
        assert flow.bytes_acked == 100_000


def test_incast_generator_jitter(small_star):
    sim, hosts, switch = small_star
    flows = incast(sim, hosts[1:3], hosts[0], start_jitter=[0.0, 0.2])
    sim.run(until=0.1)
    assert flows[0].conn is not None
    assert flows[1].conn is None  # not started yet
    sim.run(until=0.3)
    assert flows[1].conn is not None


def test_concurrent_stride_structure(small_star):
    sim, hosts, switch = small_star
    rec = FctRecorder()
    ConcurrentStride(sim, hosts, rec, background_bytes=200_000,
                     duration=0.2)
    sim.run(until=0.8)
    # 6 hosts x 4 background transfers (stride 4), each completed once.
    assert len(rec.completed("background")) == 24
    # Mice at t≈0(stagger)..0.2 every 100 ms: >= 2 per host.
    assert len(rec.completed("mice")) >= 2 * 6
    assert rec.completion_fraction("mice") == 1.0


def test_shuffle_runs_to_completion(small_star):
    sim, hosts, switch = small_star
    rec = FctRecorder()
    shuffle = Shuffle(sim, hosts, rec, block_bytes=100_000,
                      rng=random.Random(3), fanout=2,
                      mice_bytes=4_000, mice_interval=0.05, mice_until=0.2)
    sim.run(until=2.0)
    assert shuffle.finished()
    # All-to-all: 6*5 transfers.
    assert len(rec.completed("background")) == 30


def test_shuffle_fanout_bound(small_star):
    sim, hosts, switch = small_star
    rec = FctRecorder()
    shuffle = Shuffle(sim, hosts, rec, block_bytes=50_000,
                      rng=random.Random(3), fanout=2, mice_until=0.0)
    max_active = {"n": 0}

    def watch():
        max_active["n"] = max(max_active["n"],
                              max(shuffle._active.values()))
        sim.schedule(0.001, watch)

    sim.schedule(0.0, watch)
    sim.run(until=1.0)
    assert max_active["n"] <= 2


def test_trace_driven_labels_by_size(small_star):
    sim, hosts, switch = small_star
    rec = FctRecorder()
    TraceDriven(sim, hosts, rec, web_search(scale=0.01, max_bytes=200_000),
                rng=random.Random(9))
    sim.run(until=2.0)
    mice = rec.completed("mice")
    elephants = rec.completed("elephant")
    assert mice and elephants
    assert all(r.size_bytes < 10_000 for r in mice)
    assert all(r.size_bytes >= 10_000 for r in elephants)
    total = len(mice) + len(elephants)
    assert total == 6 * APPS_PER_HOST * MESSAGES_PER_APP  # all completed
