"""Speed gates: each cycle engine's speed against another's, same host.

Each gate times two engines back to back on one fixed point and holds
the median ratio to a floor or ceiling; each also asserts that both
sides return the same result, so no gate can pass on engines that
disagree:

- the flat engine (``cycle``) >= 3x the frozen seed engine
  (:mod:`repro.sim.reference`) on SF q=5, MIN, uniform, load 0.6;
- ``cycle-vec`` >= 5x the flat engine at q=11, where its numpy
  batches are as wide as campaigns run them;
- closed-loop ``cycle-vec`` >= 3x the flat engine on a q=11 halo2d
  over 2,048 ranks;
- telemetry at the q=11 ``cycle-vec`` point: an all-off spec costs
  < 3% (it normalises to no probes at all), the full probe set < 25%.

What a user waits for is timed end to end by ``benchmarks/e2e``
(``BENCHMARK.json``); ``BENCH_e2e.json`` keeps its medians per change.
Run with ``-s`` to see each ratio::

    PYTHONPATH=src python -m pytest benchmarks/test_speed_gates.py -q -s
"""

import time

import pytest

from repro.routing import MinimalRouting, RoutingTables
from repro.sim import (
    SimConfig,
    TelemetrySpec,
    simulate,
    simulate_workload,
    vec_simulate,
    vec_simulate_workload,
)
from repro.sim.reference import ReferenceMinimalRouting, reference_simulate
from repro.topologies import SlimFly
from repro.traffic import UniformRandom
from repro.workloads import make_workload, spread_placement

#: The open-loop point: Fig 6 quick-scale windows, near-peak load.
LOAD = 0.6
CONFIG = SimConfig(warmup_cycles=150, measure_cycles=350, drain_cycles=1200, seed=1)
SEED_SPEEDUP_FLOOR = 3.0
#: Measured ~7x at q=11 (and ~2x at q=5, where numpy's per-call
#: dispatch dominates); the floor leaves margin for noisy runners.
VEC_SPEEDUP_FLOOR = 5.0
#: Closed-loop batch width tracks the *active* endpoints, so the gate
#: runs a near-full-machine halo2d (2,048 of 2,178 endpoints).
CLOSED_LOOP_SPEEDUP_FLOOR = 3.0
CLOSED_LOOP_CONFIG = SimConfig(seed=1)
#: The off ceiling is pure measurement-noise margin: an all-off spec
#: never reaches the tick loop.  Full probes add per-delivery
#: histogram updates and per-tick channel counters.
TELEMETRY_OFF_CEILING = 1.03
TELEMETRY_ON_CEILING = 1.25


def _median_pair_ratio(run_a, run_b, pairs):
    """Median over ``pairs`` of CPU time(run_b) / CPU time(run_a).

    Each pair times the two sides back to back with
    ``time.process_time`` (immune to preemption by neighbours), so a
    slow machine phase hits both sides of a ratio, and the median
    discards the odd pair that straddled a frequency or cache
    transition.  Returns the ratio and each side's last result.
    """
    ratios = []
    for _ in range(pairs):
        t0 = time.process_time()
        res_a = run_a()
        t1 = time.process_time()
        res_b = run_b()
        ratios.append((time.process_time() - t1) / (t1 - t0))
    ratios.sort()
    return ratios[len(ratios) // 2], res_a, res_b


def _network(q):
    sf = SlimFly.from_q(q)
    tables = RoutingTables(sf.adjacency)
    tables.next_hop_matrix()  # build the shared tables outside the timed runs
    return sf, tables, UniformRandom(sf.num_endpoints)


@pytest.fixture(scope="module")
def sf11():
    return _network(11)


def test_flat_engine_over_seed_engine():
    sf, tables, traffic = _network(5)
    speedup, flat, seed = _median_pair_ratio(
        lambda: simulate(sf, MinimalRouting(tables), traffic, LOAD, CONFIG),
        lambda: reference_simulate(
            sf, ReferenceMinimalRouting(tables), traffic, LOAD, CONFIG
        ),
        pairs=7,
    )
    assert flat == seed, "engines diverged: the speedup would be meaningless"
    assert flat.delivered == flat.injected and not flat.saturated
    assert vec_simulate(sf, MinimalRouting(tables), traffic, LOAD, CONFIG) == flat
    print(f"\ncycle {speedup:.2f}x the seed engine at q=5 (floor {SEED_SPEEDUP_FLOOR}x)")
    assert speedup >= SEED_SPEEDUP_FLOOR


def test_vec_engine_over_flat_at_q11(sf11):
    sf, tables, traffic = sf11
    speedup, vec, flat = _median_pair_ratio(
        lambda: vec_simulate(sf, MinimalRouting(tables), traffic, LOAD, CONFIG),
        lambda: simulate(sf, MinimalRouting(tables), traffic, LOAD, CONFIG),
        pairs=3,
    )
    assert vec == flat, "engines diverged: the speedup would be meaningless"
    print(f"\ncycle-vec {speedup:.2f}x cycle at q=11 (floor {VEC_SPEEDUP_FLOOR}x)")
    assert speedup >= VEC_SPEEDUP_FLOOR


def test_closed_loop_vec_engine_over_flat_at_q11(sf11):
    sf, tables, _ = sf11
    wl = make_workload(
        "halo2d", 2048, 128, iterations=2, endpoints=spread_placement(sf, 2048)
    )
    speedup, vec, flat = _median_pair_ratio(
        lambda: vec_simulate_workload(sf, MinimalRouting(tables), wl, CLOSED_LOOP_CONFIG),
        lambda: simulate_workload(sf, MinimalRouting(tables), wl, CLOSED_LOOP_CONFIG),
        pairs=3,
    )
    assert vec == flat, "engines diverged: the speedup would be meaningless"
    assert vec.finished
    print(
        f"\nclosed-loop cycle-vec {speedup:.2f}x cycle at q=11 "
        f"(floor {CLOSED_LOOP_SPEEDUP_FLOOR}x)"
    )
    assert speedup >= CLOSED_LOOP_SPEEDUP_FLOOR


def test_telemetry_overhead_at_q11(sf11):
    """The probe plane's overhead contract (DESIGN.md, telemetry)."""
    sf, tables, traffic = sf11

    def run(telemetry=None):
        return lambda: vec_simulate(
            sf, MinimalRouting(tables), traffic, LOAD, CONFIG, telemetry=telemetry
        )

    off, plain, off_res = _median_pair_ratio(run(), run(TelemetrySpec()), pairs=3)
    assert off_res == plain and off_res.telemetry is None
    on, plain, on_res = _median_pair_ratio(run(), run(TelemetrySpec.full()), pairs=3)
    assert on_res.telemetry is not None
    assert (on_res.avg_latency, on_res.delivered, on_res.accepted_load) == (
        plain.avg_latency, plain.delivered, plain.accepted_load
    )
    print(
        f"\ntelemetry at q=11 cycle-vec: off {off:.3f}x "
        f"(ceiling {TELEMETRY_OFF_CEILING}x), full probes {on:.3f}x "
        f"(ceiling {TELEMETRY_ON_CEILING}x)"
    )
    assert off < TELEMETRY_OFF_CEILING
    assert on < TELEMETRY_ON_CEILING
