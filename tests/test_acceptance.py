"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import itertools
import math
import time
from dataclasses import replace

import numpy as np

from pipediff import (
    GearTrainConfig,
    LoadState,
    free,
    imposed_speed,
    imposed_torque,
    render_trace,
    run,
    solve_output_speeds,
)
from pipediff.geometry import module_cosines
from pipediff.kinematics import demanded_speeds


def _criterion(name: str, ok: bool) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    return ok


def _random_load(rng):
    kind = rng.integers(0, 3)
    value = float(rng.uniform(-50.0, 50.0))
    if kind == 0:
        return free()
    if kind == 1:
        return imposed_speed(value)
    return imposed_torque(value)


def test_criterion_1_differential_invariant_suite():
    rng = np.random.default_rng(20260809)
    started = time.monotonic()
    ok = True
    for trial in range(10_000):
        ratio = float(rng.uniform(0.2, 5.0))
        omega_u = float(rng.uniform(-20.0, 20.0))
        cfg = GearTrainConfig(ratio=ratio)
        target = 3.0 * ratio * omega_u

        loads = tuple(_random_load(rng) for _ in range(3))
        if sum(1 for l in loads if l.kind.value == "speed") == 3:
            loads = (free(),) + loads[1:]

        solution = solve_output_speeds(cfg, omega_u, LoadState(loads))
        speeds = solution.as_tuple()
        ok &= abs(math.fsum(speeds) - target) <= 1e-9 * max(1.0, abs(target))

        # permutation equivariance, exact
        for perm in itertools.permutations(range(3)):
            permuted = solve_output_speeds(
                cfg, omega_u, LoadState(tuple(loads[p] for p in perm))
            ).as_tuple()
            ok &= permuted == tuple(speeds[p] for p in perm)

        # equal-load equality, exact
        if trial % 5 == 0:
            tau = float(rng.uniform(-50.0, 50.0))
            expected = ratio * omega_u
            for equal in (LoadState.all_free(), LoadState.equal_torques(tau)):
                ok &= solve_output_speeds(cfg, omega_u, equal).as_tuple() == (
                    expected,
                ) * 3

        # two-equal-load equality, exact
        if trial % 5 == 1:
            w = float(rng.uniform(-50.0, 50.0))
            tau = float(rng.uniform(-50.0, 50.0))
            for pair in ((free(), free()), (imposed_torque(tau), imposed_torque(tau))):
                sol = solve_output_speeds(
                    cfg, omega_u, LoadState((imposed_speed(w),) + pair)
                )
                ok &= sol.omega_b == sol.omega_c and sol.omega_a == w

    elapsed = time.monotonic() - started
    ok &= elapsed < 5.0
    assert _criterion(
        f"criterion 1: differential invariants over 10000 load states ({elapsed:.2f} s)", ok
    )


def test_criterion_2_bend_geometry_identity():
    rng = np.random.default_rng(42)
    ok = True
    for _ in range(1_000):
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        radius = float(rng.uniform(50.0, 2000.0))
        r_c = float(rng.uniform(0.0, 0.95)) * radius
        v_nominal = float(rng.uniform(1.0, 200.0))
        rhos = [radius - r_c * c for c in module_cosines(theta)]
        ok &= abs(math.fsum(rhos) - 3.0 * radius) <= 1e-12 * 3.0 * radius
        speeds = demanded_speeds([radius], theta, v_nominal, r_c)[0]
        ok &= abs(math.fsum(speeds) / 3.0 - v_nominal) <= 1e-12 * v_nominal
    assert _criterion("criterion 2: bend path radii sum to 3R and speeds keep the mean", ok)


def test_criterion_3_no_slip_everywhere(reference_scenario):
    sc = reference_scenario
    net = sc.network
    kinds = run(net, sc.robot, sc.gear, sc.sim)[1].segments.kind
    ok = "straight" in kinds and "bend 90deg" in kinds and "bend 180deg" in kinds
    for theta in (0.0, 120.0, 240.0):
        records, summary = run(
            net, sc.robot, sc.gear, replace(sc.sim, theta_deg=theta)
        )
        ok &= summary.completed
        ok &= all(max(record.slip) <= 1e-9 for record in records)
    assert _criterion(
        "criterion 3: slip <= 1e-9 mm/s at every record for theta in {0, 120, 240} deg", ok
    )


def test_criterion_4_published_number_calibration(reference_scenario):
    sc = reference_scenario
    net = sc.network
    started = time.monotonic()
    records, summary = run(net, sc.robot, sc.gear, sc.sim)
    elapsed = time.monotonic() - started

    ok = summary.completed
    segments = summary.segments
    ok &= segments.index == (0, 1, 2, 3)
    straight_delta = segments.max_compression[0]

    # inner track (A at theta = 0) elbow mean speed: 33.62 mm/s within 2 %
    inner = segments.mean_speeds[0][1]
    ok &= abs(inner - 33.62) <= 0.02 * 33.62

    # timings within 10 %
    ok &= abs(segments.exit_time[0] - 9.0) <= 0.9
    ok &= abs(segments.exit_time[1] - 24.0) <= 2.4
    ok &= abs(summary.total_time - 60.0) <= 6.0

    # bend compression sits 1.5 +- 0.2 mm above the straight value on the
    # fully in-plane (affected) module
    for index in (1, 3):
        increment = segments.max_compression[index] - straight_delta
        ok &= abs(increment - 1.5) <= 0.2

    ok &= elapsed < 10.0
    assert _criterion(
        "criterion 4: 33.62 mm/s inner elbow speed, 9/24/60 s timings, "
        f"+1.5 mm bend compression ({elapsed:.2f} s)",
        ok,
    )


def test_criterion_5_ape_pipeline(reference_scenario):
    sc = reference_scenario
    net = sc.network

    noisy = replace(sc.sim, disturbance_amplitude=0.025, disturbance_seed=42)
    _, summary = run(net, sc.robot, sc.gear, noisy)
    ok = summary.completed
    for track in summary.segments.ape:
        for ape in track:
            ok &= ape is not None and 0.0 < ape <= 2.6

    _, clean = run(net, sc.robot, sc.gear, sc.sim)
    for track in clean.segments.ape:
        ok &= track == (0.0,) * len(clean.segments.index)
    assert _criterion(
        "criterion 5: windowed APE in (0, 2.6] with 2.5 % disturbance, exactly 0 without",
        ok,
    )


def test_criterion_6_limits_enforcement(reference_scenario):
    sc = reference_scenario
    net = sc.network

    # compression overrun: a 200 mm body needs ~19.9 mm in the elbow
    big = replace(sc.robot, length=200.0, max_tilt_deg=30.0)
    records, summary = run(net, big, sc.gear, sc.sim)
    ok = not summary.completed
    ok &= summary.error is not None and "compression" in summary.error
    ok &= len(records) > 0 and all(r.segment == 0 for r in records)

    # tilt overrun: a 140 mm body tilts 12.1 deg at R = 335, limit 10 deg
    tilty = replace(sc.robot, length=140.0)
    records, summary = run(net, tilty, sc.gear, sc.sim)
    ok &= not summary.completed
    ok &= summary.error is not None and "asymmetric" in summary.error
    ok &= len(records) > 0
    assert _criterion(
        "criterion 6: compression > 16 mm and tilt > phi abort with partial traces", ok
    )


def test_criterion_7_numerical_hygiene(reference_scenario):
    sc = reference_scenario
    net = sc.network

    records, summary = run(net, sc.robot, sc.gear, sc.sim)
    _, halved = run(net, sc.robot, sc.gear, replace(sc.sim, dt=sc.sim.dt / 2.0))
    ok = abs(halved.total_time - summary.total_time) / summary.total_time < 0.005

    # per-track bend distance matches rho_i * sweep within an O(dt) bound
    theta = sc.sim.theta_rad
    tol = 3.0 * summary.nominal_speed * sc.sim.dt
    groups = {}
    for record in records:
        groups.setdefault(record.segment, []).append(record)
    for index in (1, 3):
        bend = net.segments[index]
        entry = groups[index][0]
        following = groups.get(index + 1)
        exit_record = following[0] if following else records[-1]
        for i, c in enumerate(module_cosines(theta)):
            rho = bend.radius - net.spec.inner_radius * c
            travelled = exit_record.distance[i] - entry.distance[i]
            ok &= abs(travelled - rho * bend.sweep_rad) <= tol

    # byte-identical traces across repeated runs
    again, _ = run(net, sc.robot, sc.gear, sc.sim)
    ok &= render_trace(records).encode() == render_trace(again).encode()
    assert _criterion(
        "criterion 7: dt convergence < 0.5 %, bend distance closure, byte-stable CSV", ok
    )
