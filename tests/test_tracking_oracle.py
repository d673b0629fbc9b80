"""The paper's tracking theorem as an exact oracle through ``run_closed_loop``.

Under exact cancellation every node's position error obeys
``e'' + kv e' + kp e = 0``, so node by node
``(e, e')(t) = expm(t [[0, 1], [-kp, -kv]]) (e, e')(0)``; the runner's
``ep_sup`` and ``ev_sup`` are the sups over nodes of that closed form.  The
attitude energy ``V2`` of the Lyapunov monitor cannot rise.  Neither claim
depends on the spatial stencil or on last-bit rounding, so both judge a
change that moves output bits.
"""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from softrod import GainProfile, lyapunov_value, make_initial_state, run_closed_loop, tracking_errors
from softrod.harness import FEEDBACK_MODES, SCENARIOS, RunConfig


def closed_form_sups(cfg, times):
    """``(sup |e|, sup |e'|)`` over nodes of the closed-form position error at each time."""
    grid = cfg.grid()
    plant = make_initial_state(grid, cfg.scenario)
    ref = cfg.trajectory(grid).evaluate(grid.s, 0.0)
    e0, de0 = plant.p - ref.p, plant.v - ref.v
    e0[0] = de0[0] = 0.0  # the clamped node
    a = np.array([[0.0, 1.0], [-cfg.kp, -cfg.kv]])
    sups = []
    for t in times:
        m = scipy.linalg.expm(t * a)
        e = m[0, 0] * e0 + m[0, 1] * de0
        de = m[1, 0] * e0 + m[1, 1] * de0
        sups.append((np.linalg.norm(e, axis=1).max(), np.linalg.norm(de, axis=1).max()))
    return np.array(sups)


def assert_records_follow_closed_form(cfg, records):
    measured = np.array([(rec.ep_sup, rec.ev_sup) for rec in records])
    expected = closed_form_sups(cfg, [rec.t for rec in records])
    assert np.all(np.abs(measured - expected) <= 1e-10 * expected)


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_position_errors_follow_the_closed_form(scenario):
    configs = {
        feedback: RunConfig(
            scenario=scenario,
            feedback=feedback,
            initial_covariance=0.0,
            duration=0.2,
            log_every=10,
        )
        for feedback in FEEDBACK_MODES
    }
    records = {feedback: run_closed_loop(cfg).records for feedback, cfg in configs.items()}
    assert len(records["true"]) == 101
    # a zero prior makes the estimate replay the plant: same numbers
    assert records["estimated"] == records["true"]
    assert_records_follow_closed_form(configs["true"], records["true"])


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_attitude_energy_never_rises(scenario):
    cfg = RunConfig(
        scenario=scenario, initial_covariance=0.0, duration=0.1, log_every=1, snapshot_every=1
    )
    snapshots = run_closed_loop(cfg).snapshots
    grid = cfg.grid()
    gains, traj = cfg.gains(grid), cfg.trajectory(grid)
    v2 = np.array(
        [
            lyapunov_value(
                tracking_errors(snap.state, traj, snap.t, grid), snap.state, traj, snap.t, gains, grid
            )[1]
            for snap in snapshots
        ]
    )
    assert v2.shape == (501, grid.n_nodes)
    assert np.max(np.diff(v2, axis=0)) <= 0.0


@settings(max_examples=5, deadline=None)
@given(
    scenario=st.sampled_from(SCENARIOS),
    n_nodes=st.sampled_from([11, 21]),
    kp=st.floats(0.25, 8.0),
    kv=st.floats(0.25, 8.0),
    kr=st.floats(0.25, 4.0),
    kw=st.floats(0.25, 4.0),
    c_share=st.floats(0.05, 0.95),
)
def test_closed_form_holds_for_certifiable_gains(scenario, n_nodes, kp, kv, kr, kw, c_share):
    cfg = RunConfig(
        scenario=scenario,
        ds=0.5 / (n_nodes - 1),
        kp=kp,
        kv=kv,
        kr=kr,
        kw=kw,
        coupling_c=c_share * float(GainProfile.c_upper_bound(kr, kw)),
        initial_covariance=0.0,
        duration=0.02,
        log_every=10,
    )
    assert cfg.grid().n_nodes == n_nodes
    assert_records_follow_closed_form(cfg, run_closed_loop(cfg).records)
