"""The one plan codec: FaultPlan and ChaosPlan round-trip every event
type, and every malformed plan raises the plan's own error."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.cluster.retry import RetryPolicy
from repro.errors import ChaosError, PlatformError
from repro.platforms import faults
from repro.platforms.faults import FaultPlan
from repro.service import chaos
from repro.service.chaos import CHAOS_OPS, ROUTER_OPS, ChaosPlan

REPO_ROOT = Path(__file__).resolve().parents[1]

nodes = st.text(max_size=12)
positive = st.floats(min_value=0.0, max_value=1e6, exclude_min=True,
                     allow_nan=False)
slowdowns = st.floats(min_value=1.0, max_value=1e6, exclude_min=True,
                      allow_nan=False)
fractions = st.floats(min_value=0.0, max_value=1.0, exclude_min=True,
                      exclude_max=True, allow_nan=False)
afters = st.integers(min_value=0, max_value=1000)
counts = st.integers(min_value=1, max_value=1000)
shards = st.integers(min_value=0, max_value=64)

#: One strategy per registered event type of each plan.
FAULT_EVENTS = {
    "slow_node": st.builds(faults.SlowNode, nodes, slowdowns),
    "slow_disk": st.builds(faults.SlowDisk, nodes, slowdowns),
    "degraded_link": st.builds(faults.DegradedLink, nodes, slowdowns),
    "worker_crash": st.builds(
        faults.WorkerCrash, st.integers(0, 64), st.integers(0, 10_000),
        positive),
    "container_launch_failure": st.builds(
        faults.ContainerLaunchFailure, nodes, st.integers(1, 10)),
    "node_failure": st.builds(faults.NodeFailure, nodes),
    "hdfs_read_error": st.builds(
        faults.HdfsReadError, nodes, st.integers(1, 10)),
    "loader_crash": st.builds(
        faults.LoaderCrash, fractions, st.integers(1, 5), positive,
        st.floats(0.0, 1.0, exclude_max=True, allow_nan=False)),
}
CHAOS_EVENTS = {
    "latency": st.builds(chaos.InjectLatency, st.sampled_from(CHAOS_OPS),
                         positive, afters, counts),
    "disk_full": st.builds(chaos.DiskFull, afters, counts),
    "lock_timeout": st.builds(chaos.LockTimeout, afters, counts),
    "worker_crash": st.builds(chaos.WorkerCrash, afters),
    "worker_kill": st.builds(chaos.WorkerKill, shards, afters),
    "probe_timeout": st.builds(chaos.ProbeTimeout, shards, afters, counts),
    "slow_shard": st.builds(chaos.SlowShard, shards, positive, afters,
                            counts),
}

retries = st.builds(
    lambda attempts, base, factor, extra, timeout: RetryPolicy(
        attempts, base, factor, base + extra, timeout),
    st.integers(1, 8), st.floats(0.0, 60.0), st.floats(1.0, 4.0),
    st.floats(0.0, 60.0), st.none() | positive,
)


def _crash_keys_unique(events) -> bool:
    keys = [(e.worker, e.superstep) for e in events
            if isinstance(e, faults.WorkerCrash)]
    return len(keys) == len(set(keys))


fault_plans = st.builds(
    FaultPlan,
    events=st.lists(st.one_of(*FAULT_EVENTS.values()), max_size=8)
    .filter(_crash_keys_unique).map(tuple),
    seed=st.integers(-2**63, 2**63),
    retry=retries,
    checkpoint_interval=st.none() | st.integers(1, 50),
    checkpoint_write_s=positive,
    redistribute_s=positive,
)
chaos_plans = st.builds(
    ChaosPlan,
    events=st.lists(st.one_of(*CHAOS_EVENTS.values()), max_size=8)
    .map(tuple),
    seed=st.integers(-2**63, 2**63),
)


def test_strategies_cover_both_registries():
    assert set(FAULT_EVENTS) == set(FaultPlan.EVENT_TYPES)
    assert set(CHAOS_EVENTS) == set(ChaosPlan.EVENT_TYPES)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(plan=st.one_of(fault_plans, chaos_plans))
def test_plans_round_trip_through_json(plan):
    text = plan.to_json()
    again = type(plan).from_json(text)
    assert again == plan
    assert again.to_json() == text
    assert again.signature() == plan.signature()


@pytest.mark.parametrize("plan_cls,kind", [
    *((FaultPlan, kind) for kind in FAULT_EVENTS),
    *((ChaosPlan, kind) for kind in CHAOS_EVENTS),
])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_every_event_type_round_trips(plan_cls, kind, data):
    strategies = FAULT_EVENTS if plan_cls is FaultPlan else CHAOS_EVENTS
    event = data.draw(strategies[kind])
    assert plan_cls.type_name(event) == kind
    assert plan_cls.from_json(plan_cls(events=(event,)).to_json()).events \
        == (event,)
    if plan_cls is ChaosPlan:
        assert event.op in CHAOS_OPS


def test_split_partitions_on_the_events_operation():
    worker, router = chaos.split_chaos_plan(ChaosPlan(events=(
        chaos.InjectLatency(op="route", delay_s=0.1),
        chaos.InjectLatency(op="request", delay_s=0.1),
        chaos.WorkerKill(shard=0), chaos.DiskFull(),
    )))
    assert {e.op for e in router.events} <= set(ROUTER_OPS)
    assert not {e.op for e in worker.events} & set(ROUTER_OPS)
    assert len(router.events) == len(worker.events) == 2


#: Plans neither codec may accept.  Each raises the plan's own error —
#: never an AttributeError, TypeError or ValueError from inside it.
MALFORMED = [
    "{",
    "[]",
    "1",
    '"plan"',
    "null",
    '{"bogus": 1}',
    '{"events": {}}',
    '{"events": "worker_crash"}',
    '{"events": null}',
    '{"events": [1]}',
    '{"events": [null]}',
    '{"events": [["worker_crash"]]}',
    '{"events": [{}]}',
    '{"events": [{"type": "meteor"}]}',
    '{"events": [{"type": ["worker_crash"]}]}',
    '{"events": [{"type": "worker_crash", "nope": 1}]}',
    '{"events": [{"type": "worker_crash", "after": "x"}]}',
    '{"events": [{"type": "worker_crash", "worker": 1.5, "superstep": 2}]}',
    '{"events": [{"type": "worker_crash", "worker": "1", "superstep": 2}]}',
    '{"events": [{"type": "worker_crash", "worker": true, "superstep": 2}]}',
    '{"events": [{"type": "slow_node", "node": "n0", "factor": "x"}]}',
    '{"events": [{"type": "slow_node", "node": "n0", "factor": NaN}]}',
    '{"events": [{"type": "slow_node", "node": "n0"}]}',
    '{"events": [{"type": "slow_node", "node": "n0", "factor": Infinity}]}',
    '{"events": [{"type": "worker_crash", "worker": 0, "superstep": 1, '
    '"recovery_s": NaN}]}',
    '{"events": [{"type": "worker_crash", "worker": 0, "superstep": 1, '
    '"recovery_s": Infinity}]}',
    '{"events": [{"type": "loader_crash", "node": "n0", "restart_s": NaN}]}',
    '{"events": [{"type": "latency", "op": "request", "delay_s": NaN}]}',
    '{"events": [{"type": "latency", "op": "request", "delay_s": Infinity}]}',
    '{"events": [{"type": "slow_shard", "shard": 0, "delay_s": -Infinity}]}',
    '{"checkpoint_write_s": NaN}',
    '{"checkpoint_write_s": Infinity}',
    '{"redistribute_s": NaN}',
    '{"events": [{"type": "latency", "op": 7, "delay_s": 1}]}',
    '{"seed": "x"}',
    '{"seed": 1.7}',
    '{"seed": true}',
    '{"seed": null}',
    '{"retry": {"bogus": 1}}',
    '{"retry": 3}',
    '{"retry": {"max_attempts": 0}}',
    '{"retry": {"max_attempts": "3"}}',
    '{"checkpoint_interval": "2"}',
    '{"recovery_s": 5.0}',
]


@pytest.mark.parametrize("plan_cls,error", [
    (FaultPlan, PlatformError), (ChaosPlan, ChaosError),
])
@pytest.mark.parametrize("text", MALFORMED)
def test_malformed_plans_raise_the_plans_error(plan_cls, error, text):
    try:
        plan_cls.from_json(text)
    except error:
        pass
    else:
        pytest.fail(f"{plan_cls.__name__} accepted {text}")


def test_unreadable_plan_files_raise_the_plans_error(tmp_path):
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{")
    for path in (tmp_path / "missing.json", tmp_path, binary):
        with pytest.raises(PlatformError):
            FaultPlan.load(path)
        with pytest.raises(ChaosError):
            ChaosPlan.load(path)


@pytest.mark.parametrize("text", MALFORMED)
def test_cli_rejects_malformed_fault_plans(text, tmp_path, capsys):
    plan = tmp_path / "plan.json"
    plan.write_text(text)
    assert main(["run", "Giraph", "bfs", "dg-tiny",
                 "--faults", str(plan)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_fault_plan_error_has_no_traceback(tmp_path):
    plan = tmp_path / "plan.json"
    plan.write_text('{"events": [1]}')
    done = subprocess.run(
        [sys.executable, "-m", "repro.cli", "run", "Giraph", "bfs",
         "dg-tiny", "--faults", str(plan)],
        cwd=REPO_ROOT, env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("error: fault plan event must be")
