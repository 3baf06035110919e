"""Fault schedules: builders, validation, ordering, serialization."""

import pytest

from repro.faults import FaultSchedule, ScheduleError


def test_builders_chain_and_order():
    schedule = (
        FaultSchedule()
        .kill_daemon(2.0, "b")
        .restart_daemon(5.0, "b")
        .link_outage(1.0, 0.5, "a")
    )
    kinds = [(event.at, event.kind) for event in schedule.events()]
    assert kinds == [
        (1.0, "link_down"),
        (1.5, "link_up"),
        (2.0, "daemon_kill"),
        (5.0, "daemon_restart"),
    ]
    assert len(schedule) == 4


def test_same_time_events_keep_authoring_order():
    schedule = FaultSchedule().kill_gpa(1.0).kill_daemon(1.0, "a")
    assert [event.kind for event in schedule.events()] == [
        "gpa_kill", "daemon_kill",
    ]


def test_outage_helpers_pair_down_and_up():
    schedule = FaultSchedule().daemon_outage(3.0, 2.0, "node")
    events = schedule.events()
    assert events[0].kind == "daemon_kill" and events[0].at == 3.0
    assert events[1].kind == "daemon_restart" and events[1].at == 5.0

    schedule = FaultSchedule().partition_window(1.0, 4.0, [["a"], ["b"]])
    events = schedule.events()
    assert events[0].kind == "partition"
    assert events[0].params["groups"] == [["a"], ["b"]]
    assert events[1].kind == "heal" and events[1].at == 5.0


def test_validation_rejects_bad_entries():
    with pytest.raises(ScheduleError):
        FaultSchedule().add(1.0, "meteor_strike")
    with pytest.raises(ScheduleError):
        FaultSchedule().add(-1.0, "heal")
    with pytest.raises(ScheduleError):
        FaultSchedule().add(1.0, "daemon_kill")  # no target
    with pytest.raises(ScheduleError):
        FaultSchedule().partition(1.0, [["a"], []])  # empty group
    with pytest.raises(ScheduleError):
        FaultSchedule().kill_gpa(1.0, jitter=-0.1)
    with pytest.raises(ScheduleError, match="band"):
        FaultSchedule().cpu_hog(1.0, "a", 0.5, band="irq")


def test_dict_round_trip():
    schedule = (
        FaultSchedule()
        .daemon_outage(2.0, 3.0, "b", jitter=0.25)
        .partition_window(1.0, 2.0, [["a"], ["b", "c"]])
    )
    clone = FaultSchedule.from_dict(schedule.to_dict())
    assert clone.to_dict() == schedule.to_dict()
    originals = schedule.events()
    restored = clone.events()
    assert [e.kind for e in restored] == [e.kind for e in originals]
    assert [e.at for e in restored] == [e.at for e in originals]
    assert [e.jitter for e in restored] == [e.jitter for e in originals]


def test_from_dict_validates():
    with pytest.raises(ScheduleError):
        FaultSchedule.from_dict({"events": [{"at": 1.0, "kind": "nope"}]})


#: Entries ``from_dict`` must refuse with a ScheduleError naming the
#: entry's index, never a raw TypeError, KeyError or OverflowError.
MALFORMED_EVENTS = [
    pytest.param({"at": 1.0, "kind": "cpu_hog", "target": "n0",
                  "params": {"duration": float("nan")}}, id="nan-hog"),
    pytest.param({"at": float("nan"), "kind": "heal"}, id="nan-time"),
    pytest.param({"at": 1.0, "kind": "heal", "jitter": float("nan")},
                 id="nan-jitter"),
    pytest.param(5, id="not-an-object"),
    pytest.param({"kind": "heal"}, id="no-at"),
    pytest.param({"at": 1.0}, id="no-kind"),
    pytest.param({"at": 10**400, "kind": "heal"}, id="overflow"),
    pytest.param({"at": 1.0, "kind": "heal", "params": 5}, id="params-not-object"),
]


@pytest.mark.parametrize("entry", MALFORMED_EVENTS)
def test_from_dict_refuses_malformed_entries_by_index(entry):
    events = [{"at": 0.5, "kind": "heal"}, entry]
    with pytest.raises(ScheduleError, match="event 1"):
        FaultSchedule.from_dict({"events": events})
