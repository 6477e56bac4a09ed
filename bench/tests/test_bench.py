"""Tests of the benchmark's own machinery.

    python3 -m pytest bench/tests -q
"""

import time

import pytest

import harness
import workloads
from harness import ItemType, Output
from tracer import Tracer, layer_self_times, self_times


def _span(name, layer, start, end, parent):
    return [name, layer, start, end, parent, 0, None]


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("a", "x", 0.0, 10.0, -1),
        _span("b", "y", 1.0, 4.0, 0),
        _span("c", "z", 2.0, 3.0, 1),
        _span("d", "y", 5.0, 9.0, 0),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_wrapped_calls_nest_and_leave_the_rest_to_the_item():
    tracer = Tracer()

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        traced_inner()

    traced_inner = tracer.wrap("m.inner", "m", inner)
    traced_outer = tracer.wrap("n.outer", "n", outer)
    traced_outer()  # outside an item: not recorded
    assert tracer.spans == []
    tracer.begin_item(0, "kind")
    traced_outer()
    time.sleep(0.01)
    tracer.end_item()
    (outer_row, inner_row) = tracer.spans
    assert outer_row[4] == -1 and inner_row[4] == 0
    own = self_times(tracer.spans)
    assert own[0] == pytest.approx(outer_row[3] - outer_row[2] - (inner_row[3] - inner_row[2]))
    by_layer = layer_self_times(tracer)["kind"]
    item_s = tracer.items[0][3] - tracer.items[0][2]
    assert sum(by_layer.values()) == pytest.approx(item_s)
    unaccounted = by_layer["(no layer)"]
    assert unaccounted == pytest.approx(item_s - (outer_row[3] - outer_row[2]))
    assert 0.005 < unaccounted < item_s


@pytest.mark.parametrize("count, expected", [
    (20, (50, 10)), (21, (52, 11)), (25, (60, 15)), (40, (75, 30)), (100, (90, 90)),
    (1000, (99, 990)), (11, (50, 6)), (1, (50, 1)),
])
def test_tail_rank(count, expected):
    assert harness.tail_rank(count) == expected


def test_tail_rank_is_the_highest_percentile_with_ten_beyond():
    for count in range(20, 400):
        pct, rank = harness.tail_rank(count)
        assert rank >= count / 2 and count - rank >= 10
        assert pct == 99 or count - -(-(pct + 1) * count // 100) < 10


def _good(seed):
    return Output(facts=[("ok", True)])


def _raises(seed):
    raise RuntimeError("injected")


def _violated(seed):
    return Output(verdicts=["violated"])


def test_failures_are_counted_not_dropped():
    items = [ItemType("good", _good), ItemType("raises", _raises), ItemType("violated", _violated)]
    records, _ = harness.run_phase(items, run_seed=3, rotations=1)
    assert [r.kind for r in records] == ["good", "raises", "violated"]
    assert [r.failed for r in records] == [False, True, True]
    assert "injected" in records[1].failures[0]
    assert "violated" in records[2].failures[0]
    s = harness.summarize(records)
    assert (s.attempted, s.failed) == (3, 2)
    assert s.ok_ratio == pytest.approx(1 / 3)
    assert s.tail_samples == 1


def test_a_phase_runs_whole_rotations_and_pauses_between_them():
    items = [ItemType("a", _good), ItemType("b", _good)]
    seen = []

    def between(rotation):
        seen.append((rotation, len(seen)))
        time.sleep(0.05)

    records, wall = harness.run_phase(items, run_seed=3, rotations=3, between=between)
    assert [r.kind for r in records] == ["a", "b"] * 3
    assert [r.index for r in records] == list(range(6))
    assert [rotation for rotation, _ in seen] == [0, 1, 2, 3]
    assert wall < 0.05  # pauses are not part of the phase's wall time


def test_a_failed_set_up_probe_is_reported_not_raised():
    import argparse

    import run

    seconds, failure = run._setup_probe(argparse.Namespace(workload="no-such-workload", seed=0))
    assert seconds > 0
    assert failure.startswith("set-up probe exited with 2") and "no-such-workload" in failure


def test_certificate_bound_to_another_instance_fails():
    from solgeo import counting, instances

    H = instances.sample_unsigned_hypergraph(3, 30, 300, 5)
    other = instances.sample_unsigned_hypergraph(3, 30, 300, 6)
    cert = counting.certify_count_kxor(H, 0.0).to_json_dict()
    good = harness.run_item(ItemType("good", lambda s: Output(
        certificates=[(cert, lambda: workloads.hypergraph_doc(H))])), 0, 0)
    bad = harness.run_item(ItemType("bad", lambda s: Output(
        certificates=[(cert, lambda: workloads.hypergraph_doc(other))])), 0, 0)
    broken = dict(cert, log2_bound="many")
    invalid = harness.run_item(ItemType("invalid", lambda s: Output(
        certificates=[(broken, lambda: workloads.hypergraph_doc(H))])), 0, 0)
    assert not good.failed
    assert bad.failures == ["count certificate is bound to another instance"]
    assert "schema" in invalid.failures[0]


def test_own_encoder_agrees_with_the_package():
    from solgeo.jsonio import canonical_json

    doc = {"b": [1, 2.0, 0.1, -3.5e-20, 1e17], "a": {"z": None, "y": True, "x": "é"}}
    assert harness.canonical(doc) == canonical_json(doc)


def test_item_seeds_are_distinct():
    seeds = {harness.item_seed(s, i) for s in range(5) for i in range(-1, 200)}
    assert len(seeds) == 5 * 201


@pytest.mark.parametrize("workload, names", [
    ("desk-cli", None),
    ("kxor-recursion", {"kxor-n100"}),
    ("dense-spectral", {"regular-indset"}),
])
def test_instances_are_deterministic_given_the_seed(tmp_path, workload, names):
    items = [it for it in workloads.workload_items(workload, str(tmp_path))
             if names is None or it.name in names]
    runs = [[harness.run_item(it, seed, 0) for it in items] for seed in (7, 7, 8)]
    assert not any(r.failed for run in runs for r in run)
    digests = [harness.certificate_digest(run) for run in runs]
    assert digests[0] == digests[1] != digests[2]
