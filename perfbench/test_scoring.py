"""Self-checks of the benchmark's own metric code.

    python3 -m pytest perfbench/test_scoring.py -q
"""

import copy

import pytest

from scoring import mismatches, payload_digest, skeleton_f1, structural_hamming
from stablepc import CiTestOutcome, DegenerateConditioningError
from traced import CountingTest, Tracer

# Truth: 0 -> 2 <- 1, 2 -> 3 (a collider, then a compelled edge).
TRUE_CPDAG = [[0, 2, "->"], [1, 2, "->"], [2, 3, "->"]]


def test_f1_perfect_and_empty():
    assert skeleton_f1(TRUE_CPDAG, TRUE_CPDAG) == 1.0
    assert skeleton_f1([], TRUE_CPDAG) == 0.0


def test_f1_ignores_marks_and_endpoint_order():
    learned = [[0, 2, "--"], [2, 1, "->"], [3, 2, "->"]]
    assert skeleton_f1(learned, TRUE_CPDAG) == 1.0


def test_f1_one_missing_one_extra():
    learned = [[0, 2, "--"], [1, 2, "--"], [0, 3, "--"]]
    # precision 2/3, recall 2/3
    assert abs(skeleton_f1(learned, TRUE_CPDAG) - 2.0 / 3.0) < 1e-12


def test_shd_zero_on_identical_graphs():
    assert structural_hamming(TRUE_CPDAG, TRUE_CPDAG) == 0


def test_shd_counts_each_pair_once():
    learned = [
        [0, 2, "->"],   # same
        [2, 1, "->"],   # reversed: 1
        [2, 3, "--"],   # unoriented: 1
        [0, 1, "--"],   # extra: 1
    ]
    assert structural_hamming(learned, TRUE_CPDAG) == 3
    assert structural_hamming([], TRUE_CPDAG) == 3


def test_digest_gate_trips_on_altered_payload():
    payload = {"skeleton": {"p": 4, "edges": [[0, 2, "--"], [1, 2, "--"]]},
               "sepsets": {"0,1": []},
               "cpdag": {"p": 4, "edges": copy.deepcopy(TRUE_CPDAG)}}
    altered = copy.deepcopy(payload)
    altered["sepsets"]["0,1"] = [3]
    digests = {"traced": payload_digest(payload),
               "pc_1w": payload_digest(copy.deepcopy(payload)),
               "pc_2w": payload_digest(altered)}
    assert mismatches(digests, "traced") == ["pc_2w"]
    del digests["pc_2w"]
    assert mismatches(digests, "traced") == []


def test_digest_is_key_order_independent():
    assert payload_digest({"a": 1, "b": [2]}) == payload_digest({"b": [2], "a": 1})


def test_tracer_records_parents():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    outer, inner = tracer.spans
    assert outer["parent"] is None and inner["parent"] == 0
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]


def test_counting_test_counts_accepts_and_degenerate_raises():
    def fake(i, j, s):
        if s:
            raise DegenerateConditioningError((i, j, *s))
        return CiTestOutcome(0.0, 0.5 if i == 0 else 0.001, 0.0)

    counting = CountingTest(fake, alpha=0.01)
    counting(0, 1, ())
    counting(2, 3, ())
    with pytest.raises(DegenerateConditioningError):
        counting(0, 1, (2,))
    counters = counting.counters()
    assert (counters["calls"], counters["accepts"], counters["degenerate"]) == (3, 1, 1)
    assert counters["busy_s"] >= 0.0
