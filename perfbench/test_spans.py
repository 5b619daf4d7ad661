"""Self-time arithmetic of the traced run.  python3 -m pytest perfbench"""

import json

import pytest

from spans import Span, Tracer, ancestors, self_times


def toy_trace() -> list[Span]:
    # root [0, 10] -> a [1, 4] -> a1 [2, 3]; root -> b [5, 9]; a second run's root.
    return [
        Span("root", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("a1", 2.0, 3.0, 1, 0),
        Span("b", 5.0, 9.0, 0, 0),
        Span("root", 20.0, 21.5, -1, 1),
    ]


def test_self_times_of_toy_trace_sum_to_root_span():
    spans = toy_trace()
    own = self_times(spans)
    assert own == [3.0, 2.0, 1.0, 4.0, 1.5]
    run0 = [t for t, s in zip(own, spans) if s.run == 0]
    assert sum(run0) == spans[0].end - spans[0].start


def test_recorded_spans_nest_and_self_times_sum_to_root():
    tracer = Tracer()
    root = tracer.open("root")
    for _ in range(3):
        child = tracer.open("child")
        tracer.close(tracer.open("leaf"))
        tracer.close(child)
    tracer.close(root)
    spans = tracer.spans
    assert [s.parent for s in spans] == [-1, 0, 1, 0, 3, 0, 5]
    assert list(ancestors(spans, 2)) == [1, 0]
    assert sum(self_times(spans)) == pytest.approx(spans[0].end - spans[0].start, abs=1e-12)
    assert all(t >= 0 for t in self_times(spans))


def test_closing_out_of_order_is_an_error():
    tracer = Tracer()
    outer = tracer.open("outer")
    tracer.open("inner")
    with pytest.raises(RuntimeError):
        tracer.close(outer)


def test_write_emits_one_json_line_per_span(tmp_path):
    tracer = Tracer()
    tracer.run = 4
    tracer.close(tracer.open("only"))
    path = tmp_path / "trace.jsonl"
    tracer.write(path)
    (line,) = path.read_text().splitlines()
    record = json.loads(line)
    assert record["name"] == "only" and record["parent"] == -1 and record["run"] == 4
    assert record["end"] >= record["start"]
