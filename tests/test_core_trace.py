"""Unit tests for trace containers and serialization (repro.core.trace)."""

import io

import pytest

from repro.core.trace import Trace, TraceMetadata
from repro.errors import TraceError

from .conftest import pw


def _sample_trace() -> Trace:
    lookups = [
        pw(0x1000, uops=6, mispredicted=True),
        pw(0x1040, uops=3, branch=False, contains_branch=False),
        pw(0x1000, uops=6),
    ]
    return Trace(lookups, TraceMetadata(app="demo", input_name="in0", seed=5))


class TestDerivedProperties:
    def test_lengths_and_iteration(self):
        trace = _sample_trace()
        assert len(trace) == 3
        assert [x.start for x in trace] == [0x1000, 0x1040, 0x1000]
        assert trace[1].uops == 3

    def test_totals(self):
        trace = _sample_trace()
        assert trace.total_uops == 15
        assert trace.total_branches == 2
        assert trace.total_mispredictions == 1

    def test_totals_are_cached_and_length_invalidated(self):
        trace = _sample_trace()
        assert trace.total_uops == 15
        assert trace._totals_memo == (3, trace._totals())
        # Appending changes the length, which invalidates the memo.
        trace.lookups.append(pw(0x2000, uops=4))
        assert trace.total_uops == 19

    def test_invalidate_derived_after_in_place_mutation(self):
        trace = _sample_trace()
        assert trace.total_uops == 15
        trace.lookups[0] = pw(0x1000, uops=10, mispredicted=True)
        # Same length: the memo is stale until explicitly invalidated.
        assert trace.total_uops == 15
        trace.invalidate_derived()
        assert trace.total_uops == 19

    def test_branch_mpki(self):
        trace = _sample_trace()
        expected = 1000.0 * 2 / trace.total_instructions
        assert trace.branch_mpki == pytest.approx(expected)

    def test_unique_starts(self):
        assert _sample_trace().unique_starts() == {0x1000, 0x1040}

    def test_slice_shares_metadata(self):
        trace = _sample_trace()
        tail = trace.slice(1)
        assert len(tail) == 2
        assert tail.metadata.app == "demo"


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        trace = _sample_trace()
        path = tmp_path / "t.trace"
        trace.save(path)
        loaded = Trace.load(path)
        assert loaded.lookups == trace.lookups
        assert loaded.metadata.app == "demo"
        assert loaded.metadata.input_name == "in0"
        assert loaded.metadata.seed == 5

    def test_dump_format_is_line_oriented(self):
        buffer = io.StringIO()
        _sample_trace().dump(buffer)
        lines = buffer.getvalue().splitlines()
        assert lines[0] == "#repro-trace v1"
        assert len(lines) == 3 + 3  # header, meta, columns + 3 rows

    def test_parse_rejects_bad_header(self):
        with pytest.raises(TraceError):
            Trace.parse(io.StringIO("not a trace\n"))

    def test_parse_rejects_empty(self):
        with pytest.raises(TraceError):
            Trace.parse(io.StringIO(""))

    def test_parse_rejects_wrong_field_count(self):
        text = "#repro-trace v1\n#app=x input=y seed=0\nhdr\n1000 4\n"
        with pytest.raises(TraceError) as err:
            Trace.parse(io.StringIO(text))
        assert "fields" in str(err.value)

    def test_parse_rejects_non_numeric(self):
        text = "#repro-trace v1\n#app=x input=y seed=0\nhdr\n1000 a 1 4 1 1 0\n"
        with pytest.raises(TraceError):
            Trace.parse(io.StringIO(text))

    def test_parse_accepts_legacy_six_field_rows(self):
        text = (
            "#repro-trace v1\n#app=x input=y seed=0\nhdr\n"
            "1000 4 3 16 1 0\n"
        )
        trace = Trace.parse(io.StringIO(text))
        assert trace[0].terminated_by_branch
        assert trace[0].contains_branch  # inferred from termination
        assert not trace[0].mispredicted

    def test_parse_skips_comments_and_blanks(self):
        text = (
            "#repro-trace v1\n#app=x input=y seed=0\nhdr\n"
            "\n# comment\n1000 4 3 16 1 1 0\n"
        )
        trace = Trace.parse(io.StringIO(text))
        assert len(trace) == 1

    def test_from_lookups(self):
        trace = Trace.from_lookups([pw(0x1)], app="unit")
        assert trace.metadata.app == "unit"
        assert len(trace) == 1
