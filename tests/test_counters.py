"""Trace parsing, reading a trace grouped by quantum, and round-trip
serialization."""

import pytest

from synpa import (
    RawCounterSample,
    RosterError,
    TraceError,
    TraceHeader,
    format_trace,
    open_trace,
    parse_counter_text,
)

HEADER = '{"version":1,"dispatch_width":4,"quantum_ms":100,"threads":["t0","t1"]}'
COLS = "quantum,thread,cpu_cycles,inst_spec,stall_frontend,stall_backend"


def make_text(rows, header=HEADER):
    return "\n".join([header, COLS, *rows]) + "\n"


def well_formed_text():
    rows = []
    for q in range(3):
        for t in ("t0", "t1"):
            rows.append(f"{q},{t},1000,{400 + q},{100 + q},{200 + q}")
    return make_text(rows)


class TestParsing:
    def test_well_formed_two_threads_three_quanta_yields_six_samples(self):
        header, samples, _ = parse_counter_text(well_formed_text())
        assert header.dispatch_width == 4
        assert header.quantum_ms == 100.0
        assert header.threads == ("t0", "t1")
        assert len(samples) == 6
        assert [s.quantum_index for s in samples] == [0, 0, 1, 1, 2, 2]

    def test_empty_file_with_valid_header_yields_zero_samples(self, tmp_path):
        header, samples, _ = parse_counter_text(make_text([]))
        assert samples == []
        path = tmp_path / "empty.trace"
        path.write_text(make_text([]))
        assert open_trace(str(path)) == (header, [])

    def test_quantum_gap_for_a_thread_is_rejected(self):
        rows = [
            "0,t0,1000,400,100,200",
            "0,t1,1000,400,100,200",
            "1,t0,1000,400,100,200",  # t1 missing in quantum 1
            "2,t0,1000,400,100,200",
            "2,t1,1000,400,100,200",
        ]
        with pytest.raises(TraceError, match="gap"):
            parse_counter_text(make_text(rows))

    def test_silent_quantum_is_rejected(self):
        rows = [
            "0,t0,1000,400,100,200",
            "0,t1,1000,400,100,200",
            "2,t0,1000,400,100,200",
            "2,t1,1000,400,100,200",
        ]
        with pytest.raises(TraceError):
            parse_counter_text(make_text(rows))

    def test_departed_thread_suffix_is_allowed(self):
        rows = [
            "0,t0,1000,400,100,200",
            "0,t1,1000,400,100,200",
            "1,t0,1000,400,100,200",
        ]
        _, samples, _ = parse_counter_text(make_text(rows))
        assert len(samples) == 3

    def test_unknown_thread_is_a_roster_error(self):
        rows = ["0,t0,1000,400,100,200", "0,tX,1000,400,100,200"]
        with pytest.raises(RosterError):
            parse_counter_text(make_text(rows))

    def test_out_of_order_rows_are_rejected(self):
        rows = ["0,t1,1000,400,100,200", "0,t0,1000,400,100,200"]
        with pytest.raises(TraceError, match="out of order"):
            parse_counter_text(make_text(rows))

    def test_bad_header_reports_line_one(self):
        with pytest.raises(TraceError) as err:
            parse_counter_text("not json\n" + COLS + "\n")
        assert err.value.line == 1

    @pytest.mark.parametrize(
        "quantum_ms",
        # Also a JSON string, a bool and an integer beyond float range.
        ["NaN", "Infinity", '"100"', "true", pytest.param("1" + "0" * 400, id="401-digits")],
    )
    def test_non_finite_quantum_ms_rejected(self, quantum_ms):
        header = HEADER.replace('"quantum_ms":100', f'"quantum_ms":{quantum_ms}')
        with pytest.raises(TraceError, match="quantum_ms") as err:
            parse_counter_text(make_text([], header=header))
        assert err.value.line == 1

    @pytest.mark.parametrize("width", ["4.9", "true", '"4"'])
    def test_non_integer_dispatch_width_rejected_on_line_one(self, width):
        header = HEADER.replace('"dispatch_width":4', f'"dispatch_width":{width}')
        with pytest.raises(TraceError, match="dispatch_width") as err:
            parse_counter_text(make_text([], header=header))
        assert err.value.line == 1

    def test_bad_field_count_reports_line_number(self):
        rows = ["0,t0,1000,400,100"]
        with pytest.raises(TraceError) as err:
            parse_counter_text(make_text(rows))
        assert err.value.line == 3

    def test_negative_count_rejected_with_line_number(self):
        rows = ["0,t0,1000,-4,100,200"]
        with pytest.raises(TraceError) as err:
            parse_counter_text(make_text(rows))
        assert err.value.line == 3

    def test_counter_beyond_64_bits_rejected_with_line_number(self):
        # Hardware counters are 64-bit; the largest value still parses.
        _, samples, _ = parse_counter_text(make_text([f"0,t0,{2**64 - 1},400,100,200"]))
        assert samples[0].cpu_cycles == 2**64 - 1
        rows = ["0,t0,1000,400,100,200", f"0,t1,1000,{2**64},100,200"]
        with pytest.raises(TraceError, match="inst_spec must be below 2\\*\\*64") as err:
            parse_counter_text(make_text(rows))
        assert err.value.line == 4

    @pytest.mark.parametrize(
        "row, field",
        [
            pytest.param("0,t0,1_000,400,100,200", "cpu_cycles", id="underscore"),
            pytest.param("0,t0,1000, 400 ,100,200", "inst_spec", id="padding"),
            pytest.param("0,t0,1000,400,+100,200", "stall_frontend", id="plus-sign"),
            pytest.param("0,t0,1000,400,100,-0", "stall_backend", id="minus-zero"),
            pytest.param("0,t0,1000,400,100,", "stall_backend", id="empty"),
            pytest.param("0,t0,1000,\u0664\u0660\u0660,100,200", "inst_spec", id="arabic-digits"),
            pytest.param(" 0,t0,1000,400,100,200", "quantum", id="padded-quantum"),
        ],
    )
    def test_counter_fields_are_ascii_digits(self, row, field):
        # int() alone would read each of these rows; a trace writer emits
        # plain digits, so anything else is a hand edit to reject.
        rows = ["0,t1,1000,400,100,200"] if field == "quantum" else []
        with pytest.raises(TraceError, match=f"{field} must be ASCII digits") as err:
            parse_counter_text(make_text([row, *rows]))
        assert err.value.line == 3

    def test_counter_fields_of_2_to_the_64_keep_their_message(self):
        rows = [f"0,t0,{2**64},400,100,200"]
        with pytest.raises(TraceError, match="cpu_cycles must be below 2\\*\\*64") as err:
            parse_counter_text(make_text(rows))
        assert err.value.line == 3

    def test_version_mismatch_rejected(self):
        header = HEADER.replace('"version":1', '"version":9')
        with pytest.raises(TraceError, match="version"):
            parse_counter_text(make_text([], header=header))

    def test_missing_column_header_rejected(self):
        with pytest.raises(TraceError):
            parse_counter_text(HEADER + "\n")

    def test_stall_sum_above_cycles_is_not_rejected_here(self):
        # Hardware counters are sampled non-atomically; correction is the
        # characterization step's job, not the parser's.
        rows = ["0,t0,1000,400,800,900"]
        _, samples, _ = parse_counter_text(make_text(rows))
        assert samples[0].stall_frontend + samples[0].stall_backend > 1000


class TestSampleInvariants:
    def test_negative_counts_rejected(self):
        with pytest.raises(TraceError):
            RawCounterSample(
                quantum_index=0,
                thread_id="t0",
                cpu_cycles=-1,
                inst_spec=0,
                stall_frontend=0,
                stall_backend=0,
            )

    def test_empty_thread_id_rejected(self):
        with pytest.raises(TraceError):
            RawCounterSample(
                quantum_index=0,
                thread_id="",
                cpu_cycles=1,
                inst_spec=0,
                stall_frontend=0,
                stall_backend=0,
            )


class TestOpenTrace:
    def test_samples_grouped_by_quantum_in_thread_order(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(well_formed_text())
        header, quanta = open_trace(str(path))
        assert header.threads == ("t0", "t1")
        assert [[(s.quantum_index, s.thread_id) for s in group] for group in quanta] == [
            [(0, "t0"), (0, "t1")],
            [(1, "t0"), (1, "t1")],
            [(2, "t0"), (2, "t1")],
        ]
        _, samples, _ = parse_counter_text(well_formed_text())
        assert [s for group in quanta for s in group] == samples


class TestRoundTrip:
    def test_format_then_parse_reproduces_header_and_samples(self):
        header, samples, _ = parse_counter_text(well_formed_text())
        text = format_trace(header, samples)
        header2, samples2, _ = parse_counter_text(text)
        assert header2 == header
        assert samples2 == samples

    def test_replaying_same_trace_twice_is_deterministic(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(well_formed_text())
        assert open_trace(str(path)) == open_trace(str(path))

    def test_committed_column_round_trip(self):
        header = TraceHeader(
            dispatch_width=4, quantum_ms=100.0, threads=("t0",), mode="isolated"
        )
        samples = [
            RawCounterSample(
                quantum_index=q,
                thread_id="t0",
                cpu_cycles=1000,
                inst_spec=800,
                stall_frontend=100,
                stall_backend=100,
            )
            for q in range(2)
        ]
        committed = {(0, "t0"): 700, (1, "t0"): 650}
        text = format_trace(header, samples, committed)
        header2, samples2, counts = parse_counter_text(text, require_committed=True)
        assert header2.mode == "isolated"
        assert samples2 == samples
        assert counts == [700, 650]

    def test_committed_count_beyond_64_bits_rejected(self):
        header = TraceHeader(
            dispatch_width=4, quantum_ms=100.0, threads=("t0",), mode="isolated"
        )
        sample = RawCounterSample(
            quantum_index=0, thread_id="t0", cpu_cycles=1000, inst_spec=800,
            stall_frontend=100, stall_backend=100,
        )
        text = format_trace(header, [sample], {(0, "t0"): 2**64})
        with pytest.raises(TraceError, match="below 2\\*\\*64") as err:
            parse_counter_text(text, require_committed=True)
        assert err.value.line == 3

    def test_committed_count_is_ascii_digits(self):
        header = TraceHeader(
            dispatch_width=4, quantum_ms=100.0, threads=("t0",), mode="isolated"
        )
        sample = RawCounterSample(
            quantum_index=0, thread_id="t0", cpu_cycles=1000, inst_spec=800,
            stall_frontend=100, stall_backend=100,
        )
        text = format_trace(header, [sample], {(0, "t0"): 700}).replace(",700\n", ",7_00\n")
        with pytest.raises(TraceError, match="committed_instructions must be ASCII digits") as err:
            parse_counter_text(text, require_committed=True)
        assert err.value.line == 3
