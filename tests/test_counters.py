"""Trace parsing, reading a trace grouped by quantum, and round-trip
serialization."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from synpa import (
    RawCounterSample,
    RosterError,
    TraceError,
    TraceHeader,
    characterize,
    format_trace,
    normalize,
    open_trace,
    parse_counter_text,
)
from synpa import counters
from synpa.counters import sample_from_fractions
from synpa.errors import SynpaError

import reference_reader

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
        _, samples, _ = parse_counter_text(make_text([]))
        assert samples == []
        # Replay schedules only threads it observes: open_trace refuses.
        path = tmp_path / "empty.trace"
        path.write_text(make_text([]))
        with pytest.raises(TraceError, match=r"threads with no sample rows: \['t0', 't1'\]") as err:
            open_trace(str(path))
        assert err.value.line == 1

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

    def test_leading_zeros_do_not_count_toward_the_digit_limit(self):
        # int() refuses over 4300 characters, leading zeros included.
        zeros = "0" * 5000
        rows = [f"0,t0,{zeros}1000,400,100,{zeros}", f"0,t1,1000,400,100,{zeros}{2**64 - 1}"]
        _, samples, _ = parse_counter_text(make_text(rows))
        assert (samples[0].cpu_cycles, samples[0].stall_backend) == (1000, 0)
        assert samples[1].stall_backend == 2**64 - 1
        rows = [f"0,t0,1000,{zeros}{2**64},100,200"]
        with pytest.raises(TraceError, match="inst_spec must be below 2\\*\\*64") as err:
            parse_counter_text(make_text(rows))
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


class TestHeader:
    @pytest.mark.parametrize("rows", [[], ["0,,1000,400,100,200"]])
    def test_empty_thread_id_is_refused_on_line_one(self, rows):
        header = '{"version":1,"dispatch_width":4,"quantum_ms":100,"threads":["t0",""]}'
        with pytest.raises(TraceError, match="^line 1: thread ids must be non-empty$"):
            parse_counter_text(make_text(rows, header))

    def test_unknown_profile_mode_is_refused_on_line_one(self):
        header = '{"version":1,"dispatch_width":4,"quantum_ms":100,"threads":["t0"],"mode":"shared"}'
        with pytest.raises(TraceError, match="^line 1: unknown profile mode 'shared'$"):
            parse_counter_text(make_text([], header))


@st.composite
def simplex_fractions(draw):
    """``(fe, be, fdc)`` on the simplex, corners and zeros included, or
    the all-zero triple."""
    parts = [draw(st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))) for _ in range(3)]
    total = sum(parts)
    return tuple(x / total for x in parts) if total else (0.0, 0.0, 0.0)


class TestSampleFromFractions:
    @settings(max_examples=300, deadline=None)
    @given(
        fractions=simplex_fractions(), cycles=st.integers(1, 10**12),
        width=st.integers(1, 8), quantum=st.integers(0, 2**64 - 1),
    )
    def test_inverts_characterize_within_two_cycles(self, fractions, cycles, width, quantum):
        fe, be, fdc = fractions
        sample = sample_from_fractions(
            quantum, "t", fe=fe, be=be, fdc=fdc, cycles=cycles, dispatch_width=width
        )
        breakdown = characterize(sample, width)
        assert not breakdown.clamped
        got = normalize(breakdown)
        if fractions == (0.0, 0.0, 0.0):  # only revealed back-end stalls
            assert (got.fe, got.be, got.fdc) == (0.0, 1.0, 0.0)
        else:
            for want, value in zip(fractions, (got.fe, got.be, got.fdc)):
                assert abs(value - want) <= 2 / cycles
        header = TraceHeader(dispatch_width=width, quantum_ms=100.0, threads=("t",))
        assert parse_counter_text(format_trace(header, [sample])) == (header, [sample], [])

    @pytest.mark.parametrize("fractions, cycles, width, counts", [
        # fe and be both round up (3.5 -> 4), so inst_spec's 12 slots
        # are clipped to the 8 left: one cycle of slots.
        ((0.35, 0.35, 0.3), 10, 4, (8, 4, 4)),
        # The all-zero triple: every cycle a revealed back-end stall.
        ((0.0, 0.0, 0.0), 10**8, 4, (0, 0, 0)),
        # 13 * 0.9 * 5 is 58.50000000000001 from the left, 58.5 in any
        # other order, which rounds to 58.
        ((0.1, 0.0, 0.9), 13, 5, (59, 1, 0)),
    ])
    def test_exact_counts(self, fractions, cycles, width, counts):
        fe, be, fdc = fractions
        sample = sample_from_fractions(
            3, "t", fe=fe, be=be, fdc=fdc, cycles=cycles, dispatch_width=width
        )
        assert sample == RawCounterSample(3, "t", cycles, *counts)


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

    def test_reads_through_read_counter_file(self, tmp_path, monkeypatch):
        # The benchmark's tracer counts a trace's rows at
        # synpa.counters.read_counter_file: open_trace must read through it.
        calls = []
        original = counters.read_counter_file
        monkeypatch.setattr(
            counters, "read_counter_file", lambda path: calls.append(path) or original(path)
        )
        path = tmp_path / "trace.csv"
        path.write_text(well_formed_text())
        open_trace(str(path))
        assert calls == [str(path)]


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
        header2, samples2, counts = parse_counter_text(text)
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
            parse_counter_text(text)
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
            parse_counter_text(text)
        assert err.value.line == 3


#: Thread ids of a drawn file: never ``foreign``, and no junk character.
THREAD_IDS = st.text("abxyz01", min_size=1, max_size=3)
COUNTS = st.one_of(st.integers(0, 5000), st.integers(0, 2**64 - 1))


@st.composite
def counter_files(draw):
    """A valid trace or profile: its header, its samples in file order and
    its committed counts by ``(quantum, thread)``.  One thread runs every
    quantum; the others may arrive late, leave early or have no rows."""
    threads = draw(st.lists(THREAD_IDS, min_size=1, max_size=4, unique=True))
    header = TraceHeader(
        dispatch_width=draw(st.integers(1, 8)), quantum_ms=draw(st.floats(1e-3, 1e3)),
        threads=tuple(threads), mode=draw(st.sampled_from([None, "isolated", "paired"])),
    )
    first = draw(st.sampled_from([0, 7, 2**64 - 6]))
    n = draw(st.integers(0, 5))
    always = draw(st.sampled_from(threads))
    samples, committed = [], {}
    for thread in threads:
        start = 0 if thread == always else draw(st.integers(0, n))
        end = n if thread == always else draw(st.integers(start, n))
        for q in range(first + start, first + end):
            samples.append(RawCounterSample(q, thread, *(draw(COUNTS) for _ in range(4))))
            committed[(q, thread)] = draw(COUNTS)
    samples.sort(key=lambda s: (s.quantum_index, s.thread_id))
    return header, samples, committed


@st.composite
def edited_files(draw):
    """The text of a drawn file with rows swapped, duplicated, dropped,
    added for a foreign thread and blank lines put in; and whether its
    header is a profile's."""
    header, samples, committed = draw(counter_files())
    lines = format_trace(header, samples, committed).splitlines()
    rows = lines[2:]
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(["swap", "duplicate", "drop", "foreign", "blank"]))
        at = draw(st.integers(0, len(rows)))
        if edit == "blank":
            rows.insert(at, draw(st.sampled_from(["", " ", "\t"])))
        elif rows and edit == "swap":
            other = draw(st.integers(0, len(rows) - 1))
            at = min(at, len(rows) - 1)
            rows[at], rows[other] = rows[other], rows[at]
        elif rows and edit == "duplicate":
            rows.insert(at, draw(st.sampled_from(rows)))
        elif rows and edit == "drop":
            del rows[min(at, len(rows) - 1)]
        elif samples and edit == "foreign":
            fields = draw(st.sampled_from(lines[2:])).split(",")
            fields[1] = "foreign"
            rows.insert(at, ",".join(fields))
    return "\n".join(lines[:2] + rows) + "\n", header.mode is not None


def outcome(read, text, **options):
    """What ``read`` returns for ``text``, or the domain error it raises."""
    try:
        return read(text, **options)
    except SynpaError as exc:
        return exc


class TestReaderOracle:
    """The one-pass reader against today's two-pass reader
    (``tests/reference_reader.py``)."""

    @settings(max_examples=300, deadline=None)
    @given(case=edited_files())
    def test_one_pass_reader_agrees_with_the_two_pass_reader(self, case):
        text, profile = case
        want = outcome(reference_reader.parse_counter_text, text, require_committed=profile)
        got = outcome(parse_counter_text, text)
        if isinstance(want, SynpaError):
            # Every defect is reported, and on its line.
            assert isinstance(got, TraceError) and got.line is not None
        else:
            assert got == want


class TestFileProperties:
    @settings(max_examples=200, deadline=None)
    @given(file=counter_files())
    def test_format_then_parse_reproduces_the_file(self, file):
        header, samples, committed = file
        counts = [committed[(s.quantum_index, s.thread_id)] for s in samples]
        got = parse_counter_text(format_trace(header, samples, committed))
        assert got == (header, samples, counts if header.mode else [])

    #: Text around a field that no writer emits: a quote, a comma, NUL,
    #: whitespace, a line break, a sign and a 200 000-digit number.
    #: Leading zeros, up to 5000 of them, leave a count's value as it is.
    JUNK = st.lists(
        st.sampled_from(['"', ",", "\x00", " ", "\r", "\n", "_", "-", "9" * 200_000]),
        max_size=3,
    ).map("".join)

    @settings(max_examples=200, deadline=None)
    @given(file=counter_files(), data=st.data())
    def test_an_edited_field_reads_the_same_or_is_a_domain_error(self, file, data):
        header, samples, committed = file
        assume(samples)
        text = format_trace(header, samples, committed)
        lines = text.split("\n")
        k = data.draw(st.integers(2, len(samples) + 1), label="line index")
        fields = lines[k].split(",")
        i = data.draw(st.integers(0, len(fields) - 1), label="field")
        zeros = "" if i == 1 else data.draw(
            st.one_of(st.text("0", max_size=2), st.just("0" * 5000)), label="zeros"
        )
        fields[i] = data.draw(self.JUNK) + zeros + fields[i] + data.draw(self.JUNK)
        lines[k] = ",".join(fields)
        got = outcome(parse_counter_text, "\n".join(lines))
        if isinstance(got, SynpaError):
            assert isinstance(got, TraceError) and got.line is not None
        else:
            assert got == parse_counter_text(text)
