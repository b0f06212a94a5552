"""Every JSON file format read through one set of typed readers.

A property per format edits one JSON value of a valid file the package
wrote (workload, coefficients, run log, trace header, profile header)
and runs the reader and the first code that uses what it read: only a
``SynpaError`` may escape, and an edit to another JSON type must give a
``SynpaError`` or the unedited result.  The named cases below are edits
that once ended in a traceback or were accepted as they stood.
"""

import json
import math
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synpa import (
    CATEGORIES,
    REFERENCE_COEFFICIENTS,
    EngineConfig,
    ModelCoefficients,
    SimWorkload,
    aligned_samples,
    invert_category,
    parse_counter_text,
    run,
)
from synpa.cli import main
from synpa.errors import ModelError, SynpaError, TraceError, WorkloadError
from synpa.harness import WorkloadSpec, compute_metrics, load_log_summary

from conftest import CORPUS_APPS, CORPUS_PAIRS, write_profile_corpus

#: The values an edit puts in place of one JSON value.
REPLACEMENTS = ["x", True, None, [], [1], {}, {"x": 1}, 10**400, math.nan, -1, 0]


def json_type(value):
    """The JSON type of a parsed value: an int and a float are both numbers."""
    return "number" if type(value) in (int, float) else type(value).__name__


def value_paths(doc, path=()):
    """The path of every value in ``doc``, itself included."""
    yield path
    if isinstance(doc, (dict, list)):
        items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    else:
        items = ()
    for key, value in items:
        yield from value_paths(value, (*path, key))


def edited(doc, path, value):
    """A copy of ``doc`` with the value at ``path`` replaced; and the old value."""
    if not path:
        return value, doc
    doc = json.loads(json.dumps(doc))
    owner = doc
    for key in path[:-1]:
        owner = owner[key]
    old, owner[path[-1]] = owner[path[-1]], value
    return doc, old


def check_edit(consume, baseline, text_of, doc, data):
    """Edit one value of ``doc``, consume ``text_of(edited doc)`` and check
    what came out."""
    path = data.draw(st.sampled_from(list(value_paths(doc))), label="path")
    value = data.draw(st.sampled_from(REPLACEMENTS), label="value")
    new, old = edited(doc, path, value)
    try:
        got = consume(text_of(new))
    except SynpaError:
        return
    if json_type(old) != json_type(value):
        assert got == baseline


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A 4-app workload, its simulated log and exported trace, and the
    profiles of one pair of the test corpus."""
    d = tmp_path_factory.mktemp("readers")
    wl, log, trace = d / "wl.json", d / "run.jsonl", d / "run.trace"
    assert main(["gen-workload", "--recipe", "mixed", "--seed", "1", "--size", "4",
                 "--iso-quanta", "3", "--out", str(wl)]) == 0
    assert main(["simulate", "--workload", str(wl), "--out", str(log),
                 "--export-trace", str(trace)]) == 0
    profiles = write_profile_corpus(str(d), REFERENCE_COEFFICIENTS, CORPUS_APPS, CORPUS_PAIRS[:1],
                                    n_iso=4, n_paired=3)
    return {
        "dir": d,
        "workload": wl.read_text(encoding="utf-8"),
        "log": log.read_text(encoding="utf-8"),
        "trace": trace.read_text(encoding="utf-8"),
        "profiles": [pathlib.Path(p).read_text(encoding="utf-8") for p in profiles],
    }


def write(files, name, text):
    path = files["dir"] / name
    path.write_text(text, encoding="utf-8")
    return str(path)


PROPERTY = settings(max_examples=120, deadline=None)


class TestOneEditedValue:
    @PROPERTY
    @given(data=st.data())
    def test_workload(self, files, data):
        def consume(text):
            spec = WorkloadSpec.from_json(text)
            return spec, SimWorkload(apps=spec.apps, quantum_ms=spec.quantum_ms)

        baseline = consume(files["workload"])
        check_edit(consume, baseline, json.dumps, json.loads(files["workload"]), data)

    @PROPERTY
    @given(data=st.data())
    def test_coefficients(self, data):
        def consume(text):
            model = ModelCoefficients.from_json(text)
            return model, [invert_category(model.category(c), 0.4, 0.7) for c in CATEGORIES]

        baseline = consume(REFERENCE_COEFFICIENTS.to_json())
        doc = json.loads(REFERENCE_COEFFICIENTS.to_json())
        check_edit(consume, baseline, json.dumps, doc, data)

    @PROPERTY
    @given(data=st.data(), line=st.sampled_from([0, -1]))
    def test_run_log(self, files, data, line):
        lines = files["log"].splitlines()

        def text_of(doc):
            edited_lines = list(lines)
            edited_lines[line] = json.dumps(doc)
            return "\n".join(edited_lines) + "\n"

        def consume(text):
            return compute_metrics(load_log_summary(write(files, "edited.jsonl", text)))

        baseline = consume(files["log"])
        check_edit(consume, baseline, text_of, json.loads(lines[line]), data)

    @PROPERTY
    @given(data=st.data())
    def test_trace_header(self, files, data):
        header, rest = files["trace"].split("\n", 1)

        def consume(text):
            return run(EngineConfig(trace_path=write(files, "edited.trace", text))).to_jsonl()

        baseline = consume(files["trace"])
        check_edit(consume, baseline, lambda doc: json.dumps(doc) + "\n" + rest,
                   json.loads(header), data)

    @PROPERTY
    @given(data=st.data(), which=st.sampled_from(["isolated", "paired"]))
    def test_profile_header(self, files, data, which):
        profiles = files["profiles"]
        at = next(k for k, t in enumerate(profiles) if f'"mode": "{which}"' in t)
        header, rest = profiles[at].split("\n", 1)

        def consume(text):
            return aligned_samples([write(files, f"p{k}.profile", text if k == at else t)
                                    for k, t in enumerate(profiles)])

        baseline = consume(profiles[at])
        check_edit(consume, baseline, lambda doc: json.dumps(doc) + "\n" + rest,
                   json.loads(header), data)


def edit_json_line(text, line, edit):
    lines = text.splitlines()
    doc = json.loads(lines[line])
    edit(doc)
    lines[line] = json.dumps(doc)
    return "\n".join(lines) + "\n"


def set_in(*path_and_value):
    *path, key, value = path_and_value

    def edit(doc):
        for step in path:
            doc = doc[step]
        doc[key] = value
    return edit


def first_iso_quanta(doc, value):
    iso = doc["summary"]["iso_quanta"]
    iso[min(iso)] = value


class TestNamedEdits:
    """Each edit once crashed its reader's consumer or was accepted."""

    @pytest.mark.parametrize("edit", [
        pytest.param(set_in("cycles_per_quantum", 0), id="cycles-0"),
        pytest.param(set_in("quantum_ms", "100"), id="quantum-string"),
        pytest.param(set_in("quantum_ms", math.nan), id="quantum-nan"),
        pytest.param(set_in("seed", 7.9), id="seed-fraction"),
        pytest.param(set_in("apps", "abcd"), id="apps-string"),
    ])
    def test_log_header(self, files, capsys, edit):
        path = write(files, "named.jsonl", edit_json_line(files["log"], 0, edit))
        assert main(["report", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda doc: doc["summary"]["iso_quanta"].popitem(), id="iso-lacks-app"),
        pytest.param(set_in("summary", "instructions", "many"), id="instructions-string"),
        # Found by the property: statistics.pstdev fails on a NaN speedup.
        pytest.param(lambda doc: first_iso_quanta(doc, math.nan), id="iso-nan"),
    ])
    def test_log_summary(self, files, capsys, edit):
        path = write(files, "named.jsonl", edit_json_line(files["log"], -1, edit))
        assert main(["report", path]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_workload_vector_list(self, files, capsys):
        doc = json.loads(files["workload"])
        doc["apps"][0]["phases"][0]["vector"] = [0.2, 0.3, 0.5]
        path = write(files, "named.json", json.dumps(doc))
        assert main(["simulate", "--workload", path, "--out", str(files["dir"] / "x.jsonl")]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("edit, message", [
        pytest.param(set_in("phases", 0, "vector", {"fe": 0.5, "be": 0.5, "fdc": 0.5}),
                     "phase 1: category fractions must sum to 1, got 1.5", id="sum-1.5"),
        pytest.param(set_in("phases", 0, "vector", {"fe": -0.2, "be": 0.6, "fdc": 0.6}),
                     "phase 1: category fe must be >= 0, got -0.2", id="negative"),
        pytest.param(set_in("phases", 0, "vector", {"fe": 0.5, "be": 0.5, "fdc": 0.0}),
                     "phase 1: phase fdc fraction must be positive", id="fdc-0"),
        pytest.param(set_in("phases", 0, "instructions", 0),
                     "phase 1: phase instruction budget must be >= 1", id="instructions-0"),
        pytest.param(set_in("phases", []), "needs at least one phase", id="no-phases"),
        pytest.param(set_in("target_instructions", 0), "target must be >= 1", id="target-0"),
    ])
    def test_workload_app(self, files, capsys, edit, message):
        # The app or phase that refuses a value names itself in the format's error.
        doc = json.loads(files["workload"])
        edit(doc["apps"][1])
        want = f"bad synthetic app definition: app {doc['apps'][1]['app_id']!r} {message}"
        with pytest.raises(WorkloadError) as err:
            WorkloadSpec.from_json(json.dumps(doc))
        assert str(err.value).startswith(want)
        path, out = write(files, "named.json", json.dumps(doc)), files["dir"] / "app.jsonl"
        assert main(["simulate", "--workload", path, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {want}") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("version", [1.5, "1", True])
    def test_trace_version(self, files, version):
        text = edit_json_line(files["trace"], 0, set_in("version", version))
        with pytest.raises(TraceError, match="version") as err:
            parse_counter_text(text)
        assert err.value.line == 1

    def test_workload_version_true(self, files):
        doc = json.loads(files["workload"])
        doc["version"] = True
        with pytest.raises(WorkloadError, match="version"):
            WorkloadSpec.from_json(json.dumps(doc))

    @pytest.mark.parametrize("edit", [
        pytest.param(set_in("version", True), id="version-true"),
        pytest.param(set_in("categories", "fe", "alpha", "0.5"), id="alpha-string"),
        pytest.param(set_in("categories", "fe", "alpha", True), id="alpha-bool"),
        pytest.param(set_in("provenance", [1]), id="provenance-list"),
    ])
    def test_coefficients(self, edit):
        doc = json.loads(REFERENCE_COEFFICIENTS.to_json())
        edit(doc)
        with pytest.raises(ModelError):
            ModelCoefficients.from_json(json.dumps(doc))
