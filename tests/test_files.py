"""Every file the CLI reads, mutated: no exception escapes.

Each example starts from a shipped config, or from a written results CSV
and its sidecar, and mutates it one way: truncated bytes, non-UTF-8 bytes
put in, a whole document of another JSON type, or up to three keys (or
list entries, or CSV cells) set to values from ``VALUES``. Only these
small values are used, never free integers, so no example builds a large
matrix or a long Monte-Carlo run. ``fddjam sweep`` and ``verify-lemma``
exit 0, 1 or 2, and on exit 2 name the file or a key; the readers raise
only ``ConfigError`` or ``OSError``.
"""

import contextlib
import copy
import csv
import functools
import io
import json
import os
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from fddjam import experiments
from fddjam.cli import main
from fddjam.experiments import (
    ConfigError,
    load_metadata_spec,
    metadata_path,
    read_results,
    run_sweep,
    spec_from_dict,
    write_results,
)

DATA = Path(__file__).resolve().parent / "data"
VALUES = [None, True, 0, 3, -1, 2.5, "x", [], [1], {}]
NOT_UTF8 = [b"\xff", b"\xfe\xff", b"\xc3(", b"\x80", b"\xed\xa0\x80"]


def shipped(name, **keys):
    return {**json.loads((DATA / name).read_text()), **keys}


# The two shipped configs, made valid and small, and the keys each command reads.
SWEEP = shipped("bool-noise-sweep.json", noise_variance=1.0)
LEMMA = shipped("verify-lemma-64.json", num_random=4)
KEYS = {
    "sweep": experiments._REQUIRED_KEYS | experiments._OPTIONAL_KEYS
    | experiments._SCENARIO_KEYS,
    "verify-lemma": experiments._LEMMA_REQUIRED | experiments._LEMMA_OPTIONAL,
}


def paths(doc, prefix=()):
    """The path of every key and list entry of a JSON document, outermost first."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield (*prefix, key)
        if isinstance(value, (dict, list)):
            yield from paths(value, (*prefix, key))


def with_values(doc, changes):
    """A copy of ``doc`` with each ``(path, value)`` of ``changes`` set in turn."""
    doc = copy.deepcopy(doc)
    for path, value in changes:
        target = doc
        try:
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = copy.deepcopy(value)
        except (KeyError, IndexError, TypeError):
            pass  # an earlier change replaced a container on this path
    return doc


def byte_mutations(data: bytes):
    """``data`` truncated, or with non-UTF-8 bytes put in."""
    return st.one_of(
        st.integers(0, len(data) - 1).map(lambda n: data[:n]),
        st.tuples(st.integers(0, len(data)), st.sampled_from(NOT_UTF8)).map(
            lambda at: data[: at[0]] + at[1] + data[at[0]:]
        ),
    )


def json_mutations(doc):
    """``doc`` as JSON, mutated."""
    data = json.dumps(doc, indent=2).encode()
    changes = st.lists(
        st.tuples(st.sampled_from(list(paths(doc))), st.sampled_from(VALUES)),
        min_size=1, max_size=3,
    )
    return st.one_of(
        byte_mutations(data),
        st.sampled_from(VALUES).map(lambda v: json.dumps(v).encode()),
        changes.map(lambda cs: json.dumps(with_values(doc, cs)).encode()),
    )


def run_cli(argv):
    """Exit code and stderr of ``fddjam`` run in this process on one worker."""
    err = io.StringIO()
    with mock.patch.dict(os.environ, {"FDDJAM_WORKERS": "1"}), \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=100, deadline=None)
@given(command=st.sampled_from(["sweep", "verify-lemma"]), data=st.data())
def test_cli_on_a_mutated_config_exits_0_1_or_2(command, data):
    content = data.draw(json_mutations(SWEEP if command == "sweep" else LEMMA))
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_bytes(content)
        argv = [command, "--config", str(config)]
        code, err = run_cli(argv + ["--out", tmp] if command == "sweep" else argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert str(config) in err or any(key in err for key in KEYS[command]), err


@functools.cache
def written():
    """The CSV bytes and the sidecar document of a small Monte-Carlo sweep."""
    spec = spec_from_dict({**SWEEP, "monte_carlo_trials": 2})
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "results.csv"
        write_results(run_sweep(spec, workers=1), path, spec=spec)
        return path.read_bytes(), json.loads(metadata_path(path).read_text())


def csv_mutations(data: bytes):
    """The CSV ``data``, truncated, with non-UTF-8 bytes, or with cells set."""
    rows = list(csv.reader(io.StringIO(data.decode())))
    cells = st.tuples(
        st.integers(0, len(rows) - 1), st.integers(0, len(rows[0]) - 1),
        st.sampled_from(["", *map(json.dumps, VALUES)]),
    )

    def with_cells(changes):
        changed = copy.deepcopy(rows)
        for row, column, text in changes:
            changed[row][column] = text
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows(changed)
        return out.getvalue().encode()

    return st.one_of(
        byte_mutations(data), st.lists(cells, min_size=1, max_size=3).map(with_cells)
    )


@settings(max_examples=100, deadline=None)
@given(data=st.data(), sidecar=st.booleans())
def test_readers_raise_only_config_or_os_errors(data, sidecar):
    csv_bytes, sidecar_doc = written()
    if sidecar:
        content = data.draw(json_mutations(sidecar_doc))
    else:
        content = data.draw(csv_mutations(csv_bytes))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / ("results.meta.json" if sidecar else "results.csv")
        path.write_bytes(content)
        with contextlib.suppress(ConfigError, OSError):
            (load_metadata_spec if sidecar else read_results)(path)
