"""Golden-trace regression tests.

Two small canonical trace files (a seidel-like stencil and a
kmeans-like clustering run) are committed under ``tests/data/``
together with pinned JSON expectations for their analysis results.
Any numeric drift — in the trace format readers, the statistics, the
metrics or the lane store — fails these tests with exact-equality
diffs.  A third fixture is committed in *foreign* formats (Paraver
``.prv``/``.pcf`` and Chrome trace-event JSON): both files must
dispatch through the ingestion registry and reproduce one shared set
of pinned numbers, so the foreign parsers cannot drift either.
Regenerate intentionally with ``python tools/make_golden.py``.
"""

import json
import pathlib
import sys

import pytest

from repro.trace_format import (detect_source, ingest_trace,
                                read_chunk_index, read_trace)

ROOT = pathlib.Path(__file__).resolve().parent.parent
DATA_DIR = ROOT / "tests" / "data"

sys.path.insert(0, str(ROOT / "tools"))
from make_golden import (FOREIGN_FIXTURES, GOLDEN_TRACES,  # noqa: E402
                         golden_expectations)

sys.path.pop(0)


@pytest.fixture(scope="module")
def pinned():
    with open(DATA_DIR / "golden_expectations.json") as stream:
        return json.load(stream)


@pytest.mark.parametrize("name", GOLDEN_TRACES)
class TestGoldenTraces:
    def test_fixture_files_exist(self, name, pinned):
        path = DATA_DIR / "golden_{}.ost".format(name)
        assert path.is_file()
        assert name in pinned
        assert read_chunk_index(str(path)) is not None

    def test_store_matches_pinned_results(self, name, pinned):
        trace = read_trace(str(DATA_DIR / "golden_{}.ost".format(name)))
        assert golden_expectations(trace) == pinned[name]

    def test_mapped_store_matches_pinned_results(self, name, pinned,
                                                 tmp_path):
        """The store every session serves — mapped back from the
        ``.ostc`` sidecar — reproduces the pinned numbers too."""
        path = str(DATA_DIR / "golden_{}.ost".format(name))
        cache = str(tmp_path / "golden.ostc")
        read_trace(path, cache=cache)             # writes the sidecar
        mapped = read_trace(path, cache=cache)    # maps it back
        assert mapped.pyramids is not None
        assert golden_expectations(mapped) == pinned[name]


@pytest.mark.parametrize("filename,source",
                         sorted(FOREIGN_FIXTURES.items()))
class TestGoldenForeignTraces:
    def test_registry_dispatch(self, filename, source, pinned):
        path = DATA_DIR / filename
        assert path.is_file()
        assert detect_source(str(path)).name == source

    def test_ingested_analysis_matches_pinned(self, filename, source,
                                              pinned):
        trace = ingest_trace(str(DATA_DIR / filename))
        assert golden_expectations(trace) == pinned["foreign"]


def test_expectations_cover_every_golden_trace(pinned):
    assert sorted(pinned) == sorted(GOLDEN_TRACES + ("foreign",))
    for name, values in pinned.items():
        assert values["counts"]["tasks"] > 0, name
        assert sum(values["state_time_summary"].values()) > 0, name
