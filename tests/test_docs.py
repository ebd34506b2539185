"""The documentation is part of the test surface.

CI runs doctests over the docs' code examples and a docstring-presence
lint over the public trace-format/analysis API; this module runs the
same checks locally so they cannot rot between CI environments.
"""

import doctest
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOC_FILES = ["docs/trace-format.md", "docs/architecture.md",
             "docs/service-api.md"]


@pytest.mark.parametrize("relpath", DOC_FILES)
def test_doc_examples_execute(relpath):
    results = doctest.testfile(str(ROOT / relpath),
                               module_relative=False, verbose=False)
    assert results.attempted > 0, "doc has no examples: " + relpath
    assert results.failed == 0


def test_docs_exist_and_cross_link():
    readme = (ROOT / "README.md").read_text()
    for relpath in ("docs/architecture.md", "docs/trace-format.md",
                    "docs/service-api.md", "docs/paper-mapping.md"):
        assert (ROOT / relpath).is_file(), relpath
        assert relpath in readme, "README does not link " + relpath


def test_no_dangling_doc_references():
    """Every markdown link and repo path named in README/docs
    resolves to a real file (tools/check_docs_links.py, CI-wired)."""
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        from check_docs_links import check
        paths = [ROOT / "README.md"] + sorted(ROOT.glob("docs/*.md"))
        assert check(paths) == []
    finally:
        sys.path.pop(0)


def test_paper_mapping_covers_every_benchmark():
    mapping = (ROOT / "docs" / "paper-mapping.md").read_text()
    benches = sorted((ROOT / "benchmarks").glob("bench_*.py"))
    assert benches
    for bench in benches:
        assert bench.name in mapping, \
            bench.name + " missing from docs/paper-mapping.md"
        assert "docs/paper-mapping.md" in bench.read_text(), \
            bench.name + " docstring does not link the mapping doc"


def test_quickstart_example_runs_end_to_end(tmp_path, capsys):
    """The README's runnable quickstart executes end to end, and its
    lane-store step reports parity with the reference statistics."""
    import importlib.util
    spec = importlib.util.spec_from_file_location(
        "quickstart", str(ROOT / "examples" / "quickstart.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main(str(tmp_path))
    out = capsys.readouterr().out
    assert "statistics identical to the reference: True" in out
    assert "file reload matches the traced store: True" in out
    assert "matches parsed store: True" in out
    assert "self-diff empty: True" in out
    assert "quickstart.prv -> paraver, quickstart.json -> chrome" in out
    assert "paraver round trip keeps state times: True" in out
    assert "chrome round trip is exact: True" in out
    assert "crash-resumable sweep: 2 of 4 points survived the " \
        "interruption" in out
    assert "resumed sweep re-simulated completed points: 0" in out
    assert "sweep complete: 4 of 4 traces" in out
    assert "shared mapping on second open: True" in out
    assert "stats identical across clients: True" in out
    assert (tmp_path / "quickstart_suite" / "journal.sqlite").exists()
    assert (tmp_path / "quickstart.ostc").exists()
    assert (tmp_path / "quickstart_states.ppm").exists()
    assert (tmp_path / "quickstart_compare.ppm").exists()
    assert (tmp_path / "quickstart.prv").exists()
    assert (tmp_path / "quickstart.json").exists()


def test_public_trace_format_api_is_documented():
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        from lint_docstrings import lint
        assert lint(root=str(ROOT)) == []
    finally:
        sys.path.pop(0)
