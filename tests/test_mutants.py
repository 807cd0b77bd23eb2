"""The mutant table stays runnable: ``python tests/mutants.py`` runs it."""

import re

import pytest

from mutants import MUTANTS, ROOT, MutantError, apply


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_text_occurs_once_and_names_existing_tests(name, tmp_path):
    path, text, replacement, tests = MUTANTS[name]
    assert text != replacement
    (tmp_path / path).parent.mkdir(parents=True)
    (tmp_path / path).write_text((ROOT / path).read_text())
    apply(name, tmp_path)
    assert (tmp_path / path).read_text() != (ROOT / path).read_text()
    assert tests
    for test in tests:
        module, function = re.fullmatch(r"(tests/test_\w+\.py)::(\w+)(\[.+\])?", test).groups()[:2]
        assert f"\ndef {function}(" in (ROOT / module).read_text(), test


def test_a_mutant_whose_text_moved_is_an_error(tmp_path, monkeypatch):
    path, text, replacement, tests = MUTANTS["geometric-limit-strict"]
    monkeypatch.setitem(MUTANTS, "moved", (path, text + "  # moved", replacement, tests))
    (tmp_path / path).parent.mkdir(parents=True)
    (tmp_path / path).write_text((ROOT / path).read_text())
    with pytest.raises(MutantError, match="occurs 0 times"):
        apply("moved", tmp_path)
