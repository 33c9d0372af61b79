"""The mutation gate's table still names the code it mutates."""

from mutants import MUTANTS, stale_snippets


def test_every_mutant_snippet_occurs_once():
    assert MUTANTS
    assert stale_snippets() == {}
