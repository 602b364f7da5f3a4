"""The mutant list of `tests/mutants.py` against today's source: every
snippet occurs exactly once, so each mutant still applies.  The replay
itself (``python tests/mutants.py``) is opt-in."""

from collections import Counter

import pytest

from .mutants import MUTANTS, ROOT, source_of


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_snippet_occurs_exactly_once(mutant):
    assert source_of(mutant).count(mutant.snippet) == 1
    assert mutant.replacement != mutant.snippet


def test_each_mutant_names_its_killers_or_why_it_is_equivalent():
    assert len(MUTANTS) >= 10
    assert max(Counter(m.name for m in MUTANTS).values()) == 1
    for mutant in MUTANTS:
        assert bool(mutant.killers) != (mutant.equivalent is not None), mutant.name
        for test in mutant.killers:
            assert (ROOT / test.split("::")[0]).is_file(), test
