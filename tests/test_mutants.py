"""The mutant list of `tests/mutants.py` against today's source: every
snippet occurs exactly once, so each mutant still applies.  The replay
itself (``python tests/mutants.py``) is opt-in."""

from collections import Counter

import pytest

from .mutants import MUTANTS, ROOT, SOURCE, run_tests, source_of


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


def test_a_failed_parametrized_id_with_a_space_is_read_whole(tmp_path):
    # ``pytest -rf`` prints ``FAILED <node id> - <message>``; the id of a
    # parameter holding a space is read up to the `` - ``, not the space.
    test = tmp_path / "test_spaced.py"
    test.write_text(
        "import pytest\n\n\n"
        '@pytest.mark.parametrize("word", ["a b"])\n'
        "def test_fails(word):\n"
        '    assert word == "ab"\n',
        encoding="utf-8",
    )
    outcome, failed, _ = run_tests(SOURCE, [str(test)], 120)
    assert outcome == "failed"
    assert len(failed) == 1 and failed[0].endswith("test_spaced.py::test_fails[a b]")
