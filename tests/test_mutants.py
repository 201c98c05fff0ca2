"""The standing mutants of `tests/mutants.py` stay applicable: each old
text still occurs exactly once in its file, and each test it must fail is
still defined.  Running the mutants themselves is left to the script."""

import os

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_old_text_occurs_once_and_its_tests_exist(mutant):
    with open(os.path.join(ROOT, mutant.path)) as f:
        assert f.read().count(mutant.old) == 1
    for node in mutant.tests:
        path, name = node.split("::")
        with open(os.path.join(ROOT, path)) as f:
            assert f"\ndef {name}(" in f.read(), node
