"""Every named mutant of tools/mutants.py still applies: its line occurs
exactly once in its file, and each test it names is defined in a file that
exists. The mutants themselves run by hand (`python tools/mutants.py`), so a
moved line would otherwise show only there."""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_mutant_applies(mutant):
    lines = (ROOT / mutant.path).read_text(encoding="utf-8").splitlines()
    assert [line.strip() for line in lines].count(mutant.line) == 1
    assert mutant.mutated != mutant.line
    for node in mutant.tests:
        path, *names = node.split("::")
        assert (ROOT / path).is_file(), node
        text = (ROOT / path).read_text(encoding="utf-8")
        assert all(f"def {n}(" in text or f"class {n}" in text for n in names), node


def test_mutant_names_are_unique():
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)
