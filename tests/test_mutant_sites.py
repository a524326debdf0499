"""Every mutant in `tools/mutants.py` still names a site in the package.

The mutation tool applies each mutant as a textual edit that must match
exactly once, and it is not part of the test suite; a refactor that rewrote
a mutant's site would leave the tool stale without failing anything. This
check loads `tools/mutants.py` from its file and changes nothing there.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("tools_mutants",
                                              ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutants)


@pytest.mark.parametrize("name, module, old, new, killer", mutants.MUTANTS,
                         ids=[m[0] for m in mutants.MUTANTS])
def test_mutant_site_occurs_once(name, module, old, new, killer):
    text = (ROOT / "src" / "lapsewalk" / module).read_text()
    assert text.count(old) == 1, f"{name}: {old!r} occurs {text.count(old)} times"
    assert new != old
    if killer is not None:
        path, _, test = killer.partition("::")
        assert f"def {test}(" in (ROOT / path).read_text(), killer
