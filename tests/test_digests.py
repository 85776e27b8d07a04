"""Bit identity: every item tools/digests.py pins in tests/digests.txt, from
the session fixtures the suite already builds."""
import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "digests", Path(__file__).resolve().parents[1] / "tools" / "digests.py")
digests = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(digests)


def test_outputs_match_the_pinned_digests(request):
    env, expected = digests.read_pinned()
    assert env == digests.environment(), (
        f"tests/digests.txt holds the bits of {env}, this is {digests.environment()}; "
        "rewrite it with python3 tools/digests.py --write")
    values = {name: request.getfixturevalue(name) for name in digests.fixture_names()}
    actual = digests.pinned(digests.groups(values))
    differ = [key for key in {**expected, **actual} if expected.get(key) != actual.get(key)]
    assert not differ, f"{len(differ)} items differ from tests/digests.txt:\n" + "\n".join(differ)
