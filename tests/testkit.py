"""Shared by the tests: the report's digests and one reset of every memo."""

import importlib
from pathlib import Path

import a6k3

SRC = Path(a6k3.__file__).parent
# the md5 of `a6k3 all --format json` and of `a6k3 all`, byte for byte
REPORT_DIGEST = "ac027fccd946ffad638ccb95bdd9786a"
TEXT_REPORT_DIGEST = "ff41c0502feadfc73f6c33ed90b074b1"


def package_modules() -> list:
    """Every module of the package, found by its file."""
    return [importlib.import_module(f"a6k3.{p.stem}") for p in sorted(SRC.glob("*.py"))]


def clear_caches() -> set:
    """Empty every module-level memo of the package and return the memoized
    functions.  Data memoized on a group by `group_cache` needs no clearing:
    it is dropped with the groups that only these builders held."""
    memos = {f for m in package_modules() for f in vars(m).values() if hasattr(f, "cache_clear")}
    for fn in memos:
        fn.cache_clear()
    return memos
