"""Every public name of spdelab is reached by the program, not by tests alone."""
import pathlib
import re

import spdelab

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: the program's sources: the library and the benchmark that drives it
SOURCES = [path for top in ("src", "bench") for path in sorted((ROOT / top).rglob("*.py"))
           if path.name != "__init__.py"]


def test_every_public_name_is_used_outside_its_definition():
    """A name in spdelab.__all__ needs a word-boundary reference in src/ or
    bench/ on a line other than the one defining it; __init__.py, which only
    re-exports, does not count."""
    lines = [line for path in SOURCES for line in path.read_text().splitlines()]
    unused = []
    for name in spdelab.__all__:
        word = re.compile(rf"\b{re.escape(name)}\b")
        definition = re.compile(rf"\s*(?:def|class)\s+{re.escape(name)}\b|{re.escape(name)}\s*=")
        if not any(word.search(line) and not definition.match(line) for line in lines):
            unused.append(name)
    assert not unused, f"public names reached only by tests: {unused}"
