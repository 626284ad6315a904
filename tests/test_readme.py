"""The examples in README.md match what the code does.

Every `$ emptytet ...` line of a ```sh block is run through the CLI and
its stdout compared byte for byte with the lines shown under it (lines
marked `<- stderr` are not stdout and are skipped).  The Library snippet's
stated results are evaluated, and the names the Library section lists are
exactly the package's top level.
"""

import re
import shlex
from pathlib import Path

import pytest

import emptytet
from emptytet.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
PROMPT = "$ emptytet "


def _blocks(lang: str) -> list[list[str]]:
    return [
        block.splitlines()
        for block in re.findall(rf"^```{lang}\n(.*?)^```$", README, re.DOTALL | re.MULTILINE)
    ]


def _cli_examples() -> list[tuple[str, str]]:
    """(command line, expected stdout) for each CLI example."""
    examples = []
    for lines in _blocks("sh"):
        for line in lines:
            if line.startswith(PROMPT):
                examples.append((line[len(PROMPT):], []))
            elif examples and not line.startswith("$") and "<- stderr" not in line:
                examples[-1][1].append(line)
    return [(command, "".join(out + "\n" for out in shown)) for command, shown in examples]


CLI_EXAMPLES = _cli_examples()


def test_readme_has_cli_examples():
    commands = {command.split()[0] for command, _ in CLI_EXAMPLES}
    assert commands == {"classify", "normalize", "enumerate", "points", "verify"}


@pytest.mark.parametrize("command,expected", CLI_EXAMPLES, ids=[c for c, _ in CLI_EXAMPLES])
def test_readme_cli_example(command, expected, capsys):
    assert main(shlex.split(command)) == 0
    assert capsys.readouterr().out == expected


def test_readme_library_snippet_results():
    (snippet,) = _blocks("python")
    namespace = {}
    checked = 0
    for line in snippet:
        code, _, comment = line.partition("#")
        try:
            expression = compile(code, "README.md", "eval")
        except SyntaxError:
            exec(code, namespace)
            continue
        if comment:
            assert comment.strip().startswith(repr(eval(expression, namespace))), line
            checked += 1
    assert checked == 2


def test_readme_library_names_are_the_top_level():
    library = README.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    listed = [
        name
        for line in library.splitlines()
        if line.startswith("- ")
        for name in re.findall(r"`(\w+)`", line)
    ]
    assert len(listed) == len(set(listed)) == 19
    assert set(listed) == set(emptytet.__all__)
    namespace = {}
    exec("from emptytet import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(emptytet.__all__)
