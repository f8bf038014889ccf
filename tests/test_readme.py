"""The README's library and command-line examples run and print what the
README shows."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from mdclean.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_example_prints_the_documented_output():
    text = README.read_text()
    section = text[text.index("## Library use"):]
    code, shown = re.findall(r"```(?:python)?\n(.*?)```", section, re.S)[:2]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue() == shown
    assert shown == (
        "domb (1, 1) [('R', 'A')] [('R', 'B')]\n"
        "{'t1': ('a1', 'b12'), 't2': ('a2', 'b12')}\n"
    )


def command_line_examples():
    """Each `mdclean ...` example of "Command line": (argv, shown lines,
    whether they are only the start of the output: none are shown, or a
    `# ...` line cuts them short)."""
    text = README.read_text()
    section = text[text.index("## Command line"):]
    (block,) = re.findall(r"```sh\n(.*?)```", section[:section.index("\nCommands:")], re.S)
    examples = []
    for example in block.replace("\\\n", " ").strip().split("\n\n"):
        command, *shown = example.splitlines()
        assert command.startswith("mdclean ") and all(line.startswith("# ") for line in shown)
        argv, shown = shlex.split(command)[1:], [line[2:] for line in shown]
        if shown and shown[-1].strip() == "...":
            examples.append((argv, shown[:-1], True))
        else:
            examples.append((argv, shown, not shown))
    return examples


EXAMPLES = command_line_examples()


@pytest.mark.parametrize("argv, shown, cut", EXAMPLES, ids=[argv[0] for argv, _, _ in EXAMPLES])
def test_command_line_examples_print_what_the_readme_shows(monkeypatch, capsys, argv, shown, cut):
    monkeypatch.chdir(README.parent)
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert (lines[:len(shown)] if cut else lines) == shown
