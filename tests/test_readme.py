"""The README's library example runs and prints what the README shows."""

import contextlib
import io
import re
from pathlib import Path

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
