"""The README's library examples run and print what their comments say.

The fenced python blocks of README.md run in order in one namespace, as a
reader pasting them into one session would run them. Each line
``print(...)  # value`` must print exactly value, and no other line prints.
"""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"


def test_readme_python_blocks_print_what_their_comments_say():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    expected = [v for block in blocks for v in re.findall(r"^print\(.*\)  # (.*)$", block, re.M)]
    namespace: dict = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for block in blocks:
            exec(compile(block, str(README), "exec"), namespace)
    assert len(blocks) >= 2 and len(expected) >= 4
    assert out.getvalue().splitlines() == expected
