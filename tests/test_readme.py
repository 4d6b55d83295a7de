"""The README's library example runs and prints what its comments say."""

import io
import re
from contextlib import redirect_stdout
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example():
    text = README.read_text()
    (code,) = re.findall(r"## Library example\n\n```python\n(.*?)```", text, re.S)
    # each print line ends in a comment holding the line it prints
    expected = [line.split("#", 1)[1].strip() for line in code.splitlines() if line.startswith("print(")]
    assert expected == ["Obstructed", "3", "[6, 2, 1]", "(0, 1, 2)"]
    out = io.StringIO()
    with redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected
