"""The README's library sketch runs against the current API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_sketch_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    out = capsys.readouterr().out
    # the (2,4) built-in's two maximal ideals, then the audit summary
    assert out.startswith("[('0', '1'), ('0', 'a')]\n")
    assert "audit: 944 pass, 4 fail, 1752 skip over 100 structures" in out
