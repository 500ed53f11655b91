"""README's examples run as written.

The Library use block is executed as it stands, and each print is checked
against its trailing comment; the regularity text block is compared byte for
byte with the CLI's output.
"""

import re
from pathlib import Path

from heckeslopes.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _blocks():
    """Every fenced block of README as (info string, body)."""
    return re.findall(r"^```(\w*)\n(.*?)^```$", README, flags=re.M | re.S)


def test_library_use_block_prints_what_its_comments_say(tmp_path, monkeypatch):
    (code,) = [body for info, body in _blocks()
               if info == "python" and "from heckeslopes import" in body]
    expected = [line.rsplit("#", 1)[1].strip()
                for line in code.splitlines() if "print(" in line.split("#", 1)[0]]
    assert len(expected) == 5
    printed = []
    monkeypatch.chdir(tmp_path)  # the block writes cache.jsonl
    exec(code, {"print": lambda *args: printed.append(" ".join(map(str, args)))})
    assert printed == expected
    assert (tmp_path / "cache.jsonl").exists()


def test_regularity_block_is_the_cli_output(capsys):
    (shown,) = [body for _, body in _blocks() if body.startswith("T_2 slopes on S_k")]
    assert "heckeslopes regularity --p 2 --N 11\n" in README
    assert main(["regularity", "--p", "2", "--N", "11", "--cache", ""]) == 0
    assert capsys.readouterr().out == shown
