"""The README's examples run as written.

The two ``python`` blocks run in one namespace (the sweep block uses the
quick start's ``spec``), and every ``drivenbath`` command of the CLI block
but ``verify`` (which ``test_acceptance`` covers) runs through
:func:`drivenbath.cli.main`.
"""

import re
import shlex
from pathlib import Path

from drivenbath import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def blocks(language):
    """The bodies of the README's fenced blocks in ``language``."""
    text = README.read_text(encoding="utf-8")
    return re.findall(rf"^```{language}\n(.*?)^```$", text,
                      flags=re.MULTILINE | re.DOTALL)


def cli_commands():
    """Each ``drivenbath`` line of the CLI block, continuations joined."""
    (body,) = [b for b in blocks("sh") if "drivenbath wext" in b]
    lines = body.replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines
            if line.startswith("drivenbath ")]


def test_library_examples_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    python = blocks("python")
    assert len(python) == 2
    namespace = {}
    for body in python:
        exec(compile(body, str(README), "exec"), namespace)
    assert namespace["result"].metadata["integrals"] == 128
    assert len(capsys.readouterr().out.splitlines()) == 3


def test_cli_examples_run(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = [args for args in cli_commands() if args[0] != "verify"]
    assert [args[0] for args in commands] == [
        "wcf", "wdf", "wext", "engine", "sweep"]
    for args in commands:
        assert cli.main(args) == 0, args
        out = tmp_path / args[args.index("--out") + 1]
        if args[0] == "sweep":
            assert sorted(p.name for p in out.iterdir()) == [
                "betaq.csv", "contour.csv", "grid.csv"]
        else:
            assert out.is_file() and out.stat().st_size > 0
