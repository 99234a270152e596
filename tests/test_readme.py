"""The documented interface: the README's examples and the package's public names."""

import pathlib
import re
import shlex

import pytest

import twinloss
from twinloss.cli import build_parser

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


def test_readme_cli_lines_parse():
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
    # join backslash continuations, then drop comments
    lines = [
        line.split("#")[0].strip()
        for block in blocks
        for line in block.replace("\\\n", " ").splitlines()
    ]
    commands = [line for line in lines if line.startswith("twinloss ")]
    assert commands
    parser = build_parser()
    for command in commands:
        try:
            parser.parse_args(shlex.split(command)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {command}")


def test_public_names_resolve_once():
    assert len(set(twinloss.__all__)) == len(twinloss.__all__)
    for name in twinloss.__all__:
        assert hasattr(twinloss, name), name
