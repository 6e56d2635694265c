"""README's ``Library use`` code runs as written, and its CLI examples and
the key table of ``spfc.config`` agree with ``config.KEYS``, so an API or
config change cannot leave them stale.  Its ``Cost of a step`` table is the
FFT-count oracle of the stepper tests (:func:`step_cost`)."""

import re
import shlex
from pathlib import Path

import pytest

from spfc import config
from spfc.config import KEYS, parse_config

README = Path(__file__).resolve().parent.parent / "README.md"


def section_blocks(title: str, lang: str) -> list[str]:
    """The ``lang`` code blocks of the README section ``## title``, in order."""
    text = README.read_text(encoding="utf-8")
    section = text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(rf"```{lang}\n(.*?)```", section, flags=re.S)


def step_cost(row: str, dim: int, iters: int = 0) -> int:
    """FFTs of the row of the README table ``### Cost of a step`` whose first
    cell starts with ``row``: the cell's leading count, in backticks or bare,
    with ``dim`` and ``iters`` substituted (``2 dim iters`` reads
    ``2 * dim * iters``)."""
    text = README.read_text(encoding="utf-8")
    table = text.split("\n### Cost of a step\n", 1)[1].split("\n#", 1)[0]
    rows = [re.match(r"\| (.*?) \| (.*) \|$", line) for line in table.splitlines()]
    (cell,) = [m[2] for m in rows if m and m[1].startswith(row)]
    count = re.match(r"`([^`]+)`|\d+", cell)
    expr = re.sub(r"(?<=\w) (?=\w)", " * ", count[1] or count[0])
    return eval(expr, {"__builtins__": {}}, {"dim": dim, "iters": iters})


def command_lines() -> list[str]:
    """Every ``spfc <subcommand>`` line of the README's ``sh`` blocks."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.S)
    lines = (line.split("#", 1)[0].strip() for block in blocks for line in block.splitlines())
    return [line for line in lines if line.startswith("spfc ")]


def test_library_use_blocks_run_in_order():
    blocks = section_blocks("Library use", "python")
    assert len(blocks) >= 2
    namespace: dict = {}
    for block in blocks:  # later blocks use the names earlier ones define
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["stats"].converged


def test_example_run_cfg_parses_as_simulate():
    (example,) = section_blocks("CLI", "ini")
    cfg = parse_config(example, "simulate")
    assert cfg.pattern.sites == ((50.0, 50.0, 10.0),)


@pytest.mark.parametrize("line", [line for line in command_lines() if "--config" not in line])
def test_command_line_parses(line):
    _, command, *args = shlex.split(line)
    assert args[::2] == ["--set"] * len(args[1::2])
    parse_config("", command.replace("-", "_"), tuple(args[1::2]))


def test_config_docstring_table_names_every_key():
    lines = config.__doc__.splitlines()
    _, header, bottom = (i for i, line in enumerate(lines) if line.startswith("==="))
    rows = lines[header + 1 : bottom]  # a row's continuation lines start blank
    assert sorted(line.split()[0] for line in rows if line[:1].strip()) == sorted(KEYS)
