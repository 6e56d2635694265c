"""README's ``Library use`` code runs as written, so an API change cannot
leave it stale."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_use_blocks() -> list[str]:
    """The ``python`` code blocks of the ``## Library use`` section, in order."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, flags=re.S)


def test_library_use_blocks_run_in_order():
    blocks = library_use_blocks()
    assert len(blocks) >= 2
    namespace: dict = {}
    for block in blocks:  # later blocks use the names earlier ones define
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["stats"].converged
