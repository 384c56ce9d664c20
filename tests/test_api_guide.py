"""The ``python`` blocks of ``docs/api_guide.md`` run as written.

The guide is a tour of runnable snippets, so this test runs them in
document order in one namespace, as a reader pasting them into one
interpreter would: a block that names an attribute or a variable that
does not exist fails here instead of in front of that reader.
"""

from __future__ import annotations

import re
from pathlib import Path

GUIDE = Path(__file__).resolve().parents[1] / "docs" / "api_guide.md"
BLOCK = re.compile(r"^```python\n(.*?)^```", re.DOTALL | re.MULTILINE)


def test_guide_blocks_run_in_order():
    text = GUIDE.read_text(encoding="utf-8")
    blocks = BLOCK.findall(text)
    assert blocks
    assert len(blocks) == text.count("```python")
    namespace: dict[str, object] = {}
    for number, block in enumerate(blocks, start=1):
        exec(compile(block, f"{GUIDE.name}, block {number}", "exec"),
             namespace)
