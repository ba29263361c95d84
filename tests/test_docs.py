"""The README's code examples run as written."""

import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def _python_blocks(section: str) -> list[str]:
    text = README.read_text()
    body = text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", body, re.S)


def test_library_api_example_runs_one_honest_session():
    blocks = _python_blocks("Library API")
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    assert len(namespace["members"]) == 3
    assert 0 <= namespace["group_key"] < 167 * 179
    assert namespace["insider"].recovered_key == namespace["group_key"]
    assert namespace["planted"].key == namespace["insider"].forged_key == 1234
