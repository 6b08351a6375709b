import re
from pathlib import Path

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_library_example_prints_the_stated_genie_ser(capsys):
    # the python block under "Library example" runs as written, and prints
    # the genie SER that the prose after it states
    code = re.search(r"## Library example\n\n```python\n(.*?)```", README, re.S).group(1)
    stated = re.search(r"the example prints genie SER\s+([0-9]+\.[0-9]+)", README).group(1)
    exec(compile(code, "README.md", "exec"), {})
    assert f"genie SER: {stated}" in capsys.readouterr().out.splitlines()
