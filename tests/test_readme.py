"""The README's Python examples run as written; its settings table matches
the CLI's."""

import re
from pathlib import Path

from dynvol.cli import _SETTINGS, _dump_config
from dynvol.harness import study_preset

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_examples_run(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    for code in blocks:
        exec(compile(code, str(README), "exec"), {})


def test_readme_settings_table_lists_every_config_key():
    rows = re.findall(r"^\| `(\w+)` \| *`?([\w-]*)`? *\| (yes|no) \|",
                      README.read_text(), re.M)
    table = {key: (flag or None, read == "yes") for key, flag, read in rows}
    dumped = [line.split(" = ")[0]
              for line in _dump_config(study_preset("cir")).splitlines()]
    assert list(table) == [k for k in dumped if not k.startswith("param_")]
    assert table == {k.key: (k.flag, k.backtest) for k in _SETTINGS}
