"""The README's library example runs as printed, and its CLI section
matches the parser."""

import re
import shlex
from pathlib import Path

import tenscache.cli as cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs_verbatim():
    text = README.read_text()
    section = text.split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, f"{README}:library-example", "exec"), {})


def _section(title):
    """The README text from heading ``title`` to the next ``## `` heading."""
    return README.read_text().split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_config_key_table_is_cli_command_settings():
    rows = re.findall(r"^\| `(\w+)` \| (`.*`) \|$", _section("CLI"), re.M)
    table = {command: tuple(re.findall(r"`(\w+)`", keys)) for command, keys in rows}
    assert list(table.items()) == list(cli.COMMAND_SETTINGS.items())


def test_cli_example_lines_parse():
    blocks = re.findall(r"```sh\n(.*?)```", _section("CLI"), re.S)
    lines = [line for block in blocks for line in block.splitlines()
             if line.startswith("tenscache ")]
    assert len(lines) >= 5
    parser = cli.build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line, comments=True)[1:])  # exits 2 on a stale flag
