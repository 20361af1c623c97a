import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

import piezodamp as pd
from piezodamp import cli, config

README = Path(__file__).resolve().parent.parent / "README.md"


def _api_quick_start() -> str:
    section = README.read_text().split("## Quick start (API)", 1)[1]
    section = section.split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_api_quick_start_runs_without_warnings():
    src = Path(pd.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-W", "error", "-c",
                          _api_quick_start()],
                         env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[0] == "[0.0]"


def test_export_list_names_each_public_name_once():
    assert len(set(pd.__all__)) == len(pd.__all__)
    assert all(hasattr(pd, name) for name in pd.__all__)
    namespace: dict = {}
    exec("from piezodamp import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(pd.__all__)


def test_readme_public_api_names_each_error_type():
    section = README.read_text().split("## Public API", 1)[1]
    section = section.split("\n## ", 1)[0]
    errors = [name for name in pd.__all__ if name.endswith("Error")]
    assert len(errors) == 5
    assert all(f"- `{name}`: " in section for name in errors)


def _readme_ini_keys() -> set:
    section = README.read_text().split("## Project INI schema", 1)[1]
    block = re.search(r"```ini\n(.*?)```", section, re.S).group(1)
    keys, name = set(), None
    for line in block.splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("["):
            name = line.strip("[]")
        elif "=" in line:
            keys.add((name, line.split("=", 1)[0].strip()))
    return keys


def test_readme_ini_block_lists_the_keys_of_the_schema_table():
    # Both directions; retired keys (no reader) are accepted but not shown.
    table = {(name, row[0]) for name, rows in config._SCHEMA.items()
             for row in rows if row[2] is not None}
    readme = _readme_ini_keys()
    assert readme - table == set()
    assert table - readme == set()


def _parser_flags() -> set:
    parser = cli.build_parser()
    parsers = [parser] + [sub for action in parser._actions
                          if isinstance(action, argparse._SubParsersAction)
                          for sub in action.choices.values()]
    return {flag for p in parsers for action in p._actions
            for flag in action.option_strings}


def test_readme_cli_flags_are_options_of_the_parser():
    # Every flag the CLI, INI and input file sections name, so a flag the
    # parser drops cannot linger in the docs.
    text = README.read_text()
    named = set()
    for title in ("Quick start (CLI)", "Project INI schema",
                  "Input data files"):
        section = text.split(f"## {title}\n", 1)[1].split("\n## ", 1)[0]
        named |= set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", section))
    assert {"--config", "--band", "--frf"} <= named
    assert named - _parser_flags() == set()
