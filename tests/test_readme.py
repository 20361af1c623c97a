import os
import re
import subprocess
import sys
from pathlib import Path

import piezodamp as pd

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
