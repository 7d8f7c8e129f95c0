"""What a fresh process loads before it sees its first graph.

Start-up is most of a run on one graph and of a silent tree sweep, so the
modules that only some runs use are imported where those runs need them:
``json`` where a report or a ``--json`` object is written.  Every sweep runs
serially, so no run imports ``multiprocessing``.  The record types are named
tuples, not dataclasses.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
# modules that importing the CLI must not load; multiprocessing no run loads
ON_DEMAND = {"multiprocessing", "dataclasses", "json"}


def modules_added(body: str) -> set[str]:
    """Top-level names of the modules a fresh interpreter loads while running ``body``."""
    code = ("import sys\n"
            "base = set(sys.modules)\n"
            f"{body}\n"
            "print(*{name.partition('.')[0] for name in set(sys.modules) - base})\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    return set(run.stdout.split())


def test_cli_import_loads_no_on_demand_module():
    added = modules_added("import isdd_lab.cli")
    assert "isdd_lab" in added
    assert not added & ON_DEMAND


def test_silent_tree_sweep_opens_no_pool():
    added = modules_added(
        "from isdd_lab.cli import main\n"
        "assert main(['trees', '--n-min', '4', '--n-max', '9', '--bounds', 'TREE_EDGE',\n"
        "             '--max-graphs', '0', '--jobs', '2']) == 0")
    assert "isdd_lab" in added
    assert "multiprocessing" not in added


def test_graph_sweep_opens_no_pool():
    added = modules_added(
        "import contextlib, io\n"
        "from isdd_lab.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['sweep', '--n-max', '5', '--jobs', '2']) == 0")
    assert "isdd_lab" in added
    assert "multiprocessing" not in added
