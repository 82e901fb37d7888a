"""The command-line tools under ``tools/``: how they end when their reader does."""

import os
import subprocess
import sys

import pytest

TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")


@pytest.mark.parametrize(
    "argv",
    [
        ["pipeline_manifest.py"],
        ["train_step_bench.py", "--steps", "1"],
        ["kernel_bench.py", "--repeat", "1"],
    ],
    ids=lambda argv: argv[0],
)
def test_closed_stdout_stops_without_a_traceback(argv):
    """Writing to a pipe whose reader has gone (``tool | head``) ends the
    tool with exit 1 and nothing on stderr."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(TOOLS, argv[0]), *argv[1:]],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            timeout=300,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == ""
