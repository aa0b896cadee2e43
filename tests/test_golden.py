"""Golden outputs: `simulate configs/belgic.cfg` and `scripts/trace_phase1.py`
reproduce the committed files byte for byte."""

import os
import subprocess
import sys

import pytest

from coase_bandits.config import parse_config_file
from coase_bandits.runner import simulate_command

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden", "belgic")
GOLDEN_FILES = (
    "config_echo.cfg",
    "run_summary.csv",
    "trajectory_7.csv",
    "trajectory_11.csv",
    "phase1_7.csv",
    "phase1_11.csv",
)


@pytest.fixture(scope="module")
def belgic_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("belgic")
    cfg = parse_config_file(os.path.join(ROOT, "configs", "belgic.cfg"))
    manifest = simulate_command(cfg, out_dir=str(out))
    return out, manifest


def test_writes_exactly_the_golden_files(belgic_run):
    _, manifest = belgic_run
    assert sorted(os.path.basename(p) for p in manifest["files"]) == sorted(GOLDEN_FILES)


@pytest.mark.parametrize("name", GOLDEN_FILES)
def test_file_is_byte_identical(belgic_run, name):
    out, _ = belgic_run
    with open(os.path.join(out, name), "rb") as fh:
        produced = fh.read()
    with open(os.path.join(GOLDEN, name), "rb") as fh:
        expected = fh.read()
    assert produced == expected, f"{name} differs from tests/golden/belgic/{name}"


def test_trace_phase1_script_output():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    script = os.path.join(ROOT, "scripts", "trace_phase1.py")
    produced = subprocess.run(
        [sys.executable, script], env=env, capture_output=True, check=True
    ).stdout
    with open(os.path.join(ROOT, "tests", "golden", "trace_phase1.txt"), "rb") as fh:
        expected = fh.read()
    assert produced == expected, "scripts/trace_phase1.py differs from tests/golden/trace_phase1.txt"
