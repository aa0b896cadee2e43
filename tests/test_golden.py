"""Golden outputs: `simulate configs/belgic.cfg` reproduces the committed files byte for byte."""

import os

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
