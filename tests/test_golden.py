"""Byte goldens for the CLI renderers.

Each case runs one command through ``cli_main`` and compares its output
file byte for byte with the recorded one in ``tests/golden/``.  Two
inputs are covered: the demo string as a dated plain CSV, and a
synthetic basket file (itself a golden of ``synth`` on a committed
recipe).  ``eval`` reads the synthetic baskets with ``eval_prices.csv``,
weekly prices for all but one of their symbols: six symbols in
symbol-major row order, the rest date-major, with dotted dates, padded
prices and blank lines mixed in.

To re-record after an intended output change, run
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

from pathlib import Path

import pytest

from tangled_string.cli import cli_main

GOLDEN = Path(__file__).parent / "golden"

DEMO_ARGS = ["--input", str(GOLDEN / "demo.csv"), "--window", "6", "--variant", "plain"]
SYNTH_ARGS = ["--input", str(GOLDEN / "synth.csv"), "--window", "3"]
EVAL_ARGS = ["--input", str(GOLDEN / "synth.csv"), "--prices", str(GOLDEN / "eval_prices.csv")]

CASES = {
    "demo_tangle.json": ["tangle", *DEMO_ARGS, "--format", "json"],
    "demo_tangle.dot": ["tangle", *DEMO_ARGS, "--format", "dot"],
    "demo_layout.json": ["layout", *DEMO_ARGS, "--stretch-iterations", "5"],
    "synth.csv": ["synth", "--spec", str(GOLDEN / "synth_spec.json")],
    "synth_tangle.json": ["tangle", *SYNTH_ARGS, "--format", "json"],
    "synth_tangle.dot": ["tangle", *SYNTH_ARGS, "--format", "dot"],
    "synth_layout.json": ["layout", *SYNTH_ARGS, "--stretch-iterations", "5"],
    "synth_eval.json": ["eval", *EVAL_ARGS, "--format", "json"],
    "synth_eval.csv": [
        "eval", *EVAL_ARGS, "--format", "csv", "--windows", "2..6", "--comparison", "endpoint"
    ],
}


def render(name: str, out: Path) -> bytes:
    assert cli_main([*CASES[name], "--out", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path):
    assert render(name, tmp_path / name) == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    # synth.csv first: the synth cases read it
    for name in sorted(CASES, key=lambda n: n != "synth.csv"):
        render(name, GOLDEN / name)
        print(f"recorded {name}")
