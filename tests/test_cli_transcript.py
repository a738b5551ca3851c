"""The README's command-line examples replayed against a stored transcript.

Each command's stdout, exit code and the files it writes must match
``cli_transcript.txt`` byte for byte.  After a deliberate change of output,
regenerate the transcript with

    PYTHONPATH=src python3 tests/test_cli_transcript.py
"""

import shlex
from pathlib import Path

from click.testing import CliRunner

from clusterscatter.cli import cli

TRANSCRIPT = Path(__file__).with_name("cli_transcript.txt")

# (arguments, files the command writes into the working directory)
COMMANDS = [
    ("mutate --seed b2.json 121", ()),
    ("scatter --seed b2.json --order 6 --svg diagram.svg", ("diagram.svg",)),
    ("scatter-check --seed b2.json", ()),
    ("scatter-mutate --seed b2.json --k 2", ()),
    ("theta --seed b2.json --m -1,0 --trace lines.json", ("lines.json",)),
    ("verify --suite all", ()),
]

_MIRRORS = ("SEED", "ORDER", "DEPTH", "JSON", "SVG", "SUITE", "Q_SEED")


def transcript() -> str:
    runner = CliRunner(env={f"CLUSTERSCATTER_{m}": None for m in _MIRRORS})
    out = []
    with runner.isolated_filesystem():
        for args, files in COMMANDS:
            res = runner.invoke(cli, shlex.split(args))
            out.append(f"$ clusterscatter {args}\n[exit {res.exit_code}]\n{res.stdout}")
            for name in files:
                out.append(f"[file {name}]\n{Path(name).read_text()}")
    return "".join(out)


def test_readme_commands_match_transcript():
    assert transcript() == TRANSCRIPT.read_text()


if __name__ == "__main__":
    TRANSCRIPT.write_text(transcript())
