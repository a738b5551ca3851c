"""The README's command-line examples replayed against a stored transcript,
and every command's ``--help`` against a stored option surface.

Each command's stdout, exit code and the files it writes must match
``cli_transcript.txt`` byte for byte, and each ``--help`` must match
``cli_help.txt``, so a new or changed option shows up as a diff.  After a
deliberate change of output or options, regenerate both files with

    PYTHONPATH=src python3 tests/test_cli_transcript.py
"""

import shlex
from pathlib import Path

from click.testing import CliRunner

from clusterscatter.cli import cli

TRANSCRIPT = Path(__file__).with_name("cli_transcript.txt")
HELP = Path(__file__).with_name("cli_help.txt")

# (arguments, files the command writes into the working directory)
COMMANDS = [
    ("mutate --seed b2.json 121", ()),
    ("scatter --seed b2.json --order 6 --svg diagram.svg", ("diagram.svg",)),
    ("scatter-check --seed b2.json", ()),
    ("scatter-mutate --seed b2.json --k 2", ()),
    ("theta --seed b2.json --m -1,0 --trace lines.json", ("lines.json",)),
    ("verify --suite all", ()),
]

HELP_COMMANDS = [(f"{name} --help", ()) for name in cli.commands]


def transcript(commands=COMMANDS) -> str:
    runner = CliRunner()
    out = []
    with runner.isolated_filesystem():
        for args, files in commands:
            # the installed name, and a fixed help width whatever the terminal's
            res = runner.invoke(cli, shlex.split(args), prog_name="clusterscatter", terminal_width=80)
            out.append(f"$ clusterscatter {args}\n[exit {res.exit_code}]\n{res.stdout}")
            for name in files:
                out.append(f"[file {name}]\n{Path(name).read_text()}")
    return "".join(out)


def test_readme_commands_match_transcript():
    assert transcript() == TRANSCRIPT.read_text()


def test_help_matches_option_surface():
    assert transcript(HELP_COMMANDS) == HELP.read_text()


if __name__ == "__main__":
    TRANSCRIPT.write_text(transcript())
    HELP.write_text(transcript(HELP_COMMANDS))
