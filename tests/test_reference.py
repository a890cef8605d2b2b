"""The spectral commands reproduce the checked-in reference tables cell by cell.

Regenerate: for c in fig2 fig3 sweep; do PYTHONPATH=src python -m fluxmaser.cli $c --config tests/reference/config.yaml --out tests/reference --workers 1; done

A change that moves a cell beyond ``TOLERANCES`` regenerates the tables in
the same commit and names every moved cell and its reason in CHANGES.md; a
table is never regenerated to hide a defect.
"""

from pathlib import Path

import pytest

from fluxmaser.cli import SPECTRAL, main

REFERENCE = Path(__file__).resolve().parent / "reference"

# column -> (absolute, relative, floor): two cells agree if they differ by at
# most `absolute`, or by at most `relative` of the reference, or both lie
# below `floor` in magnitude; a "crossing" cell agrees only with "crossing"
TOLERANCES = {
    **dict.fromkeys(["f", "f_s"], (0.0, 0.0, 0.0)),
    **dict.fromkeys(["E0", "E1", "E2", "E3", "gap_01", "gap_02", "gap_12"], (1e-12, 0.0, 0.0)),
    **dict.fromkeys(["t_01", "t_02", "t_12", "K_01", "K_12"], (0.0, 1e-9, 1e-9)),
}


def _split(path):
    comments, table = [], []
    for line in path.read_text(encoding="utf-8").splitlines():
        (comments if line.startswith("# ") else table).append(line)
    return comments, table[0].split(","), [row.split(",") for row in table[1:]]


def _agree(column, got, want):
    if "crossing" in (got, want):
        return got == want
    absolute, relative, floor = TOLERANCES[column]
    got, want = float(got), float(want)
    return (
        abs(got - want) <= max(absolute, relative * abs(want))
        or max(abs(got), abs(want)) < floor
    )


def _mismatches(got_path, want_path):
    got_comments, got_header, got_rows = _split(got_path)
    want_comments, want_header, want_rows = _split(want_path)
    # every comment but the tool version must match
    versioned = [line.startswith("# tool_version: ") for line in want_comments]
    problems = [
        f"comment {want!r} is {got!r}"
        for got, want, skip in zip(got_comments, want_comments, versioned)
        if got != want and not skip
    ]
    if len(got_comments) != len(want_comments) or got_header != want_header:
        problems.append(f"layout {got_header} is not {want_header}")
    if len(got_rows) != len(want_rows):
        problems.append(f"{len(got_rows)} rows, not {len(want_rows)}")
    for n, (got_row, want_row) in enumerate(zip(got_rows, want_rows)):
        for column, got, want in zip(want_header, got_row, want_row):
            if not _agree(column, got, want):
                problems.append(f"row {n} {column}: {got} against {want}")
    return problems


@pytest.mark.parametrize("command", sorted(SPECTRAL))
def test_command_reproduces_reference_tables(command, tmp_path):
    out = tmp_path / command
    config = REFERENCE / "config.yaml"
    assert main([command, "--config", str(config), "--out", str(out), "--workers", "1"]) == 0
    names = sorted(path.name for path in out.iterdir())
    assert names == sorted(path.name for path in REFERENCE.glob(f"{command}*.csv"))
    problems = {name: _mismatches(out / name, REFERENCE / name) for name in names}
    assert not any(problems.values()), {name: p for name, p in problems.items() if p}
