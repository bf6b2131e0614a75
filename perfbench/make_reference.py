"""Write the spectral-tables reference: the grid-corner rows of each table.

    python3 perfbench/make_reference.py

Runs the seed-0 ``spectral-tables`` commands and stores, per command, the
header and the rows whose (lambda, b) is a corner of the grid.  Those
corners are present under every seed, so every run is checked against
them.  Regenerate only when a change is meant to alter the tables.
"""

from __future__ import annotations

import json
import shutil
import sys

from run import OUT, SRC, run_once
from workloads import WORKLOADS, read_table


def write_reference(tables, cli, work_dir):
    """Run ``tables`` at seed 0 and store its corner rows at ``tables.reference``."""
    try:
        _, _, dirs, codes = run_once(cli, tables.argv(0), work_dir)
        if any(codes):
            raise RuntimeError(f"table commands exited {codes}")
        reference = []
        for command, out_dir in zip(tables.commands, dirs):
            header, rows = read_table(out_dir / f"{command}.csv")
            reference.append((command, header, tables.corner_rows(rows)))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    tables.reference.parent.mkdir(parents=True, exist_ok=True)
    # one row per line keeps the file diffable
    entries = [
        f'{json.dumps(command)}: {{"header": {json.dumps(header)}, "rows": [\n'
        + ",\n".join(json.dumps(row) for row in rows)
        + "\n]}"
        for command, header, rows in reference
    ]
    tables.reference.write_text("{\n" + ",\n".join(entries) + "\n}\n")


def main():
    sys.path.insert(0, str(SRC))
    from qgsw_vstates import cli

    tables = WORKLOADS["spectral-tables"]
    write_reference(tables, cli, OUT / "make_reference")
    print(f"wrote {tables.reference}")


if __name__ == "__main__":
    main()
