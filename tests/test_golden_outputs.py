"""Golden record of the aggregated CSVs, locked across code versions.

``tests/golden/golden.json`` locks arm sequences and trace bytes but not
the CSVs that ``emit_outputs`` writes.  This record holds, for every
golden config of ``test_golden``, the sha256 of its ``aggregate.csv``
and ``curves.csv``; a refactor of the writer must reproduce them
exactly.  Regenerate the fixture only in a change that means to alter
the CSVs, and say so in CHANGES.md:

    PYTHONPATH=src python tests/test_golden_outputs.py --write
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile

from test_golden import golden_configs

from latentbandits import emit_outputs, run_experiment

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "outputs.json")


def record(config, out_dir: str) -> dict:
    """sha256 of each CSV of one config, written into ``out_dir``."""
    paths = emit_outputs(run_experiment(config), out_dir)
    digests = {}
    for name, path in sorted(paths.items()):
        with open(path, "rb") as handle:
            digests[os.path.basename(path)] = hashlib.sha256(handle.read()).hexdigest()
    return digests


def record_all(work_dir: str) -> dict:
    return {name: record(config, os.path.join(work_dir, name)) for name, config in golden_configs().items()}


def test_csvs_match_golden_record(tmp_path):
    with open(FIXTURE, encoding="utf-8") as handle:
        expected = json.load(handle)
    assert record_all(str(tmp_path)) == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_outputs.py --write")
    with tempfile.TemporaryDirectory() as work_dir:
        golden = record_all(work_dir)
    with open(FIXTURE, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
