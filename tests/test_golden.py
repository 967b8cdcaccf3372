"""Every bundled output against its golden file (see tests/golden_outputs.py).

The floats compare exactly and the CSVs by sha256, so a one-ulp change to a
summary, a solver count that moves or any changed CSV byte fails here. A
change that moves outputs on purpose regenerates the files and tables the
diff.
"""

import json
import os

import pytest

from golden_outputs import GOLDEN_DIR, golden_document, golden_names, golden_path


def test_every_output_has_a_golden_file():
    on_disk = sorted(name[: -len(".json")] for name in os.listdir(GOLDEN_DIR))
    assert on_disk == sorted(golden_names())


@pytest.mark.parametrize("name", golden_names())
def test_output_matches_its_golden_file(name):
    with open(golden_path(name)) as fh:
        golden = json.load(fh)
    # through JSON, as the file went, so tuples compare as lists
    assert json.loads(json.dumps(golden_document(name))) == golden
