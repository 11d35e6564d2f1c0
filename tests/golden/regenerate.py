"""Rewrite tests/golden/corpus.json from the current tree.

Usage: PYTHONPATH=src python tests/golden/regenerate.py

Run it only for a change that moves an output on purpose, and list the keys
that moved in CHANGES.md. pytest does not collect this file.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from test_golden import CASES, CORPUS, run_case  # noqa: E402

if __name__ == "__main__":
    corpus = {name: run_case(name) for name in CASES}
    with open(CORPUS, "w") as fh:
        json.dump(corpus, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(corpus)} cases to {CORPUS}")
