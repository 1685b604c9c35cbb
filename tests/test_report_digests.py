"""Byte pins beyond the corpus: each job in ``golden/report_digests.json``
must produce a report whose sha256 equals the committed digest.

The set covers plane curves and monomial ideals with the adic filtration,
the depth-zero explicit tower, and Ratliff-Rush closures on non-monomial
rings, where printed generators come from colon output.  A digest may only
change in a change that says why; a faster route must give the same bytes.
"""
import hashlib
import json

import pytest

from filtra.config import parse_config
from filtra.report import run_job, to_json

from conftest import GOLDEN_DIR

ENTRIES = json.loads((GOLDEN_DIR / "report_digests.json").read_text())


@pytest.mark.parametrize("entry", ENTRIES, ids=[e["config"]["name"] for e in ENTRIES])
def test_report_digest(entry):
    report = run_job(parse_config(entry["config"]))
    digest = hashlib.sha256(to_json(report).encode()).hexdigest()
    assert digest == entry["sha256"], report["name"]
