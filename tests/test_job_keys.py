"""Golden cache keys: the byte format of the content-addressing contract.

Every result in every result store sits under the key its job computed
when it was stored.  ``tests/data/job_keys_golden.json`` pins the keys
of a fixed set of job specs, one or more transport dicts per case, under
the code fingerprint pinned to ``"golden"`` (``REPRO_CODE_FINGERPRINT``):
``sim`` jobs on the scaled config, on the full config with overrides and
with a data seed; a ``sim`` job with and without ``trace_dir`` (one key,
since tracing cannot change a result); a ``sample`` job with a literal
snapshot dict; and a ``predict`` job carrying no model.

A mismatch means the key bytes changed, so no existing cache entry would
ever hit again.  Regenerating the file orphans every existing cache
entry: do it only for a deliberate key-format change, and say so in the
commit.
"""

import json
import os

import pytest

from repro.engine.job import job_from_transport

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data",
                           "job_keys_golden.json")

with open(GOLDEN_PATH) as _fh:
    GOLDEN = json.load(_fh)


@pytest.mark.parametrize("case", GOLDEN["cases"],
                         ids=[case["name"] for case in GOLDEN["cases"]])
def test_key_matches_golden(case, monkeypatch):
    monkeypatch.setenv("REPRO_CODE_FINGERPRINT", GOLDEN["fingerprint"])
    for transport in case["jobs"]:
        assert job_from_transport(transport).key == case["key"]


def test_golden_covers_every_cached_kind():
    # A new kind with spec() is cached, so its key format gets pinned too.
    from repro.engine.job import JOB_KINDS, job_class
    cached = {kind for kind in JOB_KINDS
              if hasattr(job_class(kind), "spec")}
    pinned = {transport["kind"] for case in GOLDEN["cases"]
              for transport in case["jobs"]}
    assert pinned == cached
