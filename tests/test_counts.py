"""The count ledger (``repro/counts.py``) on its n <= 10 pools.

The full sweep runs as its own CI step (``python repro/counts.py
--check``); this slice keeps a moved count on the small pools a Tier-1
failure too.
"""

from __future__ import annotations

from conftest import load_counts


def test_small_pools_match_the_ledger():
    counts = load_counts()
    _gen, workloads = counts.load_perfbench()
    small = {name for wl in workloads.WORKLOADS.values() for name in wl.oracle}
    got = counts.sweep(small)
    want = {key: entry for key, entry in counts.read_ledger().items() if key.split(":")[0] in small}
    assert len(got) == len(small) * counts.SMALL_POOL * len(counts.CONFIGS) == 240
    assert counts.moved(want, got) == []
