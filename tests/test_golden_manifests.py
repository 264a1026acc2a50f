"""Every artifact of the benchmark stage configs matches its golden digest."""

import pytest

import golden
from roughball.runner import run


def test_benchmark_stage_configs_match_golden_manifests(tmp_path):
    recorded = golden.load()
    reason = golden.version_mismatch(recorded)
    if reason:
        pytest.skip(reason)
    runs = golden.bench_runs()
    assert len(runs) == 12
    changed = []
    for i, (key, config) in enumerate(runs):
        out = str(tmp_path / str(i))
        run(config, out_dir=out, threads=1)
        if golden.digests(out) != recorded["runs"][key]:
            changed.append(key)
    assert changed == []
