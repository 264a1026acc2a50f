"""Config validation, runner artifacts, determinism, CLI exit codes."""

import csv
import hashlib
import json
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughball import ConfigError, StrictViolationError, echo_config, parse_config, run
from roughball import inequalities
from roughball.cli import main
from roughball.config import resolve_checks
from roughball.runner import _csv_text

TINY_SBP = {
    "experiment": "sbp",
    "model": {"kind": "brownian", "d": 1},
    "alpha": 0.4,
    "grid": {"T": 1.0, "N": 64},
    "n_samples": 400,
    "eps": {"min": 1.0, "max": 6.0, "count": 6},
    "seed": 7,
}

TINY_AUDIT = {
    "experiment": "audit",
    "model": {"kind": "brownian", "d": 1},
    "grid": {"N": 64},
    "n_dump": 2,
}

TINY_INEQ = {
    "experiment": "inequalities",
    "model": {"kind": "brownian", "d": 1},
    "grid": {"N": 64},
}


# -------------------------------------------------------------------- parsing


def test_minimal_config_fills_documented_defaults():
    cfg = parse_config(
        {"experiment": "sbp", "model": {"kind": "brownian", "d": 1}, "alpha": 0.4}
    )
    assert cfg.data["grid"]["T"] == 1.0
    assert cfg.data["grid"]["N"] == 1024
    assert cfg.data["n_samples"] == 100000
    assert cfg.data["seed"] == 0
    assert cfg.data["model"]["kind"] == "brownian"


def test_echo_parse_roundtrip_and_stable_hash():
    cfg = parse_config(TINY_SBP)
    text = echo_config(cfg)
    again = parse_config(text)
    assert again == cfg
    assert again.hash == cfg.hash
    payload = json.loads(text)
    assert payload["config_hash"] == cfg.hash


def test_embedded_hash_key_is_ignored():
    with_hash = dict(TINY_SBP, config_hash="deadbeef")
    assert parse_config(with_hash) == parse_config(TINY_SBP)


def test_unknown_keys_are_named_in_errors():
    with pytest.raises(ConfigError, match="n_sampels"):
        parse_config(dict(TINY_SBP, n_sampels=4))
    with pytest.raises(ConfigError, match="threads"):
        parse_config(dict(TINY_SBP, threads=4))


def test_alpha_window_error_message_exact():
    with pytest.raises(ConfigError, match=r"alpha: must lie in \(1/3, 0.5\)"):
        parse_config(dict(TINY_SBP, alpha=0.55))
    with pytest.raises(ConfigError):
        parse_config(dict(TINY_SBP, alpha=1.0 / 3.0))


def test_fbm_hurst_window_enforced():
    good = dict(TINY_SBP, model={"kind": "fbm", "d": 1, "hurst": 0.45}, alpha=0.38)
    assert parse_config(good).data["model"]["hurst"] == 0.45
    with pytest.raises(ConfigError):
        parse_config(dict(TINY_SBP, model={"kind": "fbm", "d": 1, "hurst": 0.25}))


@pytest.mark.parametrize("table", [
    [[0.0, 0.0], [0.5, 0.5], [1.0, 1.0]],  # three rows
    [[0.0, 0.0], [0.1, 0.1], [0.2, 0.2], [0.5, 0.5]],  # ends before grid.T
])
def test_sigma2_table_is_checked_by_the_model_at_parse_time(tmp_path, table):
    custom = {"kind": "custom_sigma2", "d": 1, "rho": 1.0}
    good = [[0.0, 0.0], [0.25, 0.25], [0.5, 0.5], [1.0, 1.0]]
    parse_config(dict(TINY_AUDIT, model=dict(custom, sigma2_table=good)))
    bad = dict(TINY_AUDIT, model=dict(custom, sigma2_table=table))
    with pytest.raises(ConfigError, match="^model: "):
        parse_config(bad)
    out = tmp_path / "out"
    assert main(["audit", "--config", _write_cfg(tmp_path, bad), "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("cell", [None, "0.25", True])
def test_sigma2_table_cells_must_be_numbers(tmp_path, cell):
    table = [[0.0, 0.0], [0.25, cell], [0.5, 0.5], [1.0, 1.0]]
    bad = dict(TINY_AUDIT, model={"kind": "custom_sigma2", "d": 1, "rho": 1.0,
                                  "sigma2_table": table})
    with pytest.raises(ConfigError, match=r"^model\.sigma2_table\[1\]\[1\]: expected a number"):
        parse_config(bad)
    out = tmp_path / "out"
    assert main(["audit", "--config", _write_cfg(tmp_path, bad), "--out", str(out)]) == 2
    assert not out.exists()


def test_quantize_needs_two_fresh_samples():
    tiny = {"experiment": "quantize", "model": {"kind": "brownian", "d": 1}, "alpha": 0.4,
            "grid": {"N": 16}, "n_centers": [2], "n_train": 8}
    assert parse_config(dict(tiny, n_fresh=2)).data["n_fresh"] == 2
    with pytest.raises(ConfigError, match=r"^n_fresh: must be >= 2, got 1"):
        parse_config(dict(tiny, n_fresh=1))


def test_grid_must_be_power_of_two():
    with pytest.raises(ConfigError):
        parse_config(dict(TINY_SBP, grid={"T": 1.0, "N": 100}))


def test_eps_list_must_increase():
    with pytest.raises(ConfigError):
        parse_config(dict(TINY_SBP, eps=[2.0, 1.0]))
    listed = parse_config(dict(TINY_SBP, eps=[1.0, 2.0, 4.0]))
    assert listed.data["eps"] == [1.0, 2.0, 4.0]


def test_subcommand_kind_is_validated():
    with pytest.raises(ConfigError):
        parse_config({"experiment": "nonsense", "alpha": 0.4})


# --------------------------------------------------------------------- runner


def _manifest(out_dir):
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        return json.load(fh)


def test_runner_writes_consistent_artifacts(tmp_path):
    out = str(tmp_path / "run1")
    res = run(TINY_SBP, out_dir=out)
    names = set(os.listdir(out))
    assert {"curve.csv", "fit.json", "manifest.json", "config_echo.json"} <= names
    man = _manifest(out)
    cfg_hash = man["config_hash"]
    for name, entry in man["files"].items():
        path = os.path.join(out, name)
        digest = hashlib.sha256(open(path, "rb").read()).hexdigest()
        assert digest == entry["sha256"]
        assert os.path.getsize(path) == entry["bytes"]
    first = open(os.path.join(out, "curve.csv")).readline().strip()
    assert first == f"# config_hash={cfg_hash}"
    fit = json.load(open(os.path.join(out, "fit.json")))
    assert fit["config_hash"] == cfg_hash
    assert res["experiment"] == "sbp"
    assert not any(n.startswith("tmp") for n in names)


def test_runner_reruns_and_thread_counts_are_identical(tmp_path):
    a, b, c = (str(tmp_path / n) for n in ("a", "b", "c"))
    run(TINY_SBP, out_dir=a, threads=1)
    run(TINY_SBP, out_dir=b, threads=1)
    run(TINY_SBP, out_dir=c, threads=3)
    files_a, files_b, files_c = (_manifest(p)["files"] for p in (a, b, c))
    assert files_a == files_b == files_c


def test_strict_mode_raises_after_writing(tmp_path):
    cfg = {
        "experiment": "inequalities",
        "model": {"kind": "brownian", "d": 1},
        "grid": {"N": 64},
        "checks": [{"name": "canary_violation", "n": 20000}],
    }
    out = str(tmp_path / "strict")
    with pytest.raises(StrictViolationError, match="canary_violation"):
        run(cfg, out_dir=out, strict=True)
    assert {"reports.csv", "reports.json", "manifest.json"} <= set(os.listdir(out))
    run(cfg, out_dir=str(tmp_path / "lax"), strict=False)  # no raise without strict


def test_fbm_curve_model_field_stays_one_quoted_column(tmp_path):
    cfg = dict(TINY_SBP, model={"kind": "fbm", "d": 1, "hurst": 0.4}, alpha=0.38)
    run(cfg, out_dir=str(tmp_path))
    text = (tmp_path / "curve.csv").read_text()
    rows = list(csv.reader(text.splitlines()[1:]))
    assert {len(row) for row in rows} == {9}
    assert rows[0][7] == "model"
    assert {row[7] for row in rows[1:]} == {"fbm(H=0.4, d=1)"}
    assert ',"fbm(H=0.4, d=1)",' in text


def test_numpy_float_cells_are_written_as_plain_floats():
    text = _csv_text(("x", "n"), [(np.float64(0.5), np.int64(3)), (0.25, 4)], "h")
    assert text == "# config_hash=h\nx,n\n0.5,3\n0.25,4\n"


SIDAK_2 = {"name": "sidak", "chaos_level": 2, "cov": [[1.0, 0.0], [0.0, 1.0]],
           "thresholds": [0.5, 1.0]}


BAD_CHECK_ENTRIES = [
    ({"name": "anderson", "alpha": 0.4, "eps": 1.5, "nn": 300}, "checks[1].nn"),
    ({"name": "anderson", "eps": 1.5}, "checks[1].alpha"),
    ({"name": "anderson", "alpha": 0.4, "eps": 1.5, "n": "many"}, "checks[1].n"),
    ({"name": "cameron_martin", "alpha": 0.4, "eps": 1.5, "center": [1.0, 0.0]},
     "checks[1].center"),
    ({"name": "sidak", "n_steps": 64}, "checks[1].n_steps"),
    ({"name": "sidak", "cov": [[1.0, 0.0], [0.0]]}, "checks[1].cov"),
    ({"name": "borell_shift", "set": ["ball", 1.0]}, "checks[1].set[0]"),
    (dict(SIDAK_2, forms=[["linear_x", [1.0], 1.0]]), "checks[1].forms: needs"),
    (dict(SIDAK_2, forms=[["bilinear", [[1.0]], 0.5], ["cubic", [1.0], 1.0]]),
     "checks[1].forms[1][0]"),
    (dict(SIDAK_2, forms=[["bilinear", [[1.0]], "wide"]]), "checks[1].forms[0][2]"),
    (dict(SIDAK_2, forms=[["bilinear", [[1.0]], -0.5]]), "checks[1].forms[0][2]"),
    (dict(SIDAK_2, forms=[["bilinear", [1.0], 0.5]]), "checks[1].forms[0][1]"),
    (dict(SIDAK_2, forms=[["bilinear", [[1.0]]]]), "checks[1].forms[0]:"),
    (dict(SIDAK_2, forms=[["bilinear", [[1.0]], 0.5], ["linear_x", [1.0, 2.0], 1.0]]),
     "checks[1].forms[1][1]"),
    (dict(SIDAK_2, forms=[["bilinear", [[1.0, 1.0]], 0.5]]), "checks[1].cov"),
    (dict(SIDAK_2, forms=[["bilinear", [[1.0]], 0.5],
                          ["bilinear", [[1.0, 0.0], [0.0, 1.0]], 0.5]]),
     "checks[1].forms[1][1]"),
    ({"name": "sidak", "chaos_level": 1, "cov": [[1.0, 0.0]]},
     "checks[1].cov: covariance must be a square matrix"),
    ({"name": "sidak", "cov": [[1.0, 0.0], [0.0, 1.0]], "thresholds": [1.0, 1.0, 1.0]},
     "checks[1].thresholds"),
    ({"name": "sidak", "chaos_level": 2, "cov": np.eye(3).tolist()},
     "checks[1].cov: chaos level 2 without forms"),
    ({"name": "sidak", "cov": [[1.0, 2.0], [2.0, 1.0]]},
     "checks[1].cov: covariance must be positive semidefinite"),
    ({"name": "sidak", "cov": [[1.0, 0.5], [0.4, 1.0]]},
     "checks[1].cov: covariance must be symmetric"),
    ({"name": "sidak", "thresholds": [1.0, 0.0]}, "checks[1].thresholds"),
    ({"name": "sidak", "chaos_level": 2}, "checks[1].cov: chaos level 2 needs independent"),
    ({"name": "sidak", "cov": np.eye(4).tolist(), "method": "quadrature"}, "checks[1].method"),
    ({"name": "cameron_martin", "alpha": 0.4, "eps": 1.5, "n": 1}, "checks[1].n: must be >= 2"),
    ({"name": "borell_shift_rough", "alpha": 0.4, "eps": 1.5, "n": 1},
     "checks[1].n: must be >= 2"),
    ({"name": "anderson", "alpha": 0.4, "eps": 1.5, "n_steps": 100}, "checks[1].n_steps"),
    ({"name": "cameron_martin", "alpha": 0.4, "eps": 1.5, "n_steps": 100}, "checks[1].n_steps"),
    ({"name": "borell_shift_rough", "alpha": 0.4, "eps": 1.5, "n_steps": 100},
     "checks[1].n_steps"),
    ({"name": "borell_shift", "set": ["box", 0.0]}, "checks[1].set[1]"),
    ({"name": "borell_shift", "set": ["box", -1.0]}, "checks[1].set[1]"),
]


@pytest.mark.parametrize("entry, key", BAD_CHECK_ENTRIES)
def test_parse_config_rejects_bad_check_entries(entry, key):
    cfg = dict(TINY_INEQ, checks=[{"name": "canary_violation", "n": 100}, entry])
    with pytest.raises(ConfigError) as info:
        parse_config(cfg)
    assert str(info.value).startswith(key)


@pytest.mark.parametrize("entry, key", BAD_CHECK_ENTRIES)
def test_bad_check_entries_exit_two_before_any_check_runs(tmp_path, monkeypatch, capsys,
                                                         entry, key):
    ran = []
    monkeypatch.setattr(inequalities, "canary_violation", lambda **kw: ran.append(kw))
    cfg = dict(TINY_INEQ, checks=[{"name": "canary_violation", "n": 100}, entry])
    out = tmp_path / "out"
    assert main(["inequalities", "--config", _write_cfg(tmp_path, cfg), "--out", str(out)]) == 2
    assert f"config error: {key}" in capsys.readouterr().err
    assert ran == []
    assert not out.exists()


TINY_QUANTIZE = {"experiment": "quantize", "model": {"kind": "brownian", "d": 1}, "alpha": 0.4,
                 "grid": {"N": 16}, "n_centers": [2, 4], "n_train": 8}
TINY_EMPIRICAL = {"experiment": "empirical", "model": {"kind": "brownian", "d": 1},
                  "alpha": 0.4, "grid": {"N": 16}, "n_list": [4, 8], "test_size": 16}
TINY_ENTROPY = {"experiment": "entropy", "model": {"kind": "brownian", "d": 1}, "alpha": 0.4,
                "grid": {"N": 16}}

# Configs whose values the run itself would reject: each is a config error.
BAD_VALUES = [
    (dict(TINY_QUANTIZE, mode="foo"), "mode: must be"),
    (dict(TINY_QUANTIZE, mode="mean", r=1.0), "mode: mean updates"),
    (dict(TINY_QUANTIZE, max_iter=0), "max_iter: must be >= 1"),
    (dict(TINY_QUANTIZE, tol=0.0), "tol: must be > 0"),
    (dict(TINY_QUANTIZE, tol=-1e-3), "tol: must be > 0"),
    (dict(TINY_QUANTIZE, n_centers=[2, 9]), "n_centers[1]: need 1 <= n <= 8"),
    (dict(TINY_QUANTIZE, n_centers=[0]), "n_centers[0]: need 1 <= n <= 8"),
    (dict(TINY_EMPIRICAL, test_size=4000, n_list=[8, 128]), "test_size: "),
    (dict(TINY_EMPIRICAL, reps=0), "reps: must be >= 1"),
    (dict(TINY_EMPIRICAL, n_list=[4, 0]), "n_list[1]: must be >= 1"),
    (dict(TINY_SBP, norm_kind="rough_holder_lemma_bound", grid={"N": 4}), "grid.N: "),
    (dict(TINY_SBP, norm_kind="rough_holder_lemma_bound", grid={"N": 2}), "grid.N: "),
    (dict(TINY_SBP, norm_kind="sup"), "norm_kind: must be one of"),
    (dict(TINY_SBP, n_samples=0), "n_samples: must be >= 1"),
    (dict(TINY_ENTROPY, n_samples=0), "n_samples: must be >= 1"),
    (dict(TINY_QUANTIZE, curve_samples=0), "curve_samples: must be >= 1"),
    (dict(TINY_SBP, eps=[0.5, 0.4]), "eps: must be a nonempty, positive, strictly increasing"),
    (dict(TINY_SBP, eps=[0.0, 0.4]), "eps: must be a nonempty"),
    (dict(TINY_SBP, eps=[]), "eps: must be a nonempty"),
    (dict(TINY_QUANTIZE, eps=[1.0, 1.0]), "eps: must be a nonempty"),
    (dict(TINY_SBP, eps={"min": 0.0, "max": 1.0, "count": 4}), "eps: expected 0 < min < max"),
    (dict(TINY_SBP, eps={"min": 1.0, "max": 2.0, "count": 1}), "eps: expected 0 < min < max"),
    (dict(TINY_SBP, fit_window=[2.0, 1.0]), "fit_window: must be a nonempty"),
    (dict(TINY_ENTROPY, cover_eps=[0.2, -0.1]), "cover_eps: must be a nonempty"),
    (dict(TINY_ENTROPY, eta=-1), "eta: must be >= 0"),
    (dict(TINY_ENTROPY, mesh={"n_steps": 100}), "mesh.n_steps: must be a power of two >= 8"),
    (dict(TINY_ENTROPY, mesh={"n_steps": 4}), "mesh.n_steps: must be a power of two >= 8"),
    (dict(TINY_ENTROPY, mesh={"size": 0}), "mesh.size: must be >= 1"),
    (dict(TINY_ENTROPY, mesh=[64]), "mesh: expected an object"),
    (dict(TINY_SBP, grid={"N": 100}), "grid.N: must be a power of two >= 2"),
    (dict(TINY_SBP, grid={"N": 1}), "grid.N: must be a power of two >= 2"),
    (dict(TINY_SBP, grid={"T": 0.0, "N": 64}), "grid.T: must be > 0"),
    (dict(TINY_SBP, seed=-1), "seed: must be >= 0"),
    (dict(TINY_QUANTIZE, n_fresh=1), "n_fresh: must be >= 2"),
    (dict(TINY_QUANTIZE, n_train=0), "n_train: must be >= 1"),
    (dict(TINY_QUANTIZE, r=0.5), "r: must be >= 1"),
    (dict(TINY_EMPIRICAL, r=0.5), "r: must be >= 1"),
    (dict(TINY_EMPIRICAL, alpha=0.5), "alpha: must lie in (1/3, 0.5)"),
    (dict(TINY_AUDIT, h_window=2.0), "h_window: must lie in (0, 1.0]"),
    (dict(TINY_AUDIT, h_window=0.0), "h_window: must lie in (0, 1.0]"),
    (dict(TINY_AUDIT, mesh_levels=1), "mesh_levels: must be >= 2"),
    (dict(TINY_AUDIT, n_dump=-1), "n_dump: must be >= 0"),
    (dict(TINY_EMPIRICAL, bootstrap=1), "bootstrap: must be >= 2"),
]


@pytest.mark.parametrize("cfg, key", BAD_VALUES)
def test_values_the_run_rejects_exit_two(tmp_path, capsys, cfg, key):
    with pytest.raises(ConfigError) as info:
        parse_config(cfg)
    assert str(info.value).startswith(key)
    out = tmp_path / "out"
    assert main([cfg["experiment"], "--config", _write_cfg(tmp_path, cfg), "--out",
                 str(out)]) == 2
    assert f"config error: {key}" in capsys.readouterr().err
    assert not out.exists()


def test_lemma_bound_needs_a_grid_of_eight_steps():
    cfg = parse_config(dict(TINY_SBP, norm_kind="rough_holder_lemma_bound", grid={"N": 8}))
    assert cfg.data["grid"]["N"] == 8


# The keys each check takes, written out independently of the resolver.
CHECK_KEYS = {
    "anderson": ("alpha", "eps", "n", "seed", "n_steps", "center"),
    "cameron_martin": ("alpha", "eps", "n", "seed", "n_steps", "center"),
    "sidak": ("cov", "thresholds", "chaos_level", "method", "n", "seed", "forms"),
    "borell_shift": ("dimension", "set", "lam", "n", "seed"),
    "borell_shift_rough": ("alpha", "eps", "lam", "n", "seed", "n_steps", "n_directions"),
    "canary_violation": ("n", "seed"),
}
REQUIRED_KEYS = ("alpha", "eps")
ILL_TYPED = st.sampled_from(["x", None, True, [], {}, [1.0, "a"], [[1.0], [2.0, 3.0]],
                             -1, 0.5, float("nan"), float("inf")])
UNKNOWN_KEYS = ("nn", "centre", "alpah", "threads")
POSITIVE = st.floats(0.01, 10.0)


@st.composite
def _valid_values(draw, dim: int) -> dict:
    """One valid value for every key any check takes; the sidak keys agree in size."""
    p, q = draw(st.integers(1, 2)), draw(st.integers(1, 2))

    def vector(size):
        return draw(st.lists(POSITIVE, min_size=size, max_size=size))

    extra = [[kind, vector(p if kind == "linear_x" else q), draw(POSITIVE)]
             for kind in draw(st.lists(st.sampled_from(["linear_x", "linear_y"]), max_size=2))]
    return {
        "alpha": draw(st.floats(0.34, 0.49)),
        "eps": draw(POSITIVE),
        "n": draw(st.integers(2, 10**6)),
        "seed": draw(st.integers(0, 2**31)),
        "n_steps": 2 ** draw(st.integers(1, 8)),
        "center": draw(st.lists(st.floats(-5.0, 5.0), min_size=dim, max_size=dim)),
        "cov": np.eye(p + q).tolist(),
        "thresholds": vector(p + q),
        "chaos_level": draw(st.integers(1, 2)),
        "method": draw(st.sampled_from(["auto", "quadrature", "mc"])),
        "forms": [["bilinear", [vector(q) for _ in range(p)], draw(POSITIVE)]] + extra,
        "dimension": draw(st.integers(1, 5)),
        "set": draw(st.one_of(st.tuples(st.just("half_space"), st.floats(-3.0, 3.0)),
                              st.tuples(st.just("box"), POSITIVE)).map(list)),
        "lam": draw(st.floats(0.0, 5.0)),
        "n_directions": draw(st.integers(1, 16)),
    }


@st.composite
def _check_entry(draw, dim: int) -> dict:
    """A random subset of a check's keys with valid values, then at most one fault."""
    name = draw(st.sampled_from(sorted(CHECK_KEYS)))
    values = draw(_valid_values(dim))
    entry = {"name": name}
    for key in CHECK_KEYS[name]:
        if key in REQUIRED_KEYS or draw(st.booleans()):
            entry[key] = values[key]
    if name == "sidak" and "cov" not in entry:  # sized for the drawn cov, not the default
        entry.pop("thresholds", None)
        entry.pop("forms", None)
    fault = draw(st.sampled_from([None, "ill_typed", "missing", "unknown"]))
    if fault == "ill_typed":
        entry[draw(st.sampled_from(CHECK_KEYS[name]))] = draw(ILL_TYPED)
    elif fault == "missing":
        del entry[draw(st.sampled_from(sorted(entry)))]
    elif fault == "unknown":
        entry[draw(st.sampled_from(UNKNOWN_KEYS))] = 1
    return entry


class _Sampled(Exception):
    """Raised by the stubbed samplers: the call got past its argument checks."""


def _no_sampling(*args, **kwargs):
    raise _Sampled


@settings(max_examples=300)  # at 100, no drawn sidak entry is accepted
@given(st.integers(1, 2).flatmap(
    lambda dim: st.tuples(st.just(dim), st.lists(_check_entry(dim), min_size=1, max_size=3))))
def test_check_entries_resolve_or_name_their_key(case):
    dim, entries = case
    raw = dict(TINY_INEQ, model={"kind": "brownian", "d": dim}, checks=entries)
    try:
        cfg = parse_config(raw)
    except ConfigError as exc:
        match = re.match(r"checks\[(\d+)\]\.", str(exc))
        assert match and int(match.group(1)) < len(entries), str(exc)
        return
    for entry in entries:  # an accepted entry holds its required keys and no others
        keys = CHECK_KEYS[entry["name"]]
        assert {k for k in REQUIRED_KEYS if k in keys} <= set(entry) <= {"name", *keys}
    calls = resolve_checks(cfg.model(), cfg.data)
    assert len(calls) == len(entries)
    assert parse_config(echo_config(cfg)).hash == cfg.hash
    # an accepted entry passes its check's rules: the call gets to sampling
    # (or, for the exact half-space and quadrature sides, to a report)
    with pytest.MonkeyPatch.context() as mp:
        for target in ("_normal_blocks", "map_sample_blocks", "sample_dyadic_level_maxima",
                       "_gaussian_box_probability"):
            mp.setattr(inequalities, target, _no_sampling)
        for call in calls:
            try:
                assert isinstance(call(), inequalities.InequalityReport)
            except _Sampled:
                pass


def test_audit_run_covers_model_diagnostics(tmp_path):
    out = str(tmp_path / "audit")
    run(TINY_AUDIT, out_dir=out)
    audit = json.load(open(os.path.join(out, "audit.json")))
    assert audit["rho_variation"]["estimate"] == pytest.approx(1.0, abs=1e-6)
    samples = open(os.path.join(out, "samples.csv")).read().strip().split("\n")
    assert samples[1].split(",")[:3] == ["time", "component", "value"]


# ------------------------------------------------------------------------ cli


def _write_cfg(tmp_path, payload, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def test_cli_success_path(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, TINY_AUDIT)
    code = main(["audit", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 0
    assert "wrote" in capsys.readouterr().out


def test_cli_bad_alpha_is_config_error(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, dict(TINY_SBP, alpha=0.9))
    assert main(["sbp", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "config error" in capsys.readouterr().err


def test_cli_subcommand_mismatch_is_config_error(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, TINY_SBP)
    assert main(["entropy", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "declares" in err and "sbp" in err


def test_cli_missing_config_file(tmp_path):
    assert main(["sbp", "--config", str(tmp_path / "nope.json")]) == 2


def test_cli_strict_canary_exits_one(tmp_path, capsys):
    cfg = _write_cfg(
        tmp_path,
        {
            "experiment": "inequalities",
            "model": {"kind": "brownian", "d": 1},
            "grid": {"N": 64},
            "checks": [{"name": "canary_violation", "n": 20000}],
        },
    )
    assert main(["inequalities", "--config", cfg, "--out", str(tmp_path / "o1")]) == 0
    assert (
        main(["inequalities", "--config", cfg, "--out", str(tmp_path / "o2"), "--strict"]) == 1
    )
    assert "strict mode" in capsys.readouterr().err


def test_cli_runtime_failure_exits_three(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a plain file, not a directory")
    cfg = _write_cfg(tmp_path, TINY_AUDIT)
    assert main(["audit", "--config", cfg, "--out", str(blocker / "sub")]) == 3
    assert "error" in capsys.readouterr().err


def test_cli_threads_env_fallback(tmp_path, monkeypatch, capsys):
    cfg = _write_cfg(tmp_path, TINY_SBP)
    monkeypatch.setenv("ROUGHBALL_THREADS", "2")
    assert main(["sbp", "--config", cfg, "--out", str(tmp_path / "env")]) == 0
    for value in ("not-a-number", "0", "-3"):
        monkeypatch.setenv("ROUGHBALL_THREADS", value)
        assert main(["sbp", "--config", cfg, "--out", str(tmp_path / "env2")]) == 2
        assert "ROUGHBALL_THREADS" in capsys.readouterr().err
    monkeypatch.delenv("ROUGHBALL_THREADS")
    for value in ("0", "-3"):
        assert main(["sbp", "--config", cfg, "--out", str(tmp_path / "flag"),
                     f"--threads={value}"]) == 2
        assert "--threads" in capsys.readouterr().err
    assert not (tmp_path / "env2").exists() and not (tmp_path / "flag").exists()
