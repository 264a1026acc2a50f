"""Declarative experiment configs: schema validation, defaults, hashing.

A config is a JSON object with an ``experiment`` kind and per-kind sections.
This module alone knows what a config may contain.  Parsing fills defaults
and validates every key against the schema below, inequality check entries
included (``resolve_checks`` turns them into calls); unknown keys are
rejected by name so typos fail loudly instead of silently running a default.
The resolved config is what gets hashed (canonical JSON, sorted keys) and
echoed next to the artifacts, and parsing an echoed config resolves to the
identical object.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import inequalities
from .gaussian import CovarianceModel, brownian_model, custom_model, fbm_model
from .paths import CMPath
from .smallball import NORM_KINDS, _check_alpha

EXPERIMENTS = ("sbp", "entropy", "quantize", "empirical", "inequalities", "audit")


class ConfigError(ValueError):
    """Schema violation; the message names the offending key."""


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(resolved: dict) -> str:
    return hashlib.sha256(canonical_json(resolved).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment description."""

    data: dict

    @property
    def experiment(self) -> str:
        return self.data["experiment"]

    @property
    def hash(self) -> str:
        return config_hash(self.data)

    def model(self) -> CovarianceModel:
        return _build_model(self.data["model"], self.data["grid"]["T"])


def _build_model(spec: dict, horizon: float) -> CovarianceModel:
    if spec["kind"] == "brownian":
        return brownian_model(spec["d"], horizon)
    if spec["kind"] == "fbm":
        return fbm_model(spec["hurst"], spec["d"], horizon)
    table = spec["sigma2_table"]
    return custom_model(
        [row[0] for row in table], [row[1] for row in table],
        spec["rho"], spec["d"], horizon,
    )


# ---------------------------------------------------------------------------
# Validation helpers (each raises ConfigError naming the key)
# ---------------------------------------------------------------------------


def _req(section: dict, key: str, where: str):
    if key not in section:
        raise ConfigError(f"{where}.{key}: required key missing")
    return section[key]


def _num(value, key, kind=float, low=None, high=None, low_open=False, high_open=False):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key}: expected a number, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{key}: expected a finite number, got {value!r}")
    v = kind(value)
    if kind is int and v != value:
        raise ConfigError(f"{key}: expected an integer, got {value!r}")
    if low is not None and (v <= low if low_open else v < low):
        raise ConfigError(f"{key}: must be {'>' if low_open else '>='} {low}, got {value}")
    if high is not None and (v >= high if high_open else v > high):
        raise ConfigError(f"{key}: must be {'<' if high_open else '<='} {high}, got {value}")
    return v


def _choice(value, key, options):
    if value not in options:
        raise ConfigError(f"{key}: must be one of {options}, got {value!r}")
    return value


def _no_extras(section: dict, allowed, where: str):
    extras = sorted(set(section) - set(allowed))
    if extras:
        raise ConfigError(f"{where}.{extras[0]}: unknown key (allowed: {sorted(allowed)})")


def _eps_list(value, key: str) -> list:
    """Accept an explicit list or {min, max, count} resolved to a geometric grid."""
    if isinstance(value, dict):
        _no_extras(value, ("min", "max", "count"), key)
        lo = _num(_req(value, "min", key), f"{key}.min", float, 0, low_open=True)
        hi = _num(_req(value, "max", key), f"{key}.max", float, lo, low_open=True)
        cnt = _num(_req(value, "count", key), f"{key}.count", int, 2)
        return [float(v) for v in np.geomspace(lo, hi, int(cnt))]
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{key}: expected a nonempty list or {{min,max,count}}")
    out = [_num(v, f"{key}[{i}]", float, 0, low_open=True) for i, v in enumerate(value)]
    if any(b <= a for a, b in zip(out, out[1:])):
        raise ConfigError(f"{key}: values must be strictly increasing")
    return out


def _validate_model(spec, where="model") -> dict:
    if not isinstance(spec, dict):
        raise ConfigError(f"{where}: expected an object")
    kind = _choice(_req(spec, "kind", where), f"{where}.kind",
                   ("brownian", "fbm", "custom_sigma2"))
    out = {"kind": kind, "d": _num(_req(spec, "d", where), f"{where}.d", int, 1)}
    allowed = {"kind", "d"}
    if kind == "fbm":
        allowed.add("hurst")
        out["hurst"] = _num(_req(spec, "hurst", where), f"{where}.hurst", float)
    elif kind == "custom_sigma2":
        allowed |= {"sigma2_table", "rho"}
        table = _req(spec, "sigma2_table", where)
        if (not isinstance(table, list)
                or any(not isinstance(r, list) or len(r) != 2 for r in table)):
            raise ConfigError(f"{where}.sigma2_table: expected a list of [tau, sigma2] pairs")
        out["sigma2_table"] = [[_num(v, f"{where}.sigma2_table[{i}][{j}]", float)
                                for j, v in enumerate(row)] for i, row in enumerate(table)]
        out["rho"] = _num(_req(spec, "rho", where), f"{where}.rho", float)
    _no_extras(spec, allowed, where)
    return out


def _validate_alpha(alpha, model: CovarianceModel, norm_kind: str = "rough_holder_dyadic",
                    where: str = ""):
    a = _num(alpha, f"{where}alpha", float)
    try:
        _check_alpha(model, a, norm_kind)
    except ValueError as exc:
        raise ConfigError(f"{where}{exc}") from exc
    return a


# ---------------------------------------------------------------------------
# Per-experiment sections
# ---------------------------------------------------------------------------

_COMMON_KEYS = ("experiment", "model", "grid", "seed", "out", "variant", "config_hash")

_DEFAULT_EPS = {"min": 0.25, "max": 4.0, "count": 17}


def _resolve_common(raw: dict) -> tuple[dict, CovarianceModel]:
    exp = _choice(_req(raw, "experiment", "config"), "experiment", EXPERIMENTS)
    grid = raw.get("grid", {})
    if not isinstance(grid, dict):
        raise ConfigError("grid: expected an object")
    _no_extras(grid, ("T", "N"), "grid")
    T = _num(grid.get("T", 1.0), "grid.T", float, 0, low_open=True)
    N = _num(grid.get("N", 1024), "grid.N", int, 2)
    if N & (N - 1):
        raise ConfigError(f"grid.N: must be a power of two, got {N}")
    spec = _validate_model(_req(raw, "model", "config"))
    try:  # the model checks its own parameter ranges
        model = _build_model(spec, T)
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from exc
    out = {
        "experiment": exp,
        "model": spec,
        "grid": {"T": T, "N": int(N)},
        "seed": _num(raw.get("seed", 0), "seed", int, 0),
        "out": str(raw.get("out", "out")),
        "variant": _choice(raw.get("variant", "sum"), "variant", ("sum", "sup")),
    }
    return out, model


def _resolve_sbp(raw: dict, common: dict, model: CovarianceModel) -> dict:
    _no_extras(raw, _COMMON_KEYS + ("alpha", "norm_kind", "n_samples", "eps",
                                    "fit_window"), "config")
    norm_kind = _choice(raw.get("norm_kind", "rough_holder_dyadic"), "norm_kind", NORM_KINDS)
    out = dict(common)
    out["alpha"] = _validate_alpha(_req(raw, "alpha", "config"), model, norm_kind)
    out["norm_kind"] = norm_kind
    out["n_samples"] = _num(raw.get("n_samples", 100000), "n_samples", int, 1, low_open=False)
    out["eps"] = _eps_list(raw.get("eps", dict(_DEFAULT_EPS)), "eps")
    if "fit_window" in raw:
        win = raw["fit_window"]
        if not (isinstance(win, list) and len(win) == 2):
            raise ConfigError("fit_window: expected [min_eps, max_eps]")
        lo = _num(win[0], "fit_window[0]", float, 0, low_open=True)
        hi = _num(win[1], "fit_window[1]", float, lo, low_open=True)
        out["fit_window"] = [lo, hi]
    return out


def _resolve_entropy(raw: dict, common: dict, model: CovarianceModel) -> dict:
    _no_extras(raw, _COMMON_KEYS + ("alpha", "eta", "eps", "n_samples", "mesh",
                                    "cover_eps"), "config")
    out = dict(common)
    out["alpha"] = _validate_alpha(_req(raw, "alpha", "config"), model)
    out["eta"] = _num(raw.get("eta", 1.0), "eta", float, 0)
    out["eps"] = _eps_list(raw.get("eps", {"min": 0.4, "max": 1.6, "count": 7}), "eps")
    out["n_samples"] = _num(raw.get("n_samples", 20000), "n_samples", int, 1)
    mesh = raw.get("mesh", {})
    _no_extras(mesh, ("size", "n_steps"), "mesh")
    m_steps = _num(mesh.get("n_steps", 64), "mesh.n_steps", int, 2)
    if m_steps & (m_steps - 1):
        raise ConfigError(f"mesh.n_steps: must be a power of two, got {m_steps}")
    out["mesh"] = {
        "size": _num(mesh.get("size", 256), "mesh.size", int, 1),
        "n_steps": int(m_steps),
    }
    out["cover_eps"] = _eps_list(raw.get("cover_eps", {"min": 0.1, "max": 1.2, "count": 8}),
                                 "cover_eps")
    return out


def _resolve_quantize(raw: dict, common: dict, model: CovarianceModel) -> dict:
    _no_extras(raw, _COMMON_KEYS + ("alpha", "r", "n_centers", "n_train", "n_fresh",
                                    "eps", "curve_samples", "mode", "tol",
                                    "max_iter"), "config")
    out = dict(common)
    out["alpha"] = _validate_alpha(_req(raw, "alpha", "config"), model)
    out["r"] = _num(raw.get("r", 2.0), "r", float, 1.0)
    centers = raw.get("n_centers", [4, 16, 64])
    if not isinstance(centers, list) or not centers:
        raise ConfigError("n_centers: expected a nonempty list of positive integers")
    out["n_centers"] = [int(_num(v, f"n_centers[{i}]", int, 1))
                        for i, v in enumerate(centers)]
    out["n_train"] = _num(raw.get("n_train", 512), "n_train", int, 1)
    out["n_fresh"] = _num(raw.get("n_fresh", 2000), "n_fresh", int, 1)
    if max(out["n_centers"]) > out["n_train"]:
        raise ConfigError("n_centers: entries must not exceed n_train")
    out["eps"] = _eps_list(raw.get("eps", dict(_DEFAULT_EPS)), "eps")
    out["curve_samples"] = _num(raw.get("curve_samples", 20000), "curve_samples", int, 1)
    out["mode"] = _choice(raw.get("mode", "auto"), "mode", ("auto", "medoid", "mean"))
    out["tol"] = _num(raw.get("tol", 1e-6), "tol", float, 0, low_open=True)
    out["max_iter"] = _num(raw.get("max_iter", 60), "max_iter", int, 1)
    return out


def _resolve_empirical(raw: dict, common: dict, model: CovarianceModel) -> dict:
    _no_extras(raw, _COMMON_KEYS + ("alpha", "r", "n_list", "reps", "m_weights",
                                    "test_size", "bootstrap"), "config")
    out = dict(common)
    out["alpha"] = _validate_alpha(_req(raw, "alpha", "config"), model)
    out["r"] = _num(raw.get("r", 2.0), "r", float, 1.0)
    n_list = raw.get("n_list", [8, 16, 32, 64, 128])
    if not isinstance(n_list, list) or not n_list:
        raise ConfigError("n_list: expected a nonempty list of positive integers")
    out["n_list"] = [int(_num(v, f"n_list[{i}]", int, 1)) for i, v in enumerate(n_list)]
    out["reps"] = _num(raw.get("reps", 10), "reps", int, 1)
    out["m_weights"] = _num(raw.get("m_weights", 2000), "m_weights", int, 1)
    out["test_size"] = _num(raw.get("test_size", 256), "test_size", int, 1)
    out["bootstrap"] = _num(raw.get("bootstrap", 8), "bootstrap", int, 0)
    return out


def _resolve_inequalities(raw: dict, common: dict, model: CovarianceModel) -> dict:
    _no_extras(raw, _COMMON_KEYS + ("checks",), "config")
    checks = raw.get("checks")
    if checks is None:
        checks = [
            {"name": "anderson", "alpha": 0.4, "eps": 1.5, "n": 20000},
            {"name": "cameron_martin", "alpha": 0.4, "eps": 1.5, "n": 20000},
            {"name": "sidak", "chaos_level": 1},
            {"name": "borell_shift", "set": ["half_space", 0.0], "lam": 1.0},
        ]
    if not isinstance(checks, list) or not checks:
        raise ConfigError("checks: expected a nonempty list")
    out = dict(common, checks=checks)
    resolve_checks(model, out)
    return dict(out, checks=[dict(chk) for chk in checks])


def _numeric_array(value, key: str, ndim: int, size=None) -> np.ndarray:
    """A float array of ndim dimensions (and size entries, if given) or ConfigError."""
    try:
        value = np.asarray(value)
    except ValueError:  # ragged nesting
        value = None
    if (value is None or value.dtype.kind not in "iuf" or value.ndim != ndim
            or (size is not None and value.size != size) or not np.isfinite(value).all()):
        shape = "a matrix of" if ndim == 2 else "a list of" if size is None else f"a list of {size}"
        raise ConfigError(f"{key}: expected {shape} finite numbers")
    return value.astype(float)


def _sidak_forms(forms, where: str, size: int) -> tuple[list, int]:
    """Resolve sidak ``forms`` into (kind, coefficients, eps) triples and p.

    The first bilinear form's p x q matrix fixes the block sizes: every
    bilinear form must be p x q, every ``linear_x`` vector of length p and
    every ``linear_y`` vector of length q, and p + q must equal ``size``, the
    size of the check's ``cov``.
    """
    key = f"{where}.forms"
    if not isinstance(forms, list):
        raise ConfigError(f"{key}: expected a list of [kind, coefficients, eps]")
    out = []
    for k, form in enumerate(forms):
        if not (isinstance(form, list) and len(form) == 3):
            raise ConfigError(f"{key}[{k}]: expected [kind, coefficients, eps]")
        kind = _choice(form[0], f"{key}[{k}][0]", ("bilinear", "linear_x", "linear_y"))
        coefficients = _numeric_array(form[1], f"{key}[{k}][1]", 2 if kind == "bilinear" else 1)
        out.append((kind, coefficients, _num(form[2], f"{key}[{k}][2]", float, 0, low_open=True)))
    first = next((c for kind, c, _ in out if kind == "bilinear"), None)
    if first is None:
        raise ConfigError(f"{key}: needs at least one bilinear form")
    p, q = first.shape
    if p + q != size:
        raise ConfigError(f"{where}.cov: size {size} must equal {p} + {q}, the block sizes "
                          "of the first bilinear form")
    shapes = {"bilinear": (p, q), "linear_x": (p,), "linear_y": (q,)}
    for k, (kind, coefficients, _) in enumerate(out):
        if coefficients.shape != shapes[kind]:
            raise ConfigError(f"{key}[{k}][1]: a {kind} form needs shape {shapes[kind]} "
                              f"for blocks of sizes {p} and {q}, got {coefficients.shape}")
    return out, p


def _one_check(model, cfg: dict, entry, where: str):
    """Resolve one ``checks`` entry into its call, without running it.

    Each branch reads exactly the keys its check takes, so the branches are
    the list of checks.  A key no branch reads, a missing required key or an
    ill-typed value raises ConfigError naming ``checks[i].<key>``.  Each check
    is looked up on the ``inequalities`` module when its call is built, so a
    rebound name takes effect.
    """
    if not isinstance(entry, dict):
        raise ConfigError(f"{where}: expected an object")
    used = {"name"}

    def get(key, default=...):  # no default: a required key
        used.add(key)
        return _req(entry, key, where) if default is ... else entry.get(key, default)

    def num(key, default=..., *bounds, **kw):
        return _num(get(key, default), f"{where}.{key}", *bounds, **kw)

    def array(key, default, ndim, size=None):
        return _numeric_array(get(key, default), f"{where}.{key}", ndim, size)

    name = _req(entry, "name", where)
    seed = num("seed", cfg["seed"], int, 0)
    default_steps = min(cfg["grid"]["N"], 256)
    if name in ("anderson", "cameron_martin"):
        steps = num("n_steps", default_steps, int, 2)
        check = getattr(inequalities, f"check_{name}")
        alpha = _validate_alpha(get("alpha"), model, where=f"{where}.")
        default_center = None if name == "anderson" else [1.0] + [0.0] * (model.dim - 1)
        center = get("center", default_center)
        if center is not None or name == "cameron_martin":  # anderson's null: no centre
            times = np.linspace(0.0, model.horizon, steps + 1)  # a straight-line drift
            center = CMPath(times, np.outer(times / model.horizon,
                                            array("center", default_center, 1, model.dim)))
        call = partial(check, model, alpha, center, num("eps", low=0, low_open=True),
                       n=num("n", 20000, int, 1), seed=seed, n_steps=steps,
                       variant=cfg["variant"])
    elif name == "sidak":
        cov = array("cov", [[1.0, 0.5], [0.5, 1.0]], 2)
        try:  # the check's own rule: square, symmetric, positive semidefinite
            inequalities._validate_cov(cov)
        except ValueError as exc:
            raise ConfigError(f"{where}.cov: {exc}") from exc
        size = cov.shape[0]
        thresholds = array("thresholds", [1.0] * size, 1)
        if thresholds.size != size or np.any(thresholds <= 0):
            raise ConfigError(f"{where}.thresholds: expected one positive threshold per "
                              f"cov row ({size}), got {thresholds.tolist()}")
        level = num("chaos_level", 1, int, 1, 2)
        method = _choice(get("method", "auto"), f"{where}.method", ("auto", "quadrature", "mc"))
        forms, p = get("forms", None), 1
        if forms is not None:
            forms, p = _sidak_forms(forms, where, size)
        elif level == 2 and size != 2:
            raise ConfigError(f"{where}.cov: chaos level 2 without forms needs a 2 x 2 cov "
                              f"(two 1-dim blocks), got {size} x {size}")
        if level == 2 and not np.allclose(cov[:p, p:], 0.0, atol=1e-12):
            raise ConfigError(f"{where}.cov: chaos level 2 needs independent blocks of sizes "
                              f"{p} and {size - p} (zero cross-covariance)")
        if level == 1 and method == "quadrature" and size > 3:
            raise ConfigError(f"{where}.method: quadrature supports a cov of at most 3 x 3, "
                              f"got {size} x {size}")
        call = partial(inequalities.check_sidak, cov, thresholds, chaos_level=level,
                       method=method, n=num("n", 200000, int, 1), seed=seed, forms=forms)
    elif name == "borell_shift":
        set_spec = get("set", ["half_space", 0.0])
        if not (isinstance(set_spec, list) and len(set_spec) == 2):
            raise ConfigError(f"{where}.set: expected [\"half_space\" or \"box\", number]")
        set_kind = _choice(set_spec[0], f"{where}.set[0]", ("half_space", "box"))
        call = partial(inequalities.check_borell_shift, num("dimension", 1, int, 1),
                       (set_kind, _num(set_spec[1], f"{where}.set[1]", float)),
                       num("lam", 1.0, float, 0), n=num("n", 200000, int, 1), seed=seed)
    elif name == "borell_shift_rough":
        call = partial(inequalities.check_borell_shift_rough, model,
                       _validate_alpha(get("alpha"), model, where=f"{where}."),
                       num("eps", low=0, low_open=True), num("lam", 0.5, float, 0),
                       n=num("n", 4000, int, 1), seed=seed,
                       n_steps=num("n_steps", default_steps, int, 2),
                       n_directions=num("n_directions", 8, int, 1), variant=cfg["variant"])
    elif name == "canary_violation":
        call = partial(inequalities.canary_violation, n=num("n", 100000, int, 1), seed=seed)
    else:
        raise ConfigError(f"{where}.name: unknown check {name!r}")
    _no_extras(entry, used, where)
    return call


def resolve_checks(model: CovarianceModel, cfg: dict) -> list:
    """The calls of a resolved inequalities config's checks, in order; runs none."""
    return [_one_check(model, cfg, entry, f"checks[{i}]")
            for i, entry in enumerate(cfg["checks"])]


def _resolve_audit(raw: dict, common: dict, model: CovarianceModel) -> dict:
    _no_extras(raw, _COMMON_KEYS + ("h_window", "mesh_levels", "n_dump"), "config")
    out = dict(common)
    out["h_window"] = _num(raw.get("h_window", 0.5), "h_window", float, 0, low_open=True)
    out["mesh_levels"] = _num(raw.get("mesh_levels", 6), "mesh_levels", int, 2)
    out["n_dump"] = _num(raw.get("n_dump", 3), "n_dump", int, 0)
    return out


_RESOLVERS = {
    "sbp": _resolve_sbp,
    "entropy": _resolve_entropy,
    "quantize": _resolve_quantize,
    "empirical": _resolve_empirical,
    "inequalities": _resolve_inequalities,
    "audit": _resolve_audit,
}


def parse_config(source) -> ExperimentConfig:
    """Parse a config from a dict, a JSON string, or a file path."""
    if isinstance(source, ExperimentConfig):
        return source
    if isinstance(source, dict):
        raw = source
    else:
        text = str(source)
        if text.lstrip().startswith("{"):
            pass
        elif os.path.exists(text):
            with open(text, "r", encoding="utf-8") as fh:
                text = fh.read()
        else:
            raise ConfigError(f"config file not found: {text}")
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config: expected a JSON object")
    raw = {k: v for k, v in raw.items() if k != "config_hash"}
    common, model = _resolve_common(raw)
    resolved = _RESOLVERS[common["experiment"]](raw, common, model)
    return ExperimentConfig(resolved)


def echo_config(config: ExperimentConfig) -> str:
    """Serialized resolved config with its own hash; parses back to config."""
    data = dict(config.data)
    data["config_hash"] = config.hash
    return json.dumps(data, sort_keys=True, indent=2) + "\n"
