"""Declarative experiment configs: schema validation, defaults, hashing.

A config is a JSON object with an ``experiment`` kind and per-kind sections.
For all six experiments this module owns the keys, defaults, JSON types and
JSON forms (shapes, the eps shorthand); every rule on a value lives in the
library function that consumes it, and parsing calls it (``_rule``), so a
value the run would reject fails here naming its key.  Unknown keys are
rejected by name so typos fail loudly.
``resolve_checks`` turns inequality check entries into calls.  The resolved
config is what gets hashed (canonical JSON, sorted keys) and echoed next to
the artifacts, and parsing an echoed config resolves to the identical object.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import gaussian, inequalities, quantize, smallball
from .gaussian import CovarianceModel, brownian_model, custom_model, fbm_model
from .paths import CMPath, _at_least, _positive, _power_of_two

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


def _num(value, key, kind=float):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key}: expected a number, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{key}: expected a finite number, got {value!r}")
    v = kind(value)
    if kind is int and v != value:
        raise ConfigError(f"{key}: expected an integer, got {value!r}")
    return v


def _rule(where: str, rule, *args, **kwargs):
    """rule(*args, **kwargs), a library function's argument rule, with its
    ValueError('<argument>: <rule>') raised as a ConfigError under where."""
    try:
        return rule(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{where}{exc}") from exc


def _choice(value, key, options):
    if value not in options:
        raise ConfigError(f"{key}: must be one of {options}, got {value!r}")
    return value


def _no_extras(section: dict, allowed, where: str):
    extras = sorted(set(section) - set(allowed))
    if extras:
        raise ConfigError(f"{where}.{extras[0]}: unknown key (allowed: {sorted(allowed)})")


def _eps_list(value, key: str) -> list:
    """The numbers of an explicit list, or of {min, max, count} resolved to a
    geometric grid; the grid's consumer judges its values."""
    if isinstance(value, dict):
        _no_extras(value, ("min", "max", "count"), key)
        lo, hi = (_num(_req(value, k, key), f"{key}.{k}") for k in ("min", "max"))
        count = _num(_req(value, "count", key), f"{key}.count", int)
        if not (0 < lo < hi and count >= 2):
            raise ConfigError(f"{key}: expected 0 < min < max and count >= 2, got {value}")
        return [float(v) for v in np.geomspace(lo, hi, count)]
    if not isinstance(value, list):
        raise ConfigError(f"{key}: expected a list or {{min,max,count}}")
    return [_num(v, f"{key}[{i}]") for i, v in enumerate(value)]


def _validate_model(spec, where="model") -> dict:
    if not isinstance(spec, dict):
        raise ConfigError(f"{where}: expected an object")
    kind = _choice(_req(spec, "kind", where), f"{where}.kind",
                   ("brownian", "fbm", "custom_sigma2"))
    out = {"kind": kind, "d": _num(_req(spec, "d", where), f"{where}.d", int)}
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
    T = _num(grid.get("T", 1.0), "grid.T")
    N = _num(grid.get("N", 1024), "grid.N", int)
    seed = _num(raw.get("seed", 0), "seed", int)
    _rule("", _positive, "grid.T", T)
    _rule("", _power_of_two, 2, **{"grid.N": N})
    _rule("", _at_least, 0, seed=seed)
    spec = _validate_model(_req(raw, "model", "config"))
    model = _rule("model: ", _build_model, spec, T)  # the model checks its own ranges
    out = {
        "experiment": exp,
        "model": spec,
        "grid": {"T": T, "N": N},
        "seed": seed,
        "out": str(raw.get("out", "out")),
        "variant": _choice(raw.get("variant", "sum"), "variant", ("sum", "sup")),
    }
    return out, model


def _resolve_sbp(raw: dict, common: dict, model: CovarianceModel) -> dict:
    _no_extras(raw, _COMMON_KEYS + ("alpha", "norm_kind", "n_samples", "eps",
                                    "fit_window"), "config")
    norm_kind = raw.get("norm_kind", "rough_holder_dyadic")
    out = dict(common)
    out["alpha"] = _num(_req(raw, "alpha", "config"), "alpha")
    out["norm_kind"] = norm_kind
    out["n_samples"] = _num(raw.get("n_samples", 100000), "n_samples", int)
    out["eps"] = _eps_list(raw.get("eps", dict(_DEFAULT_EPS)), "eps")
    _rule("", smallball._sbp_curve_args, model, out["alpha"], norm_kind, out["eps"],
          out["n_samples"], common["grid"]["N"], eps_name="eps", steps_name="grid.N")
    if "fit_window" in raw:
        win = raw["fit_window"]
        if not (isinstance(win, list) and len(win) == 2):
            raise ConfigError("fit_window: expected [min_eps, max_eps]")
        out["fit_window"] = [_num(v, f"fit_window[{i}]") for i, v in enumerate(win)]
        _rule("", smallball._eps_grid, out["fit_window"], "fit_window")
    return out


def _resolve_entropy(raw: dict, common: dict, model: CovarianceModel) -> dict:
    _no_extras(raw, _COMMON_KEYS + ("alpha", "eta", "eps", "n_samples", "mesh",
                                    "cover_eps"), "config")
    out = dict(common)
    out["alpha"] = _num(_req(raw, "alpha", "config"), "alpha")
    out["eta"] = _num(raw.get("eta", 1.0), "eta")
    out["eps"] = _eps_list(raw.get("eps", {"min": 0.4, "max": 1.6, "count": 7}), "eps")
    out["n_samples"] = _num(raw.get("n_samples", 20000), "n_samples", int)
    _rule("", smallball._sbp_curve_args, model, out["alpha"], "rough_holder_dyadic",
          out["eps"], out["n_samples"], eps_name="eps")
    mesh = raw.get("mesh", {})
    if not isinstance(mesh, dict):
        raise ConfigError("mesh: expected an object")
    _no_extras(mesh, ("size", "n_steps"), "mesh")
    out["mesh"] = {
        "size": _num(mesh.get("size", 256), "mesh.size", int),
        "n_steps": _num(mesh.get("n_steps", 64), "mesh.n_steps", int),
    }
    _rule("", quantize._cm_ball_mesh_args, out["eta"], out["mesh"]["n_steps"],
          out["mesh"]["size"], steps_name="mesh.n_steps", size_name="mesh.size")
    out["cover_eps"] = _eps_list(raw.get("cover_eps", {"min": 0.1, "max": 1.2, "count": 8}),
                                 "cover_eps")
    _rule("", smallball._eps_grid, out["cover_eps"], "cover_eps")
    return out


def _resolve_quantize(raw: dict, common: dict, model: CovarianceModel) -> dict:
    _no_extras(raw, _COMMON_KEYS + ("alpha", "r", "n_centers", "n_train", "n_fresh",
                                    "eps", "curve_samples", "mode", "tol",
                                    "max_iter"), "config")
    out = dict(common)
    out["alpha"] = _num(_req(raw, "alpha", "config"), "alpha")
    out["r"] = _num(raw.get("r", 2.0), "r")
    centers = raw.get("n_centers", [4, 16, 64])
    if not isinstance(centers, list) or not centers:
        raise ConfigError("n_centers: expected a nonempty list of integers")
    out["n_centers"] = [int(_num(v, f"n_centers[{i}]", int)) for i, v in enumerate(centers)]
    out["n_train"] = _num(raw.get("n_train", 512), "n_train", int)
    out["n_fresh"] = _num(raw.get("n_fresh", 2000), "n_fresh", int)
    out["eps"] = _eps_list(raw.get("eps", dict(_DEFAULT_EPS)), "eps")
    out["curve_samples"] = _num(raw.get("curve_samples", 20000), "curve_samples", int)
    out["mode"] = raw.get("mode", "auto")
    out["tol"] = _num(raw.get("tol", 1e-6), "tol", float)
    out["max_iter"] = _num(raw.get("max_iter", 60), "max_iter", int)
    _rule("", smallball._sbp_curve_args, model, out["alpha"], "rough_holder_dyadic",
          out["eps"], out["curve_samples"], eps_name="eps", n_name="curve_samples")
    _rule("", quantize._quantization_error_args, out["n_fresh"], "n_fresh")
    for i, n in enumerate(out["n_centers"]):
        _rule("", quantize._lloyd_args, out["n_train"], n, out["r"], out["max_iter"],
              out["tol"], out["mode"], n_name=f"n_centers[{i}]", m_name="n_train")
    return out


def _resolve_empirical(raw: dict, common: dict, model: CovarianceModel) -> dict:
    _no_extras(raw, _COMMON_KEYS + ("alpha", "r", "n_list", "reps", "m_weights",
                                    "test_size", "bootstrap"), "config")
    out = dict(common)
    out["alpha"] = _num(_req(raw, "alpha", "config"), "alpha")
    out["r"] = _num(raw.get("r", 2.0), "r")
    n_list = raw.get("n_list", [8, 16, 32, 64, 128])
    if not isinstance(n_list, list):
        raise ConfigError("n_list: expected a list of integers")
    out["n_list"] = [int(_num(v, f"n_list[{i}]", int)) for i, v in enumerate(n_list)]
    out["reps"] = _num(raw.get("reps", 10), "reps", int)
    out["m_weights"] = _num(raw.get("m_weights", 2000), "m_weights", int)
    out["test_size"] = _num(raw.get("test_size", 256), "test_size", int)
    out["bootstrap"] = _num(raw.get("bootstrap", 8), "bootstrap", int)
    _rule("", quantize._empirical_args, model, out["alpha"], out["r"], out["n_list"],
          out["reps"], out["m_weights"], out["test_size"], out["bootstrap"])
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


def _numeric_array(value, key: str) -> np.ndarray:
    """A float array of finite numbers, of any shape, or ConfigError."""
    try:
        value = np.asarray(value)
    except ValueError:  # ragged nesting
        value = None
    if value is None or value.dtype.kind not in "iuf" or not np.isfinite(value).all():
        raise ConfigError(f"{key}: expected a rectangular array of finite numbers")
    return value.astype(float)


def _one_check(model, cfg: dict, entry, where: str):
    """Resolve one ``checks`` entry into its call, without running it.

    Each branch reads exactly the keys its check takes, with their defaults
    and JSON types, and hands the values to the check's argument rules
    (``inequalities._<name>_args``), so the branches are the list of checks.
    A key no branch reads, a missing required key, an ill-typed value or a
    value the rules reject raises ConfigError naming ``checks[i].<key>``.
    Each check is looked up on the ``inequalities`` module when its call is
    built, so a rebound name takes effect.
    """
    if not isinstance(entry, dict):
        raise ConfigError(f"{where}: expected an object")
    used = {"name"}

    def get(key, default=...):  # no default: a required key
        used.add(key)
        return _req(entry, key, where) if default is ... else entry.get(key, default)

    def num(key, default=..., kind=float):
        return _num(get(key, default), f"{where}.{key}", kind)

    def array(key, default):
        return _numeric_array(get(key, default), f"{where}.{key}")

    def rules(*args, **kwargs):
        _rule(f"{where}.", getattr(inequalities, f"_{name}_args"), *args, **kwargs)

    name = _req(entry, "name", where)
    seed = num("seed", cfg["seed"], int)
    default_steps = min(cfg["grid"]["N"], 256)
    if name in ("anderson", "cameron_martin"):
        alpha, eps = num("alpha"), num("eps")
        kwargs = dict(n=num("n", 20000, int), seed=seed,
                      n_steps=num("n_steps", default_steps, int))
        rules(model, alpha, eps, **kwargs)
        default_center = None if name == "anderson" else [1.0] + [0.0] * (model.dim - 1)
        center = get("center", default_center)
        if center is not None or name == "cameron_martin":  # anderson's null: no centre
            center = array("center", default_center)
            if center.shape != (model.dim,):
                raise ConfigError(f"{where}.center: expected a list of {model.dim} numbers")
            times = np.linspace(0.0, model.horizon, kwargs["n_steps"] + 1)  # a straight line
            center = CMPath(times, np.outer(times / model.horizon, center))
        call = partial(getattr(inequalities, f"check_{name}"), model, alpha, center, eps,
                       **kwargs, variant=cfg["variant"])
    elif name == "sidak":
        cov = array("cov", [[1.0, 0.5], [0.5, 1.0]])
        forms = get("forms", None)
        if forms is not None:
            forms = _typed_forms(forms, f"{where}.forms")
        thresholds = array("thresholds", np.ones(cov.shape[:1]))  # one per cov row
        kwargs = dict(chaos_level=num("chaos_level", 1, int), method=get("method", "auto"),
                      n=num("n", 200000, int), seed=seed, forms=forms)
        rules(cov, thresholds, **kwargs)
        call = partial(inequalities.check_sidak, cov, thresholds, **kwargs)
    elif name == "borell_shift":
        set_spec = get("set", ["half_space", 0.0])
        if not (isinstance(set_spec, list) and len(set_spec) == 2):
            raise ConfigError(f"{where}.set: expected [\"half_space\" or \"box\", number]")
        args = (num("dimension", 1, int), (set_spec[0], _num(set_spec[1], f"{where}.set[1]")),
                num("lam", 1.0))
        kwargs = dict(n=num("n", 200000, int), seed=seed)
        rules(*args, **kwargs)
        call = partial(inequalities.check_borell_shift, *args, **kwargs)
    elif name == "borell_shift_rough":
        args = (model, num("alpha"), num("eps"), num("lam", 0.5))
        kwargs = dict(n=num("n", 4000, int), seed=seed,
                      n_steps=num("n_steps", default_steps, int),
                      n_directions=num("n_directions", 8, int))
        rules(*args, **kwargs)
        call = partial(inequalities.check_borell_shift_rough, *args, **kwargs,
                       variant=cfg["variant"])
    elif name == "canary_violation":
        kwargs = dict(n=num("n", 100000, int), seed=seed)
        rules(**kwargs)
        call = partial(inequalities.canary_violation, **kwargs)
    else:
        raise ConfigError(f"{where}.name: unknown check {name!r}")
    _no_extras(entry, used, where)
    return call


def _typed_forms(forms, key: str) -> list:
    """Sidak ``forms`` as (kind, float array, float) triples; the check's rules
    judge the kinds, shapes and values."""
    if not isinstance(forms, list):
        raise ConfigError(f"{key}: expected a list of [kind, coefficients, eps]")
    out = []
    for k, form in enumerate(forms):
        if not (isinstance(form, list) and len(form) == 3):
            raise ConfigError(f"{key}[{k}]: expected [kind, coefficients, eps]")
        out.append((form[0], _numeric_array(form[1], f"{key}[{k}][1]"),
                    _num(form[2], f"{key}[{k}][2]")))
    return out


def resolve_checks(model: CovarianceModel, cfg: dict) -> list:
    """The calls of a resolved inequalities config's checks, in order; runs none."""
    return [_one_check(model, cfg, entry, f"checks[{i}]")
            for i, entry in enumerate(cfg["checks"])]


def _resolve_audit(raw: dict, common: dict, model: CovarianceModel) -> dict:
    _no_extras(raw, _COMMON_KEYS + ("h_window", "mesh_levels", "n_dump"), "config")
    out = dict(common)
    out["h_window"] = _num(raw.get("h_window", 0.5), "h_window")
    out["mesh_levels"] = _num(raw.get("mesh_levels", 6), "mesh_levels", int)
    out["n_dump"] = _num(raw.get("n_dump", 3), "n_dump", int)
    _rule("", gaussian._sigma_conditions_args, model, out["h_window"])
    _rule("", gaussian._rho_variation_args, out["mesh_levels"])
    _rule("", _at_least, 0, n_dump=out["n_dump"])
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
