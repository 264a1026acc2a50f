"""Experiment pipelines: run a resolved config, emit hashed artifacts.

This is the one module that formats and writes artifacts; the library hands
it data objects and their ``to_dict`` forms.  Every pipeline writes its files
atomically (temp file in the target directory, then rename), embeds the
resolved config hash in each artifact (``# config_hash=`` comment line in
CSVs, a top-level key in JSON), and finishes with a manifest listing the
sha256 of every written file.  All randomness is derived from the config seed
through named substreams, and worker threads only ever fill disjoint slices,
so reruns and different ``--threads`` settings produce byte-identical bodies.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import tempfile
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np

from . import gaussian, inequalities, quantize, smallball
from .config import ConfigError, _choice, _no_extras, _num, _req, echo_config, parse_config


class StrictViolationError(AssertionError):
    """Raised under --strict when an inequality check reports 'violated'."""

    def __init__(self, names):
        self.names = list(names)
        super().__init__(f"violated verdicts in strict mode: {', '.join(self.names)}")


def _subseed(seed: int, *tags) -> int:
    """Deterministic substream seed for a named pipeline stage.

    String tags are digested with a keyed-nothing sha256 (process-stable,
    unlike the builtin salted str hash) so reruns derive identical streams.
    """
    words = [int(seed)]
    for tag in tags:
        if isinstance(tag, (int, np.integer)):
            words.append(int(tag))
        else:
            digest = hashlib.sha256(str(tag).encode("utf-8")).digest()
            words.append(int.from_bytes(digest[:4], "big"))
    return int(np.random.SeedSequence(words).generate_state(1)[0])


def atomic_write(path: str, text: str) -> None:
    """Write text via a temp file + rename so readers never see partials."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _json_text(payload: dict, cfg_hash: str) -> str:
    body = {"config_hash": cfg_hash}
    body.update(payload)
    return json.dumps(body, indent=2, sort_keys=True) + "\n"


def _csv_text(header, rows, cfg_hash: str) -> str:
    """The CSV artifact format: a ``# config_hash=`` line, then csv.writer rows.

    Float cells, numpy float64 included, are written as ``repr(float(v))``.
    """
    buf = io.StringIO()
    buf.write(f"# config_hash={cfg_hash}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([repr(float(v)) if isinstance(v, float) else v for v in row]
                     for row in rows)
    return buf.getvalue()


def resolve_threads(threads: int | None) -> int:
    if threads is not None:
        return max(1, int(threads))
    env = os.environ.get("ROUGHBALL_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise ConfigError(f"ROUGHBALL_THREADS: expected an integer, got {env!r}") from exc
    return 1


# ---------------------------------------------------------------------------
# Pipelines (each returns {filename: text})
# ---------------------------------------------------------------------------


def _run_sbp(cfg: dict, model, threads: int, cfg_hash: str) -> dict:
    curve = smallball.estimate_sbp_curve(
        model, cfg["alpha"], cfg["norm_kind"], cfg["eps"], cfg["n_samples"],
        cfg["seed"], n_steps=cfg["grid"]["N"], variant=cfg["variant"],
        threads=threads)
    window = tuple(cfg.get("fit_window", (cfg["eps"][0], cfg["eps"][-1])))
    predicted = None
    if cfg["norm_kind"] != "path_holder":
        predicted = smallball.predicted_sbp_index(model.rho, cfg["alpha"])
    try:
        fit = smallball.fit_variation_index(curve, window)
        fit_payload = {
            **fit.to_dict(),
            "resolution_floor": curve.resolution_floor,
            "predicted_index": predicted,
            "note": "fitted and predicted indices are reported side by side, "
                    "not asserted",
        }
    except ValueError as exc:
        # curve unusable in the window (resolution floor or saturated); the
        # curve artifact still ships, the fit reports the failure
        fit_payload = {
            "index": None,
            "window": list(window),
            "r2": None,
            "resolution_floor": curve.resolution_floor,
            "n_points": 0,
            "diagnostics": None,
            "predicted_index": predicted,
            "error": str(exc),
        }
    rows = [(eps, p, lo, hi, curve.n_samples, curve.norm_kind, curve.alpha, curve.model,
             curve.seed)
            for eps, p, lo, hi in zip(curve.eps, curve.p_hat, curve.ci_low, curve.ci_high)]
    return {
        "curve.csv": _csv_text(("eps", "p_hat", "ci_low", "ci_high", "n", "norm_kind",
                                "alpha", "model", "seed"), rows, cfg_hash),
        "fit.json": _json_text(fit_payload, cfg_hash),
    }


def _run_entropy(cfg: dict, model, threads: int, cfg_hash: str) -> dict:
    # the transform needs the curve resolved at both eps and 2 eps, so the
    # curve grid extends beyond the requested evaluation points
    lo, hi = cfg["eps"][0], 2.0 * cfg["eps"][-1]
    curve_eps = [float(v) for v in np.geomspace(lo * 0.8, hi * 1.1,
                                                max(21, 2 * len(cfg["eps"])))]
    curve = smallball.estimate_sbp_curve(
        model, cfg["alpha"], "rough_holder_dyadic", curve_eps, cfg["n_samples"],
        cfg["seed"], n_steps=cfg["grid"]["N"], variant=cfg["variant"], threads=threads)
    transform = quantize.SBPTransform(curve)
    rows = []
    skipped = []
    for eps in cfg["eps"]:
        try:
            bounds = quantize.entropy_bounds_from_sbp(transform, cfg["eta"], eps)
        except ValueError:
            skipped.append(eps)  # eps or 2 eps outside the resolved range
            continue
        rows.append((eps, bounds["upper"], bounds["lower"], bounds["b_eps"],
                     bounds["b_2eps"], cfg["eta"]))
    mesh = quantize.cm_ball_mesh(model, cfg["eta"], cfg["mesh"]["n_steps"],
                                 cfg["mesh"]["size"], _subseed(cfg["seed"], "mesh"))
    probe_eps = sorted(set(cfg["cover_eps"]) | {2.0 * row[0] for row in rows})
    growth = quantize.cover_growth_curve(mesh, cfg["alpha"], probe_eps, cfg["variant"])
    count_at = dict(zip(growth["eps"], growth["n_centers"]))
    consistency = [
        {"eps": row[0], "upper": row[1],
         "mesh_log_n_at_2eps": float(np.log(count_at[2.0 * row[0]])),
         "upper_dominates": bool(row[1] >= np.log(count_at[2.0 * row[0]]))}
        for row in rows if 2.0 * row[0] in count_at
    ]
    predicted_exp = 1.0 / (0.5 + 1.0 / (2.0 * model.rho) - cfg["alpha"])
    cover_payload = {
        "growth": growth,
        "predicted_exponent": predicted_exp,
        "eta": cfg["eta"],
        "upper_vs_mesh_cover": consistency,
        "skipped_eps": skipped,
        "note": "greedy counts certify the mesh only; comparison with the predicted "
                "exponent is qualitative",
    }
    return {
        "entropy.csv": _csv_text(("eps", "upper", "lower", "b_eps", "b_2eps", "eta"),
                                 rows, cfg_hash),
        "cover.json": _json_text(cover_payload, cfg_hash),
    }


def _run_quantize(cfg: dict, model, threads: int, cfg_hash: str) -> dict:
    curve = smallball.estimate_sbp_curve(
        model, cfg["alpha"], "rough_holder_dyadic", cfg["eps"], cfg["curve_samples"],
        _subseed(cfg["seed"], "curve"), n_steps=cfg["grid"]["N"],
        variant=cfg["variant"], threads=threads)
    transform = quantize.SBPTransform(curve)
    train = quantize.LiftedSet.from_model(model, cfg["n_train"],
                                          _subseed(cfg["seed"], "train"),
                                          cfg["grid"]["N"])
    fresh = quantize.LiftedSet.from_model(model, cfg["n_fresh"],
                                          _subseed(cfg["seed"], "fresh"),
                                          cfg["grid"]["N"])
    rows = []
    books = []
    for n in cfg["n_centers"]:
        cb = quantize.lloyd_codebook(train, n, cfg["r"], cfg["alpha"],
                                     seed=_subseed(cfg["seed"], "lloyd", n),
                                     max_iter=cfg["max_iter"], tol=cfg["tol"],
                                     mode=cfg["mode"], variant=cfg["variant"])
        err = quantize.quantization_error(cb, fresh, sbp_curve=transform)
        rows.append((n, cfg["r"], err["E_hat"], err["E_hat_se"], err["lower_bound"],
                     err["holds_within_slack"], cb.distortion, len(cb.history)))
        books.append(cb.to_dict())
    return {
        "quantize.csv": _csv_text(
            ("n", "r", "E_hat", "E_hat_se", "lower_bound", "holds_within_slack",
             "train_distortion", "iterations"), rows, cfg_hash),
        "codebooks.json": _json_text({"codebooks": books}, cfg_hash),
    }


def _run_empirical(cfg: dict, model, threads: int, cfg_hash: str) -> dict:
    res = quantize.empirical_rate_experiment(
        model, cfg["alpha"], cfg["r"], cfg["n_list"], cfg["reps"], cfg["m_weights"],
        cfg["test_size"], cfg["seed"], n_steps=cfg["grid"]["N"],
        bootstrap=cfg["bootstrap"], variant=cfg["variant"])
    rows = [(row["n"], row["rep"], row["W_weighted"], row["W_uniform"],
             row["prediction"], row["seed"]) for row in res["rows"]]
    summary = {
        "by_n": {str(k): v for k, v in res["summary"].items()},
        "loglog_slope": res["loglog_slope"],
        "beta": res["beta"],
        "domination": [
            {"n": row["n"], "rep": row["rep"], "weight_se": row["weight_se"],
             "dominates_within_noise": row["dominates_within_noise"]}
            for row in res["rows"]
        ],
        "test_size": res["test_size"],
        "reference_seed": res["reference_seed"],
    }
    return {
        "rates.csv": _csv_text(("n", "rep", "W_weighted", "W_uniform", "prediction",
                                "seed"), rows, cfg_hash),
        "summary.json": _json_text(summary, cfg_hash),
    }


def _linear_drift(model, n_steps: int, endpoint):
    """Straight-line drift path to the given endpoint, on the simulation grid."""
    from .paths import CMPath

    times = np.linspace(0.0, model.horizon, n_steps + 1)
    values = np.outer(times / model.horizon, endpoint)
    return CMPath(times, values)


_REQUIRED = object()

_REPORT_COLUMNS = ("name", "verdict", "lhs", "lhs_ci_low", "lhs_ci_high", "rhs",
                   "rhs_ci_low", "rhs_ci_high", "margin", "margin_se", "seed")


def _numeric_array(value, key: str, ndim: int, size=None) -> np.ndarray:
    """A float array of ndim dimensions (and size entries, if given) or ConfigError."""
    try:
        value = np.asarray(value)
    except ValueError:  # ragged nesting
        value = None
    if (value is None or value.dtype.kind not in "iuf" or value.ndim != ndim
            or (size is not None and value.size != size)):
        shape = "a matrix" if ndim == 2 else "a list" if size is None else f"a list of {size}"
        raise ConfigError(f"{key}: expected {shape} of numbers")
    return value.astype(float)


def _sidak_forms(forms, key: str) -> list:
    """Resolve sidak ``forms`` into (kind, coefficients, eps) triples.

    Coefficients are a matrix for a bilinear form and a vector for a linear
    one; at least one form must be bilinear, since it fixes the block sizes.
    """
    if not isinstance(forms, list):
        raise ConfigError(f"{key}: expected a list of [kind, coefficients, eps]")
    out = []
    for k, form in enumerate(forms):
        if not (isinstance(form, list) and len(form) == 3):
            raise ConfigError(f"{key}[{k}]: expected [kind, coefficients, eps]")
        kind = _choice(form[0], f"{key}[{k}][0]", ("bilinear", "linear_x", "linear_y"))
        coefficients = _numeric_array(form[1], f"{key}[{k}][1]", 2 if kind == "bilinear" else 1)
        out.append((kind, coefficients, _num(form[2], f"{key}[{k}][2]", float, 0, low_open=True)))
    if not any(kind == "bilinear" for kind, _, _ in out):
        raise ConfigError(f"{key}: needs at least one bilinear form")
    return out


def _one_check(model, cfg: dict, entry: dict, where: str):
    """Resolve one ``checks`` entry into its call, without running it.

    Each branch reads exactly the keys its check takes.  A key no branch
    reads, a missing required key or an ill-typed value raises ConfigError
    naming ``checks[i].<key>``.
    """
    used = {"name"}

    def get(key, default=_REQUIRED):
        used.add(key)
        return _req(entry, key, where) if default is _REQUIRED else entry.get(key, default)

    def num(key, default=_REQUIRED, *bounds, **kw):
        return _num(get(key, default), f"{where}.{key}", *bounds, **kw)

    def array(key, default, ndim, size=None):
        return _numeric_array(get(key, default), f"{where}.{key}", ndim, size)

    def drift(steps, default):
        """The ``center`` key: a straight-line drift's endpoint, or null for none."""
        if get("center", default) is None:
            return None
        return _linear_drift(model, steps, array("center", default, 1, size=model.dim))

    name = entry["name"]
    seed = num("seed", cfg["seed"], int, 0)
    default_steps = min(cfg["grid"]["N"], 256)
    if name in ("anderson", "cameron_martin"):
        steps = num("n_steps", default_steps, int, 2)
        check = (inequalities.check_anderson if name == "anderson"
                 else inequalities.check_cameron_martin)
        default_center = None if name == "anderson" else [1.0] + [0.0] * (model.dim - 1)
        call = partial(check, model, num("alpha"), drift(steps, default_center),
                       num("eps", low=0, low_open=True), n=num("n", 20000, int, 1),
                       seed=seed, n_steps=steps, variant=cfg["variant"])
    elif name == "sidak":
        cov = array("cov", [[1.0, 0.5], [0.5, 1.0]], 2)
        forms = get("forms", None)
        if forms is not None:
            forms = _sidak_forms(forms, f"{where}.forms")
        call = partial(inequalities.check_sidak, cov,
                       array("thresholds", [1.0] * cov.shape[0], 1),
                       chaos_level=num("chaos_level", 1, int, 1, 2),
                       method=_choice(get("method", "auto"), f"{where}.method",
                                      ("auto", "quadrature", "mc")),
                       n=num("n", 200000, int, 1), seed=seed, forms=forms)
    elif name == "borell_shift":
        set_spec = get("set", ["half_space", 0.0])
        if not (isinstance(set_spec, list) and len(set_spec) == 2):
            raise ConfigError(f"{where}.set: expected [\"half_space\" or \"box\", number]")
        set_kind = _choice(set_spec[0], f"{where}.set[0]", ("half_space", "box"))
        call = partial(inequalities.check_borell_shift, num("dimension", 1, int, 1),
                       (set_kind, _num(set_spec[1], f"{where}.set[1]", float)),
                       num("lam", 1.0, float, 0), n=num("n", 200000, int, 1), seed=seed)
    elif name == "borell_shift_rough":
        call = partial(inequalities.check_borell_shift_rough, model, num("alpha"),
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


def _run_inequalities(cfg: dict, model, threads: int, cfg_hash: str) -> dict:
    # every entry is resolved before any check runs, so a bad key fails fast
    calls = [_one_check(model, cfg, entry, f"checks[{i}]")
             for i, entry in enumerate(cfg["checks"])]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            reports = list(pool.map(lambda call: call(), calls))
    else:
        reports = [call() for call in calls]
    rows = [(r.name, r.verdict, r.lhs, *r.lhs_ci, r.rhs, *r.rhs_ci, r.margin, r.margin_se,
             r.config.get("seed", "")) for r in reports]
    payload = {"reports": [r.to_dict() for r in reports]}
    return {
        "reports.csv": _csv_text(_REPORT_COLUMNS, rows, cfg_hash),
        "reports.json": _json_text(payload, cfg_hash),
    }


def _run_audit(cfg: dict, model, threads: int, cfg_hash: str) -> dict:
    rho_audit = gaussian.rho_variation_audit(
        model, (0.0, model.horizon), cfg["mesh_levels"])
    sigma_audit = gaussian.sigma_conditions_audit(model, cfg["h_window"])
    payload = {
        "rho_variation": rho_audit,
        "sigma_conditions": sigma_audit,
        "model": model.describe(),
    }
    files = {"audit.json": _json_text(payload, cfg_hash)}
    if cfg["n_dump"] > 0:
        times = np.linspace(0.0, model.horizon, cfg["grid"]["N"] + 1)
        block = gaussian.sample_path_block(gaussian.SamplerPlan(model, times), cfg["seed"],
                                           0, cfg["n_dump"])
        rows = []
        for idx, vals in enumerate(block):
            for t_i, t in enumerate(times):
                for comp in range(model.dim):
                    rows.append((float(t), comp, float(vals[t_i, comp]), idx))
        files["samples.csv"] = _csv_text(("time", "component", "value", "sample_id"),
                                         rows, cfg_hash)
    return files


_PIPELINES = {
    "sbp": _run_sbp,
    "entropy": _run_entropy,
    "quantize": _run_quantize,
    "empirical": _run_empirical,
    "inequalities": _run_inequalities,
    "audit": _run_audit,
}


def run(config, out_dir: str | None = None, threads: int | None = None,
        strict: bool = False) -> dict:
    """Execute a config's pipeline; returns the manifest dict.

    Files land in out_dir (default: the config's ``out``).  With strict=True
    a 'violated' verdict in an inequality run raises StrictViolationError
    after all artifacts, including the manifest, are on disk.
    """
    config = parse_config(config)
    cfg = config.data
    out = out_dir if out_dir is not None else cfg["out"]
    n_threads = resolve_threads(threads)
    model = config.model()
    cfg_hash = config.hash

    files = _PIPELINES[cfg["experiment"]](cfg, model, n_threads, cfg_hash)
    files["config_echo.json"] = echo_config(config)

    os.makedirs(out, exist_ok=True)
    for name, text in sorted(files.items()):
        atomic_write(os.path.join(out, name), text)
    manifest = {
        "experiment": cfg["experiment"],
        "config_hash": cfg_hash,
        "files": {
            name: {"sha256": _sha256_file(os.path.join(out, name)),
                   "bytes": os.path.getsize(os.path.join(out, name))}
            for name in sorted(files)
        },
    }
    atomic_write(os.path.join(out, "manifest.json"),
                 json.dumps(manifest, indent=2, sort_keys=True) + "\n")

    if strict and cfg["experiment"] == "inequalities":
        violated = [
            rep["name"]
            for rep in json.loads(files["reports.json"])["reports"]
            if rep["verdict"] == "violated"
        ]
        if violated:
            raise StrictViolationError(violated)
    return manifest
