"""Experiment pipelines: run a resolved config, emit hashed artifacts.

The runner keeps no input rules: it runs what ``config`` hands it, the
inequality checks included (``config.resolve_checks`` builds their calls).
This is the one module that formats and writes artifacts; the library hands
it data objects and their ``to_dict`` forms.  Every pipeline writes its files
atomically (temp file in the target directory, then rename), embeds the
resolved config hash in each artifact (``# config_hash=`` comment line in
CSVs, a top-level key in JSON), and finishes with a manifest listing the
sha256 of every written file.  All randomness is derived from the config seed
through named substreams, and results come back in input order
(``gaussian.parallel_map``), so reruns and different ``--threads`` settings
produce byte-identical bodies.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import tempfile

import numpy as np

from . import gaussian, quantize, smallball
from .config import ConfigError, echo_config, parse_config, resolve_checks


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
    """The worker thread count: threads (--threads), else ROUGHBALL_THREADS, else 1."""
    name, value = "--threads", threads
    if threads is None:
        name, value = "ROUGHBALL_THREADS", os.environ.get("ROUGHBALL_THREADS") or "1"
    try:
        count = int(value)
    except ValueError as exc:
        raise ConfigError(f"{name}: expected an integer, got {value!r}") from exc
    if count < 1:
        raise ConfigError(f"{name}: expected a thread count >= 1, got {value!r}")
    return count


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
            {"n": row["n"], "rep": row["rep"], "diff_se": row["diff_se"],
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


_REPORT_COLUMNS = ("name", "verdict", "lhs", "lhs_ci_low", "lhs_ci_high", "rhs",
                   "rhs_ci_low", "rhs_ci_high", "margin", "margin_se", "seed")


def _run_inequalities(cfg: dict, model, threads: int, cfg_hash: str) -> dict:
    reports = gaussian.parallel_map(lambda call: call(), resolve_checks(model, cfg), threads)
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
