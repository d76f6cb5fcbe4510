"""Command-line interface: code reports, failure-rate sweeps, threshold fits.

Every command validates its full configuration before doing any work or
opening any output file, echoes that configuration into the output metadata,
and writes byte-deterministic results.  Options may come from flags or from
a JSON config file: ``--config`` loads the file as click's default map, so a
config value passes the same conversion and checks as its flag, and a flag
wins.  Exit codes: 0 success, 1 validation error, 2 runtime error.
"""

from __future__ import annotations

import json
import math
import os
import sys

import click

from . import __version__
from .codes import (
    StabilizerCode,
    build_rotated_code,
    build_standard_code,
    y_logical_count,
)
from .decoders import decoder_from_name
from .noise import BiasedNoiseModel, hashing_bound
from .sim import (
    _NU_BOUNDS,
    _PC_BOUNDS,
    FailurePoint,
    convergence_study,
    csv_text,
    estimate_failure_rate,
    failure_row,
    fit_threshold,
    format_number,
    json_text,
)
from .ycode import y_code_structure

_DECODER_NAMES = ("exact-y", "concatenated-y", "brute-force", "mps")


class ConfigError(ValueError):
    """Invalid configuration detected before any work started."""


def parse_eta(text: str | float) -> float:
    if isinstance(text, (int, float)) and not isinstance(text, bool):
        eta = float(text)
    else:
        lowered = str(text).strip().lower()
        eta = math.inf if lowered in ("inf", "infinity") else _number(text, "--eta")
    if not (eta > 0.0):
        raise ConfigError(f"--eta must be positive or 'inf', got {text!r}")
    return eta


def _number(value, name: str, kind=float, least=None):
    """``kind(value)``, at least ``least``, or a ConfigError naming the option it came from.

    An integer option refuses a non-integral float instead of truncating it,
    and no option takes a JSON boolean.
    """
    try:
        number = None if isinstance(value, bool) else kind(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is None or (kind is int and isinstance(value, float) and number != value):
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"{name} must be {what}, got {value!r}")
    if least is not None and number < least:
        raise ConfigError(f"{name} must be >= {least}, got {number}")
    return number


class _Number(click.ParamType):
    """An integer or float option of at least ``least``, or eta (``kind=parse_eta``).

    Flag strings and config values take this one path.  A refusal is a
    ConfigError naming the option; click passes it through unchanged.
    """

    def __init__(self, kind=float, least=None):
        self.kind, self.least = kind, least
        self.name = {int: "integer", float: "float"}.get(kind, "eta")

    def convert(self, value, param, ctx):
        if self.kind is parse_eta:
            return parse_eta(value)
        return _number(value, param.opts[0], self.kind, self.least)


def _read_config(ctx: click.Context, _param, path: str | None) -> None:
    """Make the JSON object in ``path`` the command's default map.

    Each key must be the name of one of the command's options and hold a
    value (null is refused); a repeatable option takes a list, and ``out``
    a string (a number would be taken as a file descriptor).
    """
    if path is None:
        return
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    params = {param.name: param for param in ctx.command.params if param.name != "config"}
    unknown = sorted(set(data) - set(params))
    if unknown:
        raise ConfigError(
            f"config file {path}: unknown key(s) {', '.join(map(repr, unknown))}; "
            f"this command reads {' '.join(params)}"
        )
    for key, value in data.items():
        param = params[key]
        if value is None:
            raise ConfigError(f"config file {path}: key {key!r} is null; set it or leave it out")
        if param.multiple and not isinstance(value, list):
            raise ConfigError(f"{param.opts[0]} must be a list, got {value!r}")
        if isinstance(param.type, click.Path) and not isinstance(value, str):
            raise ConfigError(f"{param.opts[0]} must be a path, got {value!r}")
    ctx.default_map = data


def _workers_from_env() -> int:
    """--workers when neither flag nor config sets it: YBIAS_WORKERS, else 1.

    A callable default, not click's ``envvar=``, which would rank the
    environment above the config file; ``--help`` never calls it.
    """
    value = os.environ.get("YBIAS_WORKERS", "").strip() or "1"
    return _number(value, "YBIAS_WORKERS", int, least=1)


def _options(*decorators):
    """Apply click option decorators in the order listed."""

    def apply(fn):
        for decorate in reversed(decorators):
            fn = decorate(fn)
        return fn

    return apply


_INT = _Number(int)
_LAYOUTS = click.Choice(["standard", "rotated"])
_CONFIG = click.option(
    "--config", type=click.Path(exists=True, dir_okay=False),
    is_eager=True, expose_value=False, callback=_read_config,
)
_SIZE = _options(
    click.option("-j", type=_INT, required=True),
    click.option("-k", type=_INT, required=True),
)
_CODE = _options(click.option("--layout", type=_LAYOUTS, required=True), _SIZE)
_ETA = click.option("--eta", type=_Number(parse_eta), required=True)
_DECODER = _options(
    click.option("--decoder", type=click.Choice(_DECODER_NAMES), required=True),
    click.option("--chi", type=_INT, default=8),
)
_P_SWEEP = click.option("--p", type=_Number(), multiple=True)
_TRIALS = _Number(int, least=1)
_OUT = click.option("--out", type=click.Path(writable=True, dir_okay=False))
_RUNTIME = _options(
    click.option("--seed", type=_Number(int, least=0), default=0),
    click.option("--workers", type=_Number(int, least=1), default=_workers_from_env),
    _OUT,
)


def _build_code(layout: str, j: int, k: int) -> StabilizerCode:
    return (build_standard_code if layout == "standard" else build_rotated_code)(j, k)


def _emit(out: str | None, text: str) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _base_metadata(command: str, **echo) -> dict:
    return {"tool": f"ybias {__version__}", "command": command, **echo}


@click.group()
def cli() -> None:
    """Surface-code simulation toolkit for Y-biased noise."""


@cli.command("code-info")
@_options(_CONFIG, _CODE)
def code_info_cmd(layout, j, k) -> None:
    """Report code parameters, pure-noise distances, and operator counts."""
    try:
        code = _build_code(layout, j, k)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    lines = [
        f"code: {code.id}",
        f"qubits: {code.n}",
        f"checks: {code.num_x_checks} X-type + {code.num_z_checks} Z-type",
        f"d_X: {code.x_distance}",
        f"d_Y: {code.y_dist}",
        f"d_Z: {code.z_distance}",
        f"c_X: 2^{code.num_x_checks}",
        f"c_Y: {y_logical_count(j, k, layout)}",
        f"c_Z: 2^{code.num_z_checks}",
    ]
    if layout == "standard":
        structure = y_code_structure(j, k, code)
        blocks: dict[int, int] = {}
        for _, members in structure.repetition_blocks:
            blocks[len(members)] = blocks.get(len(members), 0) + 1
        parts = [f"REP({size})x{count}" for size, count in sorted(blocks.items())]
        lines.append(f"blocks: {', '.join(parts)}")
        lines.append(f"forced-zero boundary qubits: {len(structure.boundary_zero_qubits)}")
        lines.append(f"top-level cycle code: complete graph on {structure.cycle_order} vertices")
    click.echo("\n".join(lines))


@cli.command("run")
@_options(
    _CONFIG, _CODE, _ETA, _DECODER, _P_SWEEP,
    click.option("--format", type=click.Choice(["csv", "json"]), default="csv"),
    click.option("--trials", type=_TRIALS), _RUNTIME,
)
def run_cmd(layout, j, k, eta, decoder, chi, p, format, trials, seed, workers, out) -> None:
    """Estimate failure rates over a sweep of physical error rates."""
    if p and trials is None:
        raise ConfigError("missing required option: --trials (a --p sweep needs it)")
    try:
        code = _build_code(layout, j, k)
        models = [BiasedNoiseModel(rate, eta) for rate in p]
        decoders = [decoder_from_name(decoder, code, m, chi=chi) for m in models]
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    rows = []
    for model, dec in zip(models, decoders):
        result = estimate_failure_rate(code, dec, model, trials, seed, workers=workers)
        rows.append(failure_row(code, model, dec, result, seed))
    metadata = _base_metadata(
        "run",
        layout=layout,
        j=j,
        k=k,
        eta=eta,
        decoder=decoder,
        chi=chi if decoder == "mps" else None,
        trials=trials if p else None,
        p_values=";".join(format_number(rate) for rate in p),
        seed=seed,
    )
    if format == "csv":
        _emit(out, csv_text(rows, metadata))
    else:
        meta_json = {key: format_number(value) for key, value in metadata.items()}
        _emit(out, json_text({"metadata": meta_json, "rows": rows}))


@cli.command("threshold")
@_options(
    _CONFIG,
    click.option("--layout", type=_LAYOUTS, default="rotated"),
    _ETA, _DECODER, _P_SWEEP,
    click.option("-d", "distances", type=_INT, multiple=True),
    click.option("--trials", type=_TRIALS, required=True), _RUNTIME,
    click.option("--pc-init", type=_Number()),
    click.option("--nu-init", type=_Number(), default=1.0),
)
def threshold_cmd(
    layout, eta, decoder, chi, p, distances, trials, seed, workers, out, pc_init, nu_init
) -> None:
    """Sweep several code distances and fit the threshold crossing."""
    for name, value, (lo, hi) in (
        ("--pc-init", pc_init, _PC_BOUNDS), ("--nu-init", nu_init, _NU_BOUNDS)
    ):
        if value is not None and not lo <= value <= hi:  # also refuses nan
            raise ConfigError(f"{name} must lie within the fit's bounds [{lo}, {hi}], got {value}")
    if len(set(distances)) < 3:
        raise ConfigError(f"need >= 3 distinct distances, got {list(distances)}")
    if len(set(p)) < 3:
        raise ConfigError(f"need >= 3 distinct p-values, got {list(p)}")
    # Every distance gets every p, so the fit's bracket is known here.
    if pc_init is not None and not min(p) <= pc_init <= max(p):
        raise ConfigError(
            f"--pc-init {pc_init} lies outside the --p range [{min(p)}, {max(p)}], "
            "so the p-values do not bracket it"
        )
    try:
        codes = {d: _build_code(layout, d, d) for d in distances}
        models = {rate: BiasedNoiseModel(rate, eta) for rate in p}
        decs = {
            (d, rate): decoder_from_name(decoder, codes[d], models[rate], chi=chi)
            for d in distances
            for rate in p
        }
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    rows = []
    points = []
    for d in distances:
        for rate in p:
            result = estimate_failure_rate(
                codes[d], decs[(d, rate)], models[rate], trials, seed, workers=workers
            )
            rows.append(failure_row(codes[d], models[rate], decs[(d, rate)], result, seed))
            points.append(FailurePoint(d, rate, result.rate, result.stderr, result.trials))
    metadata = _base_metadata(
        "threshold",
        layout=layout,
        eta=eta,
        decoder=decoder,
        chi=chi if decoder == "mps" else None,
        trials=trials,
        distances=";".join(str(d) for d in distances),
        p_values=";".join(format_number(rate) for rate in p),
        seed=seed,
    )
    meta_json = {key: format_number(value) for key, value in metadata.items()}
    payload: dict = {"metadata": meta_json, "rows": rows}
    try:
        fit = fit_threshold(points, nu_init=nu_init, pc_init=pc_init)
    except (ValueError, RuntimeError) as exc:
        payload["fit_error"] = str(exc)
        _emit(out, json_text(payload))
        raise RuntimeError(f"threshold fit failed: {exc}") from None
    payload["fit"] = fit.to_json()
    _emit(out, json_text(payload))


@cli.command("hashing-bound")
@_options(
    _CONFIG,
    click.option("--eta", type=_Number(parse_eta), multiple=True),
    _OUT,
)
def hashing_bound_cmd(eta, out) -> None:
    """Tabulate the hashing-bound threshold for each bias value."""
    rows = [{"eta": value, "p_c": hashing_bound(value)} for value in eta]
    metadata = _base_metadata(
        "hashing-bound", eta_values=";".join(format_number(value) for value in eta)
    )
    _emit(out, csv_text(rows, metadata, columns=("eta", "p_c")))


@cli.command("convergence")
@_options(
    _CONFIG,
    click.option("--layout", type=click.Choice(["rotated"]), default="rotated"),
    _SIZE, _ETA,
    click.option("--p", type=_Number(), required=True),
    click.option("--chis", type=_Number(int, least=1), multiple=True),
    click.option("--trials", type=_TRIALS, required=True), _RUNTIME,
)
def convergence_cmd(layout, j, k, eta, p, chis, trials, seed, workers, out) -> None:
    """Compare MPS failure rates across bond dimensions on identical errors."""
    if len(set(chis)) < 2:
        raise ConfigError(f"need >= 2 distinct chi values, got {list(chis)}")
    try:
        code = _build_code(layout, j, k)
        model = BiasedNoiseModel(p, eta)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    study = convergence_study(code, model, chis, trials, seed, workers=workers)
    rows = [
        {
            "chi": pt.chi,
            "rate": pt.rate,
            "stderr": pt.stderr,
            "shifted": pt.shifted,
            "converged": int(pt.converged),
        }
        for pt in study.points
    ]
    metadata = _base_metadata(
        "convergence",
        layout=layout,
        j=j,
        k=k,
        eta=eta,
        p=p,
        trials=trials,
        reference_chi=study.reference_chi,
        chi_values=";".join(str(c) for c in chis),
        seed=seed,
    )
    _emit(out, csv_text(rows, metadata, columns=("chi", "rate", "stderr", "shifted", "converged")))


def main(argv=None) -> int:
    """Entry point mapping errors to exit codes (0 ok, 1 config, 2 runtime)."""
    try:
        cli.main(args=argv, prog_name="ybias", standalone_mode=False)
    except (ConfigError, click.UsageError) as exc:
        message = exc.format_message() if isinstance(exc, click.UsageError) else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return 1
    except click.exceptions.Exit as exc:
        return int(exc.exit_code)
    except click.Abort:
        return 1
    except (RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
