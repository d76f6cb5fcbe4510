"""Command-line interface: code reports, failure-rate sweeps, threshold fits.

Every command validates its full configuration before doing any work or
opening any output file, echoes that configuration into the output metadata,
and writes byte-deterministic results.  Options may come from flags or from
a JSON config file (flags win).  Exit codes: 0 success, 1 validation error,
2 runtime error.
"""

from __future__ import annotations

import json
import math
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
    default_workers,
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
        raise ConfigError(f"eta must be positive or 'inf', got {text!r}")
    return eta


def _number(value, name: str, kind=float):
    """``kind(value)``, or a ConfigError naming the option it came from.

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
    return number


def _at_least(value, name: str, least: int) -> int:
    """An integer option of at least ``least``, or a ConfigError naming it."""
    number = _number(value, name, int)
    if number < least:
        raise ConfigError(f"{name} must be >= {least}, got {number}")
    return number


def _listed(values, name: str):
    """A repeatable option's flag tuple or config list; anything else is a ConfigError."""
    if not isinstance(values, (list, tuple)):
        raise ConfigError(f"{name} must be a list, got {values!r}")
    return values


def _numbers(values, name: str, kind=float) -> list:
    return [_number(v, name, kind) for v in _listed(values, name)]


def _load_config(path: str | None, keys: str) -> dict:
    """The JSON object in ``path`` ({} without a path).

    ``keys`` lists, space-separated, the config names the calling command
    reads; any other key, misspelt or meant for another command, is a
    ConfigError.
    """
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    unknown = sorted(set(data) - set(keys.split()))
    if unknown:
        raise ConfigError(
            f"config file {path}: unknown key(s) {', '.join(map(repr, unknown))}; "
            f"this command reads {keys}"
        )
    return data


def _merge(flag_value, config: dict, key: str, default=None):
    """Flags override config; unset means None (or the given default)."""
    if flag_value is not None and flag_value != ():
        return flag_value
    if key in config:
        return config[key]
    return default


def _require(value, name: str):
    if value is None:
        raise ConfigError(f"missing required option: {name}")
    return value


def _build_code(layout: str, j: int, k: int) -> StabilizerCode:
    if layout == "standard":
        return build_standard_code(j, k)
    if layout == "rotated":
        return build_rotated_code(j, k)
    raise ConfigError(f"unknown layout {layout!r}")


def _emit(out: str | None, text: str) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _base_metadata(command: str, seed=None, **echo) -> dict:
    meta = {"tool": f"ybias {__version__}", "command": command, **echo}
    if seed is not None:
        meta["seed"] = seed
    return meta


@click.group()
def cli() -> None:
    """Surface-code simulation toolkit for Y-biased noise."""


@cli.command("code-info")
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--layout", type=click.Choice(["standard", "rotated"]))
@click.option("-j", "j", type=int)
@click.option("-k", "k", type=int)
def code_info_cmd(config_path, layout, j, k) -> None:
    """Report code parameters, pure-noise distances, and operator counts."""
    config = _load_config(config_path, "layout j k")
    layout = _require(_merge(layout, config, "layout"), "--layout")
    j = _number(_require(_merge(j, config, "j"), "-j"), "-j", int)
    k = _number(_require(_merge(k, config, "k"), "-k"), "-k", int)
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


def _sweep_options(code_size: bool = True, decoder: bool = True):
    """The options of a sweep command; -j/-k and --decoder/--chi only where it reads them."""

    def apply(fn):
        fn = click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False))(fn)
        fn = click.option("--layout", type=click.Choice(["standard", "rotated"]))(fn)
        if code_size:
            fn = click.option("-j", "j", type=int)(fn)
            fn = click.option("-k", "k", type=int)(fn)
        fn = click.option("--eta", type=str)(fn)
        if decoder:
            fn = click.option("--decoder", "decoder_name", type=click.Choice(_DECODER_NAMES))(fn)
            fn = click.option("--chi", type=int)(fn)
        fn = click.option("--trials", type=int)(fn)
        fn = click.option("--seed", type=int)(fn)
        fn = click.option("--workers", type=int)(fn)
        fn = click.option("--out", type=click.Path(writable=True, dir_okay=False))(fn)
        return fn

    return apply


def _resolve_workers(workers) -> int:
    if workers is None:
        try:
            return default_workers()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
    return _at_least(workers, "--workers", 1)


@cli.command("run")
@_sweep_options()
@click.option("--p", "ps", multiple=True, type=float)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]))
def run_cmd(config_path, layout, j, k, eta, decoder_name, chi, trials, seed, workers, out, ps, fmt) -> None:
    """Estimate failure rates over a sweep of physical error rates."""
    config = _load_config(config_path, "layout j k eta decoder chi p format trials seed workers out")
    layout = _require(_merge(layout, config, "layout"), "--layout")
    j = _number(_require(_merge(j, config, "j"), "-j"), "-j", int)
    k = _number(_require(_merge(k, config, "k"), "-k"), "-k", int)
    eta = parse_eta(_require(_merge(eta, config, "eta"), "--eta"))
    decoder_name = _require(_merge(decoder_name, config, "decoder"), "--decoder")
    chi = _number(_merge(chi, config, "chi", 8), "--chi", int)
    ps = _numbers(_merge(ps, config, "p", []), "--p")
    fmt = _merge(fmt, config, "format", "csv")
    if fmt not in ("csv", "json"):
        raise ConfigError(f"--format must be 'csv' or 'json', got {fmt!r}")
    if ps:
        trials = _at_least(_require(_merge(trials, config, "trials"), "--trials"), "--trials", 1)
    seed = _at_least(_merge(seed, config, "seed", 0), "--seed", 0)
    workers = _resolve_workers(_merge(workers, config, "workers"))
    out = _merge(out, config, "out")
    try:
        code = _build_code(layout, j, k)
        models = [BiasedNoiseModel(p, eta) for p in ps]
        decoders = [decoder_from_name(decoder_name, code, m, chi=chi) for m in models]
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    rows = []
    for model, decoder in zip(models, decoders):
        result = estimate_failure_rate(code, decoder, model, trials, seed, workers=workers)
        rows.append(failure_row(code, model, decoder, result, seed))
    metadata = _base_metadata(
        "run",
        seed=seed,
        layout=layout,
        j=j,
        k=k,
        eta=eta,
        decoder=decoder_name,
        chi=chi if decoder_name == "mps" else None,
        trials=trials if ps else None,
        p_values=";".join(format_number(p) for p in ps),
    )
    if fmt == "csv":
        _emit(out, csv_text(rows, metadata))
    else:
        meta_json = {key: format_number(value) for key, value in metadata.items()}
        _emit(out, json_text({"metadata": meta_json, "rows": rows}))


@cli.command("threshold")
@_sweep_options(code_size=False)
@click.option("--p", "ps", multiple=True, type=float)
@click.option("-d", "distances", multiple=True, type=int)
@click.option("--pc-init", type=float)
@click.option("--nu-init", type=float)
def threshold_cmd(
    config_path, layout, eta, decoder_name, chi, trials, seed, workers, out,
    ps, distances, pc_init, nu_init,
) -> None:
    """Sweep several code distances and fit the threshold crossing."""
    config = _load_config(
        config_path, "layout eta decoder chi p distances trials seed workers out pc_init nu_init"
    )
    layout = _merge(layout, config, "layout", "rotated")
    eta = parse_eta(_require(_merge(eta, config, "eta"), "--eta"))
    decoder_name = _require(_merge(decoder_name, config, "decoder"), "--decoder")
    chi = _number(_merge(chi, config, "chi", 8), "--chi", int)
    ps = _numbers(_merge(ps, config, "p", []), "--p")
    distances = _numbers(_merge(distances, config, "distances", []), "-d", int)
    trials = _at_least(_require(_merge(trials, config, "trials"), "--trials"), "--trials", 1)
    seed = _at_least(_merge(seed, config, "seed", 0), "--seed", 0)
    workers = _resolve_workers(_merge(workers, config, "workers"))
    out = _merge(out, config, "out")
    pc_init = _merge(pc_init, config, "pc_init")
    pc_init = None if pc_init is None else _number(pc_init, "--pc-init")
    nu_init = _number(_merge(nu_init, config, "nu_init", 1.0), "--nu-init")
    for name, value, (lo, hi) in (
        ("--pc-init", pc_init, _PC_BOUNDS), ("--nu-init", nu_init, _NU_BOUNDS)
    ):
        if value is not None and not lo <= value <= hi:  # also refuses nan
            raise ConfigError(f"{name} must lie within the fit's bounds [{lo}, {hi}], got {value}")
    if len(set(distances)) < 3:
        raise ConfigError(f"need >= 3 distinct distances, got {distances}")
    if len(set(ps)) < 3:
        raise ConfigError(f"need >= 3 distinct p-values, got {ps}")
    try:
        codes = {d: _build_code(layout, d, d) for d in distances}
        models = {p: BiasedNoiseModel(p, eta) for p in ps}
        decs = {
            (d, p): decoder_from_name(decoder_name, codes[d], models[p], chi=chi)
            for d in distances
            for p in ps
        }
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    rows = []
    points = []
    for d in distances:
        for p in ps:
            result = estimate_failure_rate(
                codes[d], decs[(d, p)], models[p], trials, seed, workers=workers
            )
            rows.append(failure_row(codes[d], models[p], decs[(d, p)], result, seed))
            points.append(FailurePoint(d, p, result.rate, result.stderr, result.trials))
    metadata = _base_metadata(
        "threshold",
        seed=seed,
        layout=layout,
        eta=eta,
        decoder=decoder_name,
        chi=chi if decoder_name == "mps" else None,
        trials=trials,
        distances=";".join(str(d) for d in distances),
        p_values=";".join(format_number(p) for p in ps),
    )
    meta_json = {key: format_number(value) for key, value in metadata.items()}
    payload: dict = {"metadata": meta_json, "rows": rows}
    try:
        fit = fit_threshold(points, nu_init=nu_init, pc_init=pc_init)
    except (ValueError, RuntimeError) as exc:
        payload["fit_error"] = str(exc)
        _emit(out, json_text(payload))
        raise _RuntimeFailure(f"threshold fit failed: {exc}") from None
    payload["fit"] = fit.to_json()
    _emit(out, json_text(payload))


@cli.command("hashing-bound")
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--eta", "etas", multiple=True, type=str)
@click.option("--out", type=click.Path(writable=True, dir_okay=False))
def hashing_bound_cmd(config_path, etas, out) -> None:
    """Tabulate the hashing-bound threshold for each bias value."""
    config = _load_config(config_path, "eta out")
    etas = [parse_eta(e) for e in _listed(_merge(etas, config, "eta", []), "--eta")]
    out = _merge(out, config, "out")
    rows = [{"eta": eta, "p_c": hashing_bound(eta)} for eta in etas]
    metadata = _base_metadata(
        "hashing-bound", eta_values=";".join(format_number(e) for e in etas)
    )
    _emit(out, csv_text(rows, metadata, columns=("eta", "p_c")))


@cli.command("convergence")
@_sweep_options(decoder=False)
@click.option("--p", "p", type=float)
@click.option("--chis", "chis", multiple=True, type=int)
def convergence_cmd(config_path, layout, j, k, eta, trials, seed, workers, out, p, chis) -> None:
    """Compare MPS failure rates across bond dimensions on identical errors."""
    config = _load_config(config_path, "layout j k eta p chis trials seed workers out")
    layout = _merge(layout, config, "layout", "rotated")
    if layout != "rotated":
        raise ConfigError("convergence studies run on rotated-layout codes")
    j = _number(_require(_merge(j, config, "j"), "-j"), "-j", int)
    k = _number(_require(_merge(k, config, "k"), "-k"), "-k", int)
    eta = parse_eta(_require(_merge(eta, config, "eta"), "--eta"))
    p = _number(_require(_merge(p, config, "p"), "--p"), "--p")
    chis = [_at_least(c, "--chis", 1) for c in _listed(_merge(chis, config, "chis", []), "--chis")]
    trials = _at_least(_require(_merge(trials, config, "trials"), "--trials"), "--trials", 1)
    seed = _at_least(_merge(seed, config, "seed", 0), "--seed", 0)
    workers = _resolve_workers(_merge(workers, config, "workers"))
    out = _merge(out, config, "out")
    if len(set(chis)) < 2:
        raise ConfigError(f"need >= 2 distinct chi values, got {chis}")
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
        seed=seed,
        layout=layout,
        j=j,
        k=k,
        eta=eta,
        p=p,
        trials=trials,
        reference_chi=study.reference_chi,
        chi_values=";".join(str(c) for c in chis),
    )
    _emit(out, csv_text(rows, metadata, columns=("chi", "rate", "stderr", "shifted", "converged")))


class _RuntimeFailure(RuntimeError):
    """Wrapped runtime error that should exit with code 2."""


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
    except _RuntimeFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
