"""Command-line front end.

Subcommands: generate (simulate a design and write a bitstream),
test (statistical battery plus entropy estimates for a bitstream
file), analyze (markov.design_model's predictions for one feedback
cell and for two equal cells XORed, over a grid of (p1, p2) in
[0, 1]), sweep (voltage/temperature/process CSV tables), and bench
(option-pricing backend comparison).

Exit codes: 0 success, 1 usage or config error, 2 runtime failure.
Every path that cannot be read or written also ends in exit 1, with
"spintrng: error: PATH: reason".  Every output, the stream and its
sidecar included, is made by bitio.created before the command's work
runs, so an output that cannot be written, or that would overwrite
the command's input, the input's sidecar, the config file or another
of its outputs, costs no work, and a failure while the work runs
leaves none of its outputs behind.
Flags set every option, and argparse is their one schema: each
option's default lives in its add_argument call, read from the
library where the library declares it (SweepSpec's fields,
DEFAULT_PATH_GRID).  A JSON config file (--config, or the
SPINTRNG_CONFIG environment variable, which --config overrides) sets
only the values no flag sets, in two sections: device builds the
DeviceParams, whose write currents must calibrate, and option builds
the OptionSpec (bench takes its path counts from --paths, not from the
option section).  Both sections are checked whichever command runs,
and any other key in the file is an error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from numpy.random import SeedSequence

from . import bitio
from .device import DeviceParams, Environment, calibrated_currents, flip_probs
from .entropy import binary_min_entropy, binary_shannon_entropy, counts_report
from .generator import MAX_LANES, BitGenerator, GeneratorConfig, Variant
from .markov import design_model
from .sweeps import Axis, SweepSpec, run_sweep
from .system import (
    BENCH_COLUMNS,
    DEFAULT_PATH_GRID,
    OptionSpec,
    black_scholes_oracle,
    speedup_report,
)

# .nist loads scipy, so only `test` imports it: the other commands
# start without scipy.

CONFIG_ENV_VAR = "SPINTRNG_CONFIG"


class UsageError(Exception):
    """A flag value argparse cannot check, a bad config file, or an
    input the command cannot use."""


# Dataclass fields that a config section may not set: bench takes its
# path counts from --paths.
_CONFIG_EXCLUDED = {"option": {"n_paths"}}


def _ranged(cast, lo, hi=None):
    """An option type: the text through cast, then checked to lie in
    [lo, hi], or to be >= lo when hi is None.  It takes cast's name, so
    text that cast rejects still reads as, say, "invalid int value"."""

    def check(text):
        value = cast(text)
        if not (lo <= value and (hi is None or value <= hi)):
            bound = f"be >= {lo}" if hi is None else f"lie in [{lo}, {hi}]"
            raise argparse.ArgumentTypeError(f"must {bound}, got {value}")
        return value

    check.__name__ = cast.__name__
    return check


def _path(text: str) -> str:
    """The option type of every path: empty text names no file."""
    if not text:
        raise argparse.ArgumentTypeError("must name a file")
    return text


_positive_int = _ranged(int, 1)
_seed = _ranged(int, 0)
_probability = _ranged(float, 0, 1)
_lanes = _ranged(int, 1, MAX_LANES)


def _read_config(path: str | None) -> tuple[DeviceParams, OptionSpec]:
    """The device and option sections of the JSON config at path (or
    the defaults when there is none), built and checked: the device's
    write currents must calibrate, and any other key is an error."""
    config = {}
    if path:
        try:
            with open(path, encoding="utf-8") as fh:
                config = json.load(fh)
        except json.JSONDecodeError as exc:
            raise UsageError(f"malformed config {path}: {exc}") from exc
        if not isinstance(config, dict):
            raise UsageError(f"config root must be a JSON object: {path}")
    unknown = set(config) - {"device", "option"}
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(sorted(unknown))}")
    params = _config_section(config, "device", DeviceParams)
    try:
        calibrated_currents(params)
    except ValueError as exc:
        raise UsageError(f"bad device config: {exc}") from exc
    return params, _config_section(config, "option", OptionSpec)


def _config_section(config: dict, name: str, cls):
    """cls built from config section `name` (dashed keys allowed), or
    cls() when the section is absent; unknown keys are rejected."""
    section = config.get(name)
    if section is None:
        return cls()
    if not isinstance(section, dict):
        raise UsageError(f"config section {name!r} must be a JSON object")
    values = {k.replace("-", "_"): v for k, v in section.items()}
    known = {f.name for f in dataclasses.fields(cls)} - _CONFIG_EXCLUDED.get(name, set())
    unknown = set(values) - known
    if unknown:
        raise UsageError(f"unknown {name} config keys: {', '.join(sorted(unknown))}")
    return _build(cls, f"{name} config", **values)


def _parse_number_list(text: str, cast, what: str) -> list:
    try:
        values = [cast(tok) for tok in text.split(",") if tok.strip()]
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise UsageError(f"bad {what} list {text!r}: {exc}") from exc
    if not values:
        raise UsageError(f"empty {what} list")
    return values


def _refuse_overwrites(opts: dict, paths, inputs: dict = {}) -> None:
    """A usage error if one of paths (None for a path not given) would
    overwrite one of inputs (a dict of path to what it is), the config
    file the command read, or another of paths."""
    if opts["config"]:
        inputs = {**inputs, opts["config"]: "the config"}
    taken = {os.path.realpath(path): what for path, what in inputs.items()}
    for path in filter(None, paths):
        real = os.path.realpath(path)
        if real in taken:
            raise UsageError(f"output {path} would overwrite {taken[real]}")
        taken[real] = "another output"


def _open_outputs(opts: dict, *paths, inputs: dict = {}):
    """bitio.created for paths (None for a path not given), once
    _refuse_overwrites has passed them."""
    _refuse_overwrites(opts, paths, inputs)
    return bitio.created(*paths)


def _write_json(fh, payload) -> None:
    bitio.put(fh, (json.dumps(payload, indent=2) + "\n").encode())


def _print_written(*paths) -> None:
    """Report the outputs given, once bitio.created has closed them."""
    for path in filter(None, paths):
        print(f"wrote {path}")


def _build(cls, kind: str, /, **kwargs):
    """cls(**kwargs), the one place a library constructor's rejection of
    the user's values becomes the usage error "bad KIND: reason"; JSON
    values of a wrong type or size raise TypeError or OverflowError."""
    try:
        return cls(**kwargs)
    except (TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"bad {kind}: {exc}") from exc


# -- subcommands -------------------------------------------------------------


def _cmd_generate(opts: dict, params: DeviceParams, option: OptionSpec) -> None:
    _refuse_overwrites(opts, (opts["out"], bitio.metadata_path(opts["out"])))
    variant = Variant(opts["variant"])
    forced = (opts["force_p1"], opts["force_p2"])
    if (forced[0] is None) != (forced[1] is None):
        raise UsageError("--force-p1 and --force-p2 must be given together")
    gen_config = GeneratorConfig(variant, lanes=opts["lanes"])
    env = _build(
        Environment,
        "environment",
        temperature_k=opts["temperature_k"],
        v_variation_rate=opts["v_rate"],
    )
    # No --seed means fresh OS entropy, echoed to the outputs.
    seed = opts["seed"] if opts["seed"] is not None else int(SeedSequence().entropy)
    probs = forced if forced[0] is not None else flip_probs(params, env)
    gen = BitGenerator(gen_config, seed=seed, probs=[probs] * gen_config.n_units)
    meta = bitio.write_generated(gen, opts["bits"], opts["out"], opts["format"])
    print(f"wrote {opts['out']} ({meta.n_bits} bits, {opts['format']})")
    print(f"variant={meta.variant} lanes={meta.lanes} seed={seed}")
    print(
        f"simulated_time_ns={meta.simulated_time_ns:.6g} "
        f"energy_pj={meta.energy_pj:.6g}"
    )
    print(
        f"rate_mbps={gen_config.mbps:.6g} "
        f"energy_pj_per_bit={gen_config.energy_pj_per_bit:.6g} "
        f"area_um2_per_bit={gen_config.area_um2_per_bit:.6g}"
    )


def _cmd_test(opts: dict, params: DeviceParams, option: OptionSpec) -> None:
    from .nist import all_pass, any_ran, format_report, result_rows, run_nist_suite

    path = opts["in_path"]
    stream = _build(bitio.BitFile, f"input file {path}", path=path)
    if stream.size == 0:
        raise UsageError(f"input file holds no bits: {path}")
    groups = opts["groups"]
    if stream.size % groups:
        raise UsageError(f"stream of {stream.size} bits does not divide into {groups} groups")
    inputs = {path: "the input", bitio.metadata_path(path): "the input's sidecar"}
    with _open_outputs(opts, opts["json_out"], inputs=inputs) as (json_fh,):
        results = run_nist_suite(stream, n_groups=groups)
        ent = counts_report(stream.ones, stream.size)

        print(
            f"bits={ent.n_bits} p_one={ent.p_one:.6f} "
            f"shannon={ent.shannon:.6f} min_entropy={ent.min_entropy:.6f}"
        )
        print(format_report(results))
        overall = all_pass(results)
        print(f"overall: {'pass' if overall else 'fail'}")
        if json_fh:
            payload = {
                "entropy": dataclasses.asdict(ent),
                "nist": result_rows(results),
                "overall_pass": overall,
            }
            _write_json(json_fh, payload)
    _print_written(opts["json_out"])
    if not any_ran(results):
        raise UsageError(
            f"no module ran on groups of {ent.n_bits // groups} bits; "
            "use more bits or fewer --groups"
        )


def _cmd_analyze(opts: dict, params: DeviceParams, option: OptionSpec) -> None:
    p1_values = _parse_number_list(opts["p1"], _probability, "--p1")
    p2_values = _parse_number_list(opts["p2"], _probability, "--p2")
    single, trng = GeneratorConfig(Variant.RHS_SINGLE), GeneratorConfig(Variant.RHS_TRNG)
    with _open_outputs(opts, opts["json_out"]) as (json_fh,):
        rows = []
        for p1 in p1_values:
            for p2 in p2_values:
                try:
                    [(p_out_1, lag1)] = design_model(single, [(p1, p2)])
                    [(xor_p_out_1, _)] = design_model(trng, [(p1, p2)] * 2)
                except ValueError as exc:
                    raise UsageError(str(exc)) from exc
                rows.append(
                    {
                        "p1": p1,
                        "p2": p2,
                        "p_out_1": p_out_1,
                        "xor_p_out_1": xor_p_out_1,
                        "lag1_autocorr": lag1,
                        "shannon": binary_shannon_entropy(p_out_1),
                        "min_entropy": binary_min_entropy(p_out_1),
                        "xor_shannon": binary_shannon_entropy(xor_p_out_1),
                        "xor_min_entropy": binary_min_entropy(xor_p_out_1),
                    }
                )
        for row in rows:
            print(
                f"p1={row['p1']:.4f} p2={row['p2']:.4f} "
                f"p_out_1={row['p_out_1']:.6f} xor_p_out_1={row['xor_p_out_1']:.6f} "
                f"lag1_autocorr={row['lag1_autocorr']:+.6f} "
                f"shannon={row['shannon']:.6f} min_entropy={row['min_entropy']:.6f} "
                f"xor_shannon={row['xor_shannon']:.6f} "
                f"xor_min_entropy={row['xor_min_entropy']:.6f}"
            )
        if json_fh:
            _write_json(json_fh, rows)
    _print_written(opts["json_out"])


def _cmd_sweep(opts: dict, params: DeviceParams, option: OptionSpec) -> None:
    axis = Axis(opts["axis"])
    spec = _build(
        SweepSpec,
        "sweep config",
        axis=axis,
        bits_per_point=opts["bits_per_point"],
        n_samples=opts["samples"],
        seed=opts["seed"],
        params=params,
    )
    with _open_outputs(opts, opts["out"]) as (fh,):
        report = run_sweep(spec, jobs=opts["jobs"])
        bitio.put(fh, report.to_csv().encode())
    print(f"wrote {opts['out']} ({len(report.rows)} rows, axis={axis.value})")


def _cmd_bench(opts: dict, params: DeviceParams, option: OptionSpec) -> None:
    paths = _parse_number_list(opts["paths"], int, "--paths")
    if any(n < 1 for n in paths):
        raise UsageError("--paths values must be >= 1")
    with _open_outputs(opts, opts["out"], opts["json_out"]) as (csv_fh, json_fh):
        try:
            report = speedup_report(
                spec=option,
                n_paths_grid=tuple(paths),
                seed=opts["seed"],
                jobs=opts["jobs"],
            )
            oracle = black_scholes_oracle(option)
        except (ValueError, OverflowError) as exc:
            raise UsageError(f"bad option config: {exc}") from exc
        print(f"black_scholes_oracle={oracle:.4f}")
        header = (
            f"{'backend':<24}{'n_paths':>9}{'price':>10}{'stderr':>9}"
            f"{'instructions':>14}{'runtime_s':>12}{'ratio':>8}"
        )
        print(header)
        for r in report.rows:
            print(
                f"{r.backend:<24}{r.n_paths:>9}{r.price:>10.4f}{r.std_error:>9.4f}"
                f"{r.instruction_count:>14.0f}{r.simulated_runtime_s:>12.6g}"
                f"{r.ratio_vs_trng:>8.4f}"
            )
        if csv_fh:
            bitio.put(csv_fh, report.to_csv().encode())
        if json_fh:
            rows = [
                {column: getattr(r, name) for column, name, _ in BENCH_COLUMNS}
                for r in report.rows
            ]
            _write_json(json_fh, rows)
    _print_written(opts["out"], opts["json_out"])


_DISPATCH = {
    "generate": _cmd_generate,
    "test": _cmd_test,
    "analyze": _cmd_analyze,
    "sweep": _cmd_sweep,
    "bench": _cmd_bench,
}


# -- parser ------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spintrng",
        description="Spintronic TRNG simulator: generation, statistical "
        "testing, chain analysis, PVT sweeps, and benchmarking.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="simulate a design and write a bitstream")
    g.add_argument("--variant", choices=[v.value for v in Variant], default=Variant.RHS_TRNG.value)
    g.add_argument("--bits", type=_positive_int, default=1_000_000, help="number of output bits")
    g.add_argument("--lanes", type=_lanes, default=8, help="output lanes (rhs-parallel only)")
    g.add_argument("--seed", type=_seed)
    g.add_argument(
        "--out", type=_path, required=True, help="bitstream path; sidecar written to PATH.json"
    )
    g.add_argument(
        "--format", choices=[bitio.FORMAT_PACKED, bitio.FORMAT_ASCII], default=bitio.FORMAT_PACKED
    )
    g.add_argument("--temperature-k", type=float, default=300.0, dest="temperature_k")
    g.add_argument(
        "--v-rate", type=float, default=0.0, dest="v_rate", help="supply deviation fraction"
    )
    g.add_argument(
        "--force-p1",
        type=_probability,
        dest="force_p1",
        help="bypass device physics: per-cycle P-to-AP flip probability",
    )
    g.add_argument(
        "--force-p2",
        type=_probability,
        dest="force_p2",
        help="bypass device physics: per-cycle AP-to-P flip probability",
    )

    t = sub.add_parser("test", help="statistical battery for a bitstream file")
    t.add_argument(
        "--in", dest="in_path", type=_path, required=True, help="bitstream file to test"
    )
    t.add_argument(
        "--groups",
        type=_positive_int,
        default=10,
        help="equal-size substreams (default %(default)s)",
    )
    t.add_argument("--json", dest="json_out", type=_path, help="also write the report as JSON")

    a = sub.add_parser("analyze", help="closed-form chain predictions")
    a.add_argument("--p1", default="0.5", help="comma-separated P-to-AP flip probabilities")
    a.add_argument("--p2", default="0.5", help="comma-separated AP-to-P flip probabilities")
    a.add_argument("--json", dest="json_out", type=_path, help="also write rows as JSON")

    s = sub.add_parser("sweep", help="environmental/process sweep to CSV")
    s.add_argument("--axis", choices=[ax.value for ax in Axis], default=Axis.VOLTAGE.value)
    s.add_argument(
        "--bits-per-point", type=int, default=SweepSpec.bits_per_point, dest="bits_per_point"
    )
    s.add_argument(
        "--samples",
        type=int,
        default=SweepSpec.n_samples,
        help="device samples (process axis only)",
    )
    s.add_argument("--seed", type=_seed, default=SweepSpec.seed)
    s.add_argument("--out", type=_path, required=True, help="CSV output path")
    s.add_argument("--jobs", type=_positive_int, default=1, help="parallel workers")

    b = sub.add_parser("bench", help="option-pricing backend comparison")
    b.add_argument(
        "--paths",
        default=",".join(map(str, DEFAULT_PATH_GRID)),
        help="comma-separated path counts",
    )
    b.add_argument("--seed", type=_seed, default=0)
    b.add_argument("--out", type=_path, help="CSV output path")
    b.add_argument("--json", dest="json_out", type=_path, help="also write rows as JSON")
    b.add_argument("--jobs", type=_positive_int, default=1, help="parallel workers")

    for p in sub.choices.values():
        p.add_argument(
            "--config",
            help=f"JSON file of device and option parameters (or set {CONFIG_ENV_VAR})",
        )
    return parser


def main(argv=None) -> int:
    try:
        opts = vars(_build_parser().parse_args(argv))
    except SystemExit as exc:
        # argparse exits 2 on usage errors; help/version exit 0.
        return 0 if exc.code in (0, None) else 1
    try:
        opts["config"] = opts["config"] or os.environ.get(CONFIG_ENV_VAR)
        params, option = _read_config(opts["config"])
        _DISPATCH[opts["command"]](opts, params, option)
    except UsageError as exc:
        print(f"spintrng: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # A failed open names its path, as do bitio's failed writes and
        # closes, and every path here is the user's: an input that
        # cannot be read or an output that cannot be written.
        if exc.filename is None:
            return _runtime_error(exc)
        print(f"spintrng: error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 1
    except Exception as exc:
        return _runtime_error(exc)
    return 0


def _runtime_error(exc: Exception) -> int:
    # str(MemoryError()) is empty, so name the type instead.
    print(f"spintrng: runtime error: {str(exc) or type(exc).__name__}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
