"""Command-line front end.

Subcommands: generate (simulate a design and write a bitstream),
test (statistical battery plus entropy estimates for a bitstream
file), analyze (closed-form chain predictions for flip-probability
grids), sweep (voltage/temperature/process CSV tables), and bench
(option-pricing backend comparison).

Exit codes: 0 success, 1 usage or config error, 2 runtime failure.
The argparse parser is the one schema of the options: each option's
default lives in its add_argument call.  A JSON config file (--config
or the SPINTRNG_CONFIG environment variable) replaces those defaults
for the command that runs, and explicit flags win over the file.
Every section of the file is checked whichever command runs: a
command section's keys must be that command's options and its values
pass the same type and choice checks as the flags, and the device and
option sections must build a DeviceParams and an OptionSpec (bench
takes its path counts from --paths, not from the option section).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from numpy.random import SeedSequence

from . import bitio
from .device import DeviceParams, Environment
from .entropy import entropy_report
from .generator import (
    GeneratorConfig,
    Variant,
    cost_report,
    generate_bitstream,
    throughput_report,
)
from .markov import (
    FlipProbs,
    lag1_autocorrelation,
    predicted_entropy,
    steady_state,
    xor_output_prob,
)
from .sweeps import Axis, run_sweep, spec_for_axis
from .system import BENCH_COLUMNS, OptionSpec, black_scholes_oracle, speedup_report

# .nist loads scipy, so only `test` imports it: the other commands
# start without scipy.

CONFIG_ENV_VAR = "SPINTRNG_CONFIG"


class UsageError(Exception):
    """Bad flags, malformed config, or a missing input file."""


# Dataclass fields that a config section may not set: bench takes its
# path counts from --paths.
_CONFIG_EXCLUDED = {"option": {"n_paths"}}


def _normalize_key(key: str) -> str:
    return key.replace("-", "_")


def _load_config(flag_path: str | None) -> dict:
    path = flag_path or os.environ.get(CONFIG_ENV_VAR)
    if not path:
        return {}
    if not os.path.exists(path):
        raise UsageError(f"config file not found: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise UsageError(f"malformed config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise UsageError(f"config root must be a JSON object: {path}")
    return {_normalize_key(k): v for k, v in raw.items()}


def _positive_int(text) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _check_values(section: str, values: dict, parser: argparse.ArgumentParser) -> None:
    """Pass config values through the type and choices of the flags
    they stand for, in place, so that each value means what the same
    text would mean as a flag: a number given to an untyped option is
    its text, and an integer option takes only integral numbers.  A
    JSON null stands for an option's default only where that is None."""
    for action in parser._actions:
        if action.dest not in values:
            continue
        value = values[action.dest]
        if value is None and action.default is None:
            continue
        try:
            if isinstance(value, bool) or not isinstance(value, (str, int, float)):
                raise ValueError(f"expected a JSON string or number, got {value!r}")
            if isinstance(value, float) and action.type not in (None, float):
                if not value.is_integer():
                    raise ValueError(f"{value!r} is not an integer")
                value = int(value)
            value = str(value) if action.type is None else action.type(value)
        except (TypeError, ValueError, argparse.ArgumentTypeError) as exc:
            raise UsageError(f"bad {section} config value {action.dest}: {exc}") from exc
        if action.choices is not None and value not in action.choices:
            raise UsageError(
                f"bad {section} config value {action.dest}: {value!r} "
                f"(choose from {', '.join(action.choices)})"
            )
        values[action.dest] = value


def _apply_config(command: str, config: dict, commands: dict) -> None:
    """Check every config section, then make the running command's
    section its subparser's defaults, so explicit flags still win; keys
    outside any section belong to `command`."""
    sections: dict[str, dict] = {name: {} for name in commands}
    for key, value in config.items():
        if key in commands:
            if not isinstance(value, dict):
                raise UsageError(f"config section {key!r} must be a JSON object")
            sections[key].update((_normalize_key(k), v) for k, v in value.items())
        elif key not in ("device", "option"):
            sections[command][key] = value
    for name, values in sections.items():
        known = {action.dest for action in commands[name]._actions} - {"help", "config"}
        unknown = set(values) - known
        if unknown:
            raise UsageError(
                f"unknown config keys for {name}: {', '.join(sorted(unknown))}"
            )
        _check_values(name, values, commands[name])
    _config_section(config, "device", DeviceParams)
    _config_section(config, "option", OptionSpec)
    commands[command].set_defaults(**sections[command])


def _config_section(config: dict, name: str, cls):
    """cls built from config section `name` (dashed keys allowed), or
    cls() when the section is absent; unknown keys are rejected."""
    section = config.get(name)
    if section is None:
        return cls()
    if not isinstance(section, dict):
        raise UsageError(f"config section {name!r} must be a JSON object")
    values = {_normalize_key(k): v for k, v in section.items()}
    known = {f.name for f in dataclasses.fields(cls)} - _CONFIG_EXCLUDED.get(name, set())
    unknown = set(values) - known
    if unknown:
        raise UsageError(f"unknown {name} config keys: {', '.join(sorted(unknown))}")
    try:
        return cls(**values)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad {name} config: {exc}") from exc


def _resolve_seed(value) -> int:
    """Explicit seed, or fresh OS entropy echoed to the outputs."""
    return value if value is not None else int(SeedSequence().entropy)


def _parse_number_list(text: str, cast, what: str) -> list:
    try:
        values = [cast(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise UsageError(f"bad {what} list {text!r}: {exc}") from exc
    if not values:
        raise UsageError(f"empty {what} list")
    return values


def _build(cls, kind: str, /, **kwargs):
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise UsageError(f"bad {kind}: {exc}") from exc


# -- subcommands -------------------------------------------------------------


def _cmd_generate(opts: dict, config: dict) -> None:
    if not opts["out"]:
        raise UsageError("generate requires --out PATH")
    variant = Variant(opts["variant"])
    if (opts["force_p1"] is None) != (opts["force_p2"] is None):
        raise UsageError("--force-p1 and --force-p2 must be given together")
    override = None
    if opts["force_p1"] is not None:
        override = (opts["force_p1"], opts["force_p2"])
    lanes = opts["lanes"] if variant is Variant.RHS_PARALLEL else 1
    gen_config = _build(
        GeneratorConfig,
        "generator config",
        variant=variant,
        lanes=lanes,
        flip_prob_override=override,
    )
    env = _build(
        Environment,
        "environment",
        temperature_k=opts["temperature_k"],
        v_variation_rate=opts["v_rate"],
    )
    params = _config_section(config, "device", DeviceParams)
    seed = _resolve_seed(opts["seed"])
    n_bits = opts["bits"]
    if n_bits < 1:
        raise UsageError(f"--bits must be >= 1, got {n_bits}")

    stream = generate_bitstream(
        gen_config, env=env, n_bits=n_bits, seed=seed, params=params
    )
    bitio.save_stream(stream, opts["out"], opts["format"])
    rate = throughput_report(gen_config)
    cost = cost_report(gen_config)
    print(f"wrote {opts['out']} ({stream.n_bits} bits, {opts['format']})")
    print(f"variant={stream.variant} lanes={stream.lanes} seed={seed}")
    print(
        f"simulated_time_ns={stream.simulated_time_ns:.6g} "
        f"energy_pj={stream.energy_pj:.6g}"
    )
    print(
        f"rate_mbps={rate.mbps_aggregate:.6g} "
        f"energy_pj_per_bit={cost.energy_pj_per_bit:.6g} "
        f"area_um2_per_bit={cost.area_um2_per_bit:.6g}"
    )


def _cmd_test(opts: dict, config: dict) -> None:
    from .nist import all_pass, any_ran, format_report, results_to_json, run_nist_suite

    path = opts["in_path"]
    if not path:
        raise UsageError("test requires --in PATH")
    if not os.path.exists(path):
        raise UsageError(f"input file not found: {path}")
    try:
        bits = bitio.read_bits(path)
    except ValueError as exc:
        raise UsageError(f"bad input file {path}: {exc}") from exc
    if bits.size == 0:
        raise UsageError(f"input file holds no bits: {path}")
    groups = opts["groups"]
    ent = entropy_report(bits)
    try:
        results = run_nist_suite(bits, n_groups=groups)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    print(
        f"bits={ent.n_bits} p_one={ent.p_one:.6f} "
        f"shannon={ent.shannon:.6f} min_entropy={ent.min_entropy:.6f}"
    )
    print(format_report(results))
    overall = all_pass(results)
    print(f"overall: {'pass' if overall else 'fail'}")
    if opts["json_out"]:
        payload = {
            "entropy": {
                "n_bits": ent.n_bits,
                "p_one": ent.p_one,
                "shannon": ent.shannon,
                "min_entropy": ent.min_entropy,
            },
            "nist": json.loads(results_to_json(results)),
            "overall_pass": overall,
        }
        with open(opts["json_out"], "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        print(f"wrote {opts['json_out']}")
    if not any_ran(results):
        raise UsageError(
            f"no module ran on groups of {ent.n_bits // groups} bits; "
            "use more bits or fewer --groups"
        )


def _cmd_analyze(opts: dict, config: dict) -> None:
    p1_values = _parse_number_list(opts["p1"], float, "--p1")
    p2_values = _parse_number_list(opts["p2"], float, "--p2")
    rows = []
    for p1 in p1_values:
        for p2 in p2_values:
            fp = _build(FlipProbs, "flip probabilities", p1=p1, p2=p2)
            try:
                ss = steady_state(fp)
            except ValueError as exc:
                raise UsageError(str(exc)) from exc
            single = predicted_entropy(fp)
            xor = predicted_entropy(fp, xor_of_two=True)
            rows.append(
                {
                    "p1": p1,
                    "p2": p2,
                    "p_out_1": ss.p_out_1,
                    "xor_p_out_1": xor_output_prob(ss.p_out_1, ss.p_out_1),
                    "lag1_autocorr": lag1_autocorrelation(fp),
                    "shannon": single.shannon,
                    "min_entropy": single.min_entropy,
                    "xor_shannon": xor.shannon,
                    "xor_min_entropy": xor.min_entropy,
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
    if opts["json_out"]:
        with open(opts["json_out"], "w", encoding="utf-8") as fh:
            json.dump(rows, fh, indent=2)
            fh.write("\n")
        print(f"wrote {opts['json_out']}")


def _cmd_sweep(opts: dict, config: dict) -> None:
    if not opts["out"]:
        raise UsageError("sweep requires --out PATH")
    axis = Axis(opts["axis"])
    params = _config_section(config, "device", DeviceParams)
    try:
        spec = spec_for_axis(
            axis,
            bits_per_point=opts["bits_per_point"],
            n_samples=opts["samples"],
            seed=opts["seed"],
            params=params,
        )
    except ValueError as exc:
        raise UsageError(f"bad sweep config: {exc}") from exc
    report = run_sweep(spec, jobs=opts["jobs"])
    with open(opts["out"], "w", encoding="utf-8") as fh:
        fh.write(report.to_csv())
    print(f"wrote {opts['out']} ({len(report.rows)} rows, axis={axis.value})")


def _cmd_bench(opts: dict, config: dict) -> None:
    paths = _parse_number_list(opts["paths"], int, "--paths")
    if any(n < 1 for n in paths):
        raise UsageError("--paths values must be >= 1")
    option = _config_section(config, "option", OptionSpec)
    report = speedup_report(
        spec=option,
        n_paths_grid=tuple(paths),
        seed=opts["seed"],
        jobs=opts["jobs"],
    )
    print(f"black_scholes_oracle={black_scholes_oracle(option):.4f}")
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
    if opts["out"]:
        with open(opts["out"], "w", encoding="utf-8") as fh:
            fh.write(report.to_csv())
        print(f"wrote {opts['out']}")
    if opts["json_out"]:
        rows = [
            {column: getattr(r, name) for column, name, _ in BENCH_COLUMNS}
            for r in report.rows
        ]
        with open(opts["json_out"], "w", encoding="utf-8") as fh:
            json.dump(rows, fh, indent=2)
            fh.write("\n")
        print(f"wrote {opts['json_out']}")


_DISPATCH = {
    "generate": _cmd_generate,
    "test": _cmd_test,
    "analyze": _cmd_analyze,
    "sweep": _cmd_sweep,
    "bench": _cmd_bench,
}


# -- parser ------------------------------------------------------------------


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The parser, and each command's subparser by name."""
    parser = argparse.ArgumentParser(
        prog="spintrng",
        description="Spintronic TRNG simulator: generation, statistical "
        "testing, chain analysis, PVT sweeps, and benchmarking.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--config",
            help=f"JSON config file (or set {CONFIG_ENV_VAR}); flags override it",
        )

    g = sub.add_parser("generate", help="simulate a design and write a bitstream")
    g.add_argument("--variant", choices=[v.value for v in Variant], default=Variant.RHS_TRNG.value)
    g.add_argument("--bits", type=int, default=1_000_000, help="number of output bits")
    g.add_argument("--lanes", type=int, default=8, help="output lanes (rhs-parallel only)")
    g.add_argument("--seed", type=int)
    g.add_argument("--out", help="bitstream path; sidecar written to PATH.json")
    g.add_argument(
        "--format", choices=[bitio.FORMAT_PACKED, bitio.FORMAT_ASCII], default=bitio.FORMAT_PACKED
    )
    g.add_argument("--temperature-k", type=float, default=300.0, dest="temperature_k")
    g.add_argument(
        "--v-rate", type=float, default=0.0, dest="v_rate", help="supply deviation fraction"
    )
    g.add_argument(
        "--force-p1",
        type=float,
        dest="force_p1",
        help="bypass device physics: per-cycle P-to-AP flip probability",
    )
    g.add_argument(
        "--force-p2",
        type=float,
        dest="force_p2",
        help="bypass device physics: per-cycle AP-to-P flip probability",
    )
    add_config(g)

    t = sub.add_parser("test", help="statistical battery for a bitstream file")
    t.add_argument("--in", dest="in_path", help="bitstream file to test")
    t.add_argument(
        "--groups", type=int, default=10, help="equal-size substreams (default %(default)s)"
    )
    t.add_argument("--json", dest="json_out", help="also write the report as JSON")
    add_config(t)

    a = sub.add_parser("analyze", help="closed-form chain predictions")
    a.add_argument("--p1", default="0.5", help="comma-separated P-to-AP flip probabilities")
    a.add_argument("--p2", default="0.5", help="comma-separated AP-to-P flip probabilities")
    a.add_argument("--json", dest="json_out", help="also write rows as JSON")
    add_config(a)

    s = sub.add_parser("sweep", help="environmental/process sweep to CSV")
    s.add_argument("--axis", choices=[ax.value for ax in Axis], default=Axis.VOLTAGE.value)
    s.add_argument("--bits-per-point", type=int, default=1_000_000, dest="bits_per_point")
    s.add_argument(
        "--samples", type=int, default=200, help="device samples (process axis only)"
    )
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", help="CSV output path")
    s.add_argument("--jobs", type=_positive_int, default=1, help="parallel workers")
    add_config(s)

    b = sub.add_parser("bench", help="option-pricing backend comparison")
    b.add_argument(
        "--paths", default="100,1000,10000,100000,1000000", help="comma-separated path counts"
    )
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--out", help="CSV output path")
    b.add_argument("--json", dest="json_out", help="also write rows as JSON")
    b.add_argument("--jobs", type=_positive_int, default=1, help="parallel workers")
    add_config(b)

    return parser, sub.choices


def main(argv=None) -> int:
    parser, commands = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; help/version exit 0.
        return 0 if exc.code in (0, None) else 1
    try:
        config = _load_config(args.config)
        _apply_config(args.command, config, commands)
        opts = vars(parser.parse_args(argv))
        _DISPATCH[args.command](opts, config)
    except UsageError as exc:
        print(f"spintrng: error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"spintrng: error: missing file: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"spintrng: runtime error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
