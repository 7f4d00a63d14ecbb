"""Command-line front end.

Subcommands: generate (simulate a design and write a bitstream),
test (statistical battery plus entropy estimates for a bitstream
file), analyze (closed-form chain predictions for flip-probability
grids), sweep (voltage/temperature/process CSV tables), and bench
(option-pricing backend comparison).

Exit codes: 0 success, 1 usage or config error, 2 runtime failure.
Defaults can come from a JSON config file (--config or the
SPINTRNG_CONFIG environment variable); explicit flags win over the
file, and unknown config keys are rejected.
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
from .nist import all_pass, any_ran, format_report, results_to_json, run_nist_suite
from .sweeps import Axis, run_sweep, spec_for_axis
from .system import BENCH_COLUMNS, OptionSpec, black_scholes_oracle, speedup_report

CONFIG_ENV_VAR = "SPINTRNG_CONFIG"


class UsageError(Exception):
    """Bad flags, malformed config, or a missing input file."""


# Per-subcommand option defaults; also the schema used to reject
# unknown config keys.
_DEFAULTS: dict[str, dict] = {
    "generate": {
        "variant": Variant.RHS_TRNG.value,
        "bits": 1_000_000,
        "lanes": 8,
        "out": None,
        "format": bitio.FORMAT_PACKED,
        "seed": None,
        "temperature_k": 300.0,
        "v_rate": 0.0,
        "force_p1": None,
        "force_p2": None,
    },
    "test": {
        "in_path": None,
        "groups": 10,
        "json_out": None,
    },
    "analyze": {
        "p1": "0.5",
        "p2": "0.5",
        "json_out": None,
    },
    "sweep": {
        "axis": Axis.VOLTAGE.value,
        "bits_per_point": 1_000_000,
        "samples": 200,
        "seed": 0,
        "out": None,
        "jobs": 1,
    },
    "bench": {
        "paths": "100,1000,10000,100000,1000000",
        "seed": 0,
        "out": None,
        "json_out": None,
        "jobs": 1,
    },
}

_SECTION_KEYS = set(_DEFAULTS) | {"device", "option"}


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


def _merge_options(command: str, args: argparse.Namespace, config: dict) -> dict:
    """Defaults < config file < explicit flags; unknown keys rejected."""
    defaults = _DEFAULTS[command]
    from_file: dict = {}
    for key, value in config.items():
        if key in _SECTION_KEYS:
            if key in _DEFAULTS and not isinstance(value, dict):
                raise UsageError(f"config section {key!r} must be a JSON object")
            if key == command:
                for sub_key, sub_value in value.items():
                    from_file[_normalize_key(sub_key)] = sub_value
            continue
        from_file[key] = value
    unknown = set(from_file) - set(defaults)
    if unknown:
        raise UsageError(
            f"unknown config keys for {command}: {', '.join(sorted(unknown))}"
        )
    merged = dict(defaults)
    merged.update(from_file)
    for key in defaults:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            merged[key] = flag_value
    return merged


def _config_section(config: dict, name: str, cls):
    """cls built from config section `name` (dashed keys allowed), or
    cls() when the section is absent; unknown keys are rejected."""
    section = config.get(name)
    if section is None:
        return cls()
    if not isinstance(section, dict):
        raise UsageError(f"config section {name!r} must be a JSON object")
    values = {_normalize_key(k): v for k, v in section.items()}
    unknown = set(values) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise UsageError(f"unknown {name} config keys: {', '.join(sorted(unknown))}")
    try:
        return cls(**values)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad {name} config: {exc}") from exc


def _resolve_seed(value) -> int:
    """Explicit seed, or fresh OS entropy echoed to the outputs."""
    if value is not None:
        return int(value)
    return int(SeedSequence().entropy)


def _parse_number_list(text: str, cast, what: str) -> list:
    try:
        values = [cast(tok) for tok in str(text).split(",") if tok.strip()]
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
    try:
        variant = Variant(opts["variant"])
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if (opts["force_p1"] is None) != (opts["force_p2"] is None):
        raise UsageError("--force-p1 and --force-p2 must be given together")
    override = None
    if opts["force_p1"] is not None:
        override = (float(opts["force_p1"]), float(opts["force_p2"]))
    lanes = int(opts["lanes"]) if variant is Variant.RHS_PARALLEL else 1
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
        temperature_k=float(opts["temperature_k"]),
        v_variation_rate=float(opts["v_rate"]),
    )
    params = _config_section(config, "device", DeviceParams)
    seed = _resolve_seed(opts["seed"])
    n_bits = int(opts["bits"])
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
    groups = int(opts["groups"])
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
    try:
        axis = Axis(opts["axis"])
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    params = _config_section(config, "device", DeviceParams)
    try:
        spec = spec_for_axis(
            axis,
            bits_per_point=int(opts["bits_per_point"]),
            n_samples=int(opts["samples"]),
            seed=int(opts["seed"]),
            params=params,
        )
    except ValueError as exc:
        raise UsageError(f"bad sweep config: {exc}") from exc
    report = run_sweep(spec, jobs=int(opts["jobs"]))
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
        seed=int(opts["seed"]),
        jobs=int(opts["jobs"]),
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


def _build_parser() -> argparse.ArgumentParser:
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
    g.add_argument("--variant", choices=[v.value for v in Variant])
    g.add_argument("--bits", type=int, help="number of output bits")
    g.add_argument("--lanes", type=int, help="output lanes (rhs-parallel only)")
    g.add_argument("--seed", type=int)
    g.add_argument("--out", help="bitstream path; sidecar written to PATH.json")
    g.add_argument(
        "--format", choices=[bitio.FORMAT_PACKED, bitio.FORMAT_ASCII], dest="format"
    )
    g.add_argument("--temperature-k", type=float, dest="temperature_k")
    g.add_argument(
        "--v-rate", type=float, dest="v_rate", help="supply deviation fraction"
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
    t.add_argument("--groups", type=int, help="equal-size substreams (default 10)")
    t.add_argument("--json", dest="json_out", help="also write the report as JSON")
    add_config(t)

    a = sub.add_parser("analyze", help="closed-form chain predictions")
    a.add_argument("--p1", help="comma-separated P-to-AP flip probabilities")
    a.add_argument("--p2", help="comma-separated AP-to-P flip probabilities")
    a.add_argument("--json", dest="json_out", help="also write rows as JSON")
    add_config(a)

    s = sub.add_parser("sweep", help="environmental/process sweep to CSV")
    s.add_argument("--axis", choices=[ax.value for ax in Axis])
    s.add_argument("--bits-per-point", type=int, dest="bits_per_point")
    s.add_argument(
        "--samples", type=int, help="device samples (process axis only)"
    )
    s.add_argument("--seed", type=int)
    s.add_argument("--out", help="CSV output path")
    s.add_argument("--jobs", type=int, help="parallel workers")
    add_config(s)

    b = sub.add_parser("bench", help="option-pricing backend comparison")
    b.add_argument("--paths", help="comma-separated path counts")
    b.add_argument("--seed", type=int)
    b.add_argument("--out", help="CSV output path")
    b.add_argument("--json", dest="json_out", help="also write rows as JSON")
    b.add_argument("--jobs", type=int, help="parallel workers")
    add_config(b)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; help/version exit 0.
        return 0 if exc.code in (0, None) else 1
    try:
        config = _load_config(args.config)
        opts = _merge_options(args.command, args, config)
        _DISPATCH[args.command](opts, config)
    except UsageError as exc:
        print(f"spintrng: error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"spintrng: error: missing file: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"spintrng: runtime error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
