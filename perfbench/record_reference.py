"""Record the reference outputs that the benchmark checks exactly.

    python3 perfbench/record_reference.py

Runs the stream and certify workloads through the CLI at the full and
tiny sizes, for the default and the held-out seed, and writes the
sha256 of every stream's bits, the battery's per-module composite
p-values and the pooled sub-p-values behind them to
perfbench/reference.json.  The file pins the outputs of the commit it
was recorded at: a change that keeps generator output bit-identical
and p-values equal must pass against it unchanged.  Re-record only for
a change meant to alter those outputs, and say so with the change.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
import workloads


def record(sizes: workloads.Sizes, seed: int) -> dict:
    observed: dict = {}
    workdir = run.WORK_DIR / f"reference-{os.getpid()}"
    for name in ("stream", "certify"):
        shutil.rmtree(workdir, ignore_errors=True)
        ctx = workloads.Context(seed, sizes, workdir, {}, observed)
        tally = run.Tally()
        try:
            run.run_cli_pass(workloads.WORKLOADS[name], ctx, run.child_env(), tally)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if tally.failed:
            raise SystemExit("\n".join(tally.errors))
    # The CLI reports only each module's composite p-value; the pooled
    # sub-p-values come from the same battery call made in-process.
    from spintrng.generator import GeneratorConfig, generate_bitstream
    from spintrng.nist import run_nist_suite

    bits = generate_bitstream(GeneratorConfig(), n_bits=sizes.certify_bits, seed=seed).bits
    if workloads.bits_sha256(bits) != observed["certify"]["bits"]:
        raise SystemExit("in-process bits differ from the CLI's")
    results = run_nist_suite(bits, n_groups=sizes.certify_groups)
    observed["certify"]["pooled_p_values"] = {
        r.module_name: list(r.group_p_values) for r in results
    }
    return observed


def main() -> int:
    sys.path.insert(0, str(workloads.SRC))
    table = {
        sizes.label: {
            str(seed): record(sizes, seed)
            for seed in (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED)
        }
        for sizes in (workloads.FULL, workloads.TINY)
    }
    text = json.dumps(table, indent=1, sort_keys=True) + "\n"
    workloads.REFERENCE_PATH.write_text(text, encoding="utf-8")
    print(f"wrote {workloads.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
