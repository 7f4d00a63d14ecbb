"""Statistical randomness battery: the driver over nist.modules' tests.

The input stream is split into equal groups (default 10), the
fixed-length sequences of SP 800-22 section 4.2.  Every module runs
once per group, group-major: a group goes through every module before
the next group is read, so a bitio.BitFile is read one group at a time.
Sub-p-values are pooled per module in group order (the
template test contributes one per template per group, the
cumulative-sums and serial tests two per group).  A module's verdict
combines two thresholds:

* composite uniformity p-value over all pooled sub-p-values
  (10-bin chi-square) must exceed 0.0001, and
* the fraction of sub-p-values at or above 0.01 must reach the
  SP 800-22 section 4.2.1 lower bound for m sub-p-values,
  p - 3 sqrt(p (1 - p) / m) with p = 0.99, three standard deviations
  below the proportion an ideal source passes on average (0.8956 at
  m = 10, 0.9822 at m = 1480).

Modules whose recommended minimum length exceeds the group size are
reported as skipped, not failed; a battery in which every module was
skipped does not pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from spintrng.nist import modules as mod

COMPOSITE_ALPHA = 1e-4
GROUP_ALPHA = 0.01

# (name, callable, recommended minimum bits per group)
_MODULES = (
    ("frequency", mod.frequency, 100),
    ("block_frequency", mod.block_frequency, 128),
    ("cumulative_sums", mod.cumulative_sums, 100),
    ("runs", mod.runs, 100),
    ("longest_run", mod.longest_run, 128),
    ("rank", mod.rank, 38 * 1024),
    ("spectral", mod.spectral, 1000),
    ("non_overlapping_template", mod.non_overlapping_templates, 8 * 2568),
    ("overlapping_template", mod.overlapping_template, 75 * 1032),
    ("approximate_entropy", mod.approximate_entropy, 2**16),
    ("serial", mod.serial, 2**16),
    ("linear_complexity", mod.linear_complexity, 200 * 500),
)

MODULE_NAMES = tuple(name for name, _, _ in _MODULES)


@dataclass(frozen=True)
class TestResult:
    """Outcome of one module over all groups."""

    module_name: str
    p_value: float | None  # composite uniformity p-value; None when skipped
    group_p_values: tuple[float, ...]
    pass_count: int

    @property
    def group_count(self) -> int:
        return len(self.group_p_values)

    @property
    def pass_rate(self) -> float:
        return self.pass_count / self.group_count if self.group_count else 0.0

    @property
    def verdict(self) -> str:
        """"pass", "fail", or "skipped" for a module that did not run."""
        if self.p_value is None:
            return "skipped"
        passed = (
            self.p_value > COMPOSITE_ALPHA
            and self.pass_rate >= pass_rate_threshold(self.group_count)
        )
        return "pass" if passed else "fail"


def composite_p_value(p_values) -> float:
    """Uniformity of a set of p-values: 10-bin chi-square tail."""
    p = np.asarray(p_values, dtype=np.float64)
    if p.size == 0:
        raise ValueError("no p-values")
    if not np.isfinite(p).all():
        raise ValueError("p-values must be finite")
    return mod.chi2_fit(np.histogram(p, bins=10, range=(0.0, 1.0))[0], p.size / 10.0)


def pass_rate_threshold(m: int) -> float:
    """Lowest passing fraction of m sub-p-values (SP 800-22 4.2.1)."""
    p_hat = 1.0 - GROUP_ALPHA
    return p_hat - 3.0 * math.sqrt(p_hat * (1.0 - p_hat) / m)


def run_nist_suite(bits, n_groups: int = 10) -> list[TestResult]:
    """Run every battery module over the grouped stream.

    bits is a 0/1 array, or a bitio.BitFile, whose groups are read one
    at a time.  The run is group-major: each group goes through every
    module long enough for it before the next group is read, and each
    module's sub-p-values are pooled in group order.
    """
    from_file = hasattr(bits, "groups")
    if not from_file:
        bits = mod.bit_array(bits)
    if n_groups < 1:
        raise ValueError(f"n_groups must be >= 1, got {n_groups}")
    if bits.size == 0 or bits.size % n_groups:
        raise ValueError(
            f"stream of {bits.size} bits does not divide into {n_groups} groups"
        )
    group_len = bits.size // n_groups
    groups = bits.groups(n_groups) if from_file else bits.reshape(n_groups, group_len)
    ran = [(name, fn) for name, fn, min_bits in _MODULES if group_len >= min_bits]
    pooled: dict[str, list[float]] = {name: [] for name, _ in ran}
    for group in groups:
        for name, fn in ran:
            pooled[name].extend(fn(group))
    return [_result(name, pooled.get(name, [])) for name in MODULE_NAMES]


def _result(name: str, pooled: list[float]) -> TestResult:
    """A module's result on its pooled sub-p-values, which are empty for
    a module that was skipped."""
    return TestResult(
        module_name=name,
        p_value=composite_p_value(pooled) if pooled else None,
        group_p_values=tuple(pooled),
        pass_count=sum(1 for p in pooled if p >= GROUP_ALPHA),
    )


def any_ran(results) -> bool:
    """True when at least one module was not skipped."""
    return any(r.verdict != "skipped" for r in results)


def all_pass(results) -> bool:
    """True when some module ran and none failed (skips do not count
    against, but a battery where every module was skipped passes nothing)."""
    return any_ran(results) and all(r.verdict != "fail" for r in results)


def format_report(results) -> str:
    """Human-readable table mirroring the JSON fields."""
    header = f"{'module':<26} {'composite_p':>12} {'pass_rate':>10} {'verdict':>8}"
    lines = [header, "-" * len(header)]
    for r in results:
        comp = "-" if r.p_value is None else f"{r.p_value:.6f}"
        rate = "-" if r.group_count == 0 else f"{r.pass_count}/{r.group_count}"
        lines.append(f"{r.module_name:<26} {comp:>12} {rate:>10} {r.verdict:>8}")
    if not any_ran(results):
        lines.append("no module ran: the groups are shorter than every module's minimum")
    return "\n".join(lines)


def result_rows(results) -> list[dict]:
    """One JSON-ready dict per module, in the report's order."""
    return [
        {
            "module": r.module_name,
            "p_value": r.p_value,
            "pass_count": r.pass_count,
            "group_count": r.group_count,
            "pass_rate": r.pass_rate,
            "verdict": r.verdict,
        }
        for r in results
    ]
