"""Statistical randomness battery (stream-level tests plus driver)."""

from spintrng.nist.suite import (
    MODULE_NAMES,
    TestResult,
    all_pass,
    any_ran,
    composite_p_value,
    format_report,
    result_rows,
    run_nist_suite,
)

__all__ = [
    "MODULE_NAMES",
    "TestResult",
    "all_pass",
    "any_ran",
    "composite_p_value",
    "format_report",
    "result_rows",
    "run_nist_suite",
]
