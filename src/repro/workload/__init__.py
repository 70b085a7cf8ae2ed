"""Workload generators and trace utilities.

The paper evaluates on four workloads: a synthetic Poisson workload with
Zipfian key popularity, a 50/50 mix of a read-heavy and a write-heavy Poisson
workload, and two production workloads from Meta and Twitter.  Production
traces are not redistributable, so :mod:`repro.workload.meta` and
:mod:`repro.workload.twitter` provide synthetic stand-ins that reproduce the
statistical properties that drive the paper's results (popularity skew,
read/write mix, and per-key request interleaving).  See ``DESIGN.md`` for the
substitution rationale.
"""

from repro import _facade

__all__, __getattr__, __dir__ = _facade(globals(), {
    "repro.workload.base": (
        "OpType", "Request", "Workload", "check_sorted", "ensure_sorted", "merge_streams",
    ),
    "repro.workload.zipf": ("ZipfSampler",),
    "repro.workload.compiled": ("CompiledTrace", "TraceIndex", "compile_workload"),
    "repro.workload.poisson": ("PoissonZipfWorkload",),
    "repro.workload.mixed": ("PoissonMixWorkload",),
    "repro.workload.meta": ("MetaWorkload",),
    "repro.workload.twitter": ("TwitterWorkload",),
    "repro.workload.trace": ("TraceWorkload", "iter_trace", "read_trace", "write_trace"),
})
