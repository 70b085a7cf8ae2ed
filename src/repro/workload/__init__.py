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

from repro.workload.base import (
    OpType,
    Request,
    Workload,
    check_sorted,
    ensure_sorted,
    merge_streams,
)
from repro.workload.zipf import ZipfSampler
from repro.workload.compiled import CompiledTrace, TraceIndex, compile_workload
from repro.workload.poisson import PoissonZipfWorkload
from repro.workload.mixed import PoissonMixWorkload
from repro.workload.meta import MetaWorkload
from repro.workload.twitter import TwitterWorkload
from repro.workload.trace import TraceWorkload, iter_trace, read_trace, write_trace

__all__ = [
    "CompiledTrace",
    "MetaWorkload",
    "OpType",
    "PoissonMixWorkload",
    "PoissonZipfWorkload",
    "Request",
    "TraceIndex",
    "TraceWorkload",
    "TwitterWorkload",
    "Workload",
    "ZipfSampler",
    "check_sorted",
    "compile_workload",
    "ensure_sorted",
    "iter_trace",
    "merge_streams",
    "read_trace",
    "write_trace",
]
