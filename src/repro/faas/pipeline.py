"""Function pipelines (OpenWhisk sequences/compositions, §2.1).

A pipeline is a list of stages; each stage fans out into one or more
invocations of a single function.  Stage *i*'s invocations all complete
before stage *i+1* starts (fork-join), which is how the paper's
analytics workloads (MapReduce word count, THIS, IMAD, ServerlessBench
Image Processing) are structured.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import slotted
from repro.faas.records import InvocationRecord, Phases

_next_pipeline = itertools.count(1)


def reset_pipeline_ids() -> None:
    """Restart the process-global pipeline-id counter (see
    :func:`repro.faas.reset_id_counters`)."""
    global _next_pipeline
    _next_pipeline = itertools.count(1)

#: A planner returns one (args, input_ref) tuple per branch invocation.
StagePlanner = Callable[
    [List[str], Dict[str, Any]], List[Tuple[Dict[str, Any], Optional[str]]]
]


def _default_planner(
    prev_refs: List[str], base_args: Dict[str, Any]
) -> List[Tuple[Dict[str, Any], Optional[str]]]:
    """One invocation consuming the first output of the previous stage."""
    return [(dict(base_args), prev_refs[0] if prev_refs else None)]


def fan_out_over_refs(
    prev_refs: List[str], base_args: Dict[str, Any]
) -> List[Tuple[Dict[str, Any], Optional[str]]]:
    """One invocation per previous-stage output (map semantics)."""
    return [(dict(base_args), ref) for ref in prev_refs]


@dataclass
class Stage:
    """One pipeline stage: a function plus its fan-out planner."""

    function: str
    planner: StagePlanner = _default_planner


@dataclass
class Pipeline:
    """A named sequence of stages."""

    name: str
    stages: List[Stage]

    def new_id(self) -> str:
        return f"{self.name}-{next(_next_pipeline)}"


@slotted
@dataclass
class StageRecord:
    """Aggregated telemetry of one stage's fork-join execution."""

    function: str
    started_at: float
    finished_at: float
    records: List[InvocationRecord] = field(default_factory=list)

    @property
    def wall_time(self) -> float:
        return self.finished_at - self.started_at

    def phase_split(self) -> Phases:
        """Wall-clock attribution of the stage's E/T/L phases.

        Parallel branches overlap, so per-branch durations cannot be
        summed; instead the stage's wall time is split proportionally to
        the average per-branch phase fractions.
        """
        ok_records = [r for r in self.records if r.status == "ok"]
        if not ok_records:
            return Phases()
        n = len(ok_records)
        totals = [r.phases.total or 1e-12 for r in ok_records]
        frac_e = sum(r.phases.extract / t for r, t in zip(ok_records, totals)) / n
        frac_t = sum(r.phases.transform / t for r, t in zip(ok_records, totals)) / n
        frac_l = sum(r.phases.load / t for r, t in zip(ok_records, totals)) / n
        wall = self.wall_time
        return Phases(
            extract=wall * frac_e, transform=wall * frac_t, load=wall * frac_l
        )


@slotted
@dataclass
class PipelineRecord:
    """Telemetry of one full pipeline execution."""

    pipeline: str
    pipeline_id: str
    submitted_at: float
    finished_at: float = 0.0
    stage_records: List[StageRecord] = field(default_factory=list)

    #: A pipeline starts no sandbox of its own (its stages do).
    cold_start = False

    @property
    def duration(self) -> float:
        return self.finished_at - self.submitted_at

    @property
    def execution_time(self) -> float:
        """Its duration: a pipeline queues only stage by stage."""
        return self.finished_at - self.submitted_at

    @property
    def status(self) -> str:
        # Plain loops, no any(): the load engine reads it per pipeline.
        for stage in self.stage_records:
            for record in stage.records:
                if record.status != "ok":
                    return "failed"
        return "ok"

    @property
    def error(self) -> str:
        """The first failed stage invocation's error, if any."""
        return next((r.error for r in self.all_records() if r.status != "ok"), "")

    def phase_split(self) -> Phases:
        """End-to-end E/T/L attribution (sum of per-stage splits)."""
        combined = Phases()
        for stage in self.stage_records:
            split = stage.phase_split()
            combined.extract += split.extract
            combined.transform += split.transform
            combined.load += split.load
        return combined

    def all_records(self) -> List[InvocationRecord]:
        return [r for stage in self.stage_records for r in stage.records]
