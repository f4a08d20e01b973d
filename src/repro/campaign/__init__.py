"""repro.campaign — multi-device measurement campaigns in one call.

The paper's training stack is a measurement *campaign*: sweep every
benchmark kernel over the sampled frequency grid on each device (§4.1),
then train and evaluate portability across GPUs (Fig. 4b).  This package
turns that into a declarative plan executed by an engine::

    from repro.campaign import CampaignPlan, run_campaign

    report = run_campaign(
        CampaignPlan(devices=("titan-x", "tesla-p100"), workers=4),
        store_root="repro-store",
    )
    print(report.format())

Afterwards every device has a JSONL trace in the
:class:`~repro.measure.trace_registry.TraceRegistry` and a trained bundle
in the :class:`~repro.serve.registry.ModelRegistry`, and
``repro train --backend replay --trace-key titan-x/default`` reproduces
the campaign's training dataset bit-for-bit.

Execution is one leg-major work queue over a single shared process pool
(:mod:`repro.campaign.scheduler`): a leg's training rides the same
workers while the later legs still sweep, and
completed sweeps stream into per-device trace writers and incremental
dataset folds as they land.  ``run_campaign(..., resume=True)`` finishes
a crashed or interrupted campaign by reusing every already-recorded
sweep — byte-identical to an uninterrupted run — and
``on_progress`` feeds a live :class:`~repro.campaign.progress.CampaignProgress`
(kernels/sec, ETA, worker utilization) to whatever wants to render it.
"""

from .engine import (
    MODELS_SUBDIR,
    TRACES_SUBDIR,
    CampaignReport,
    DeviceCampaignResult,
    run_campaign,
)
from .maintenance import StoreCompactionReport, TraceCompaction, compact_store
from .plan import RECIPE_SUITES, CampaignPlan
from .progress import CampaignProgress, LegProgress, ProgressCallback
from .scheduler import LegRun, SweepTask, leg_major, prepare_leg, run_legs

__all__ = [
    "CampaignPlan",
    "CampaignProgress",
    "CampaignReport",
    "DeviceCampaignResult",
    "LegProgress",
    "LegRun",
    "MODELS_SUBDIR",
    "ProgressCallback",
    "RECIPE_SUITES",
    "StoreCompactionReport",
    "SweepTask",
    "TRACES_SUBDIR",
    "TraceCompaction",
    "compact_store",
    "leg_major",
    "prepare_leg",
    "run_campaign",
    "run_legs",
]
