"""Kernel specifications: source + launch configuration + dynamic traits.

A :class:`KernelSpec` is the unit both benchmark suites (synthetic training
codes and the twelve test benchmarks) are expressed in.  It bridges the two
sides of the reproduction:

* the **model side** sees only ``spec.static_features()`` — the paper's ten
  static features extracted from the source text;
* the **measurement side** sees ``spec.profile()`` — the dynamic workload
  the simulator runs, which additionally carries cache/coalescing/
  divergence/occupancy traits and true loop bounds that static analysis
  cannot know.

The gap between those two views is exactly the modeling gap the paper's
evaluation quantifies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .analysis.recipes import DEFAULT_RECIPE
from .clkernel.ir import KernelIR
from .clkernel.lowering import lower_source
from .features.extractor import ExtractorConfig, FeatureExtractor
from .features.vector import StaticFeatures
from .gpusim.profile import DynamicTraits, WorkloadProfile


@dataclass(frozen=True)
class KernelSpec:
    """One benchmark: OpenCL source plus everything needed to 'run' it."""

    name: str
    source: str
    work_items: int
    kernel_name: str | None = None
    traits: DynamicTraits = field(default_factory=DynamicTraits)
    bytes_per_access: float = 8.0
    #: Actual iteration count of statically unbounded loops (None = none).
    trip_count_hint: int | None = None
    #: "compute", "memory", "mixed" — used for reporting only.
    category: str = "mixed"

    def lower(self) -> KernelIR:
        return lower_source(self.source, kernel_name=self.kernel_name)

    def static_features(self, feature_recipe: str = DEFAULT_RECIPE) -> StaticFeatures:
        extractor = FeatureExtractor(ExtractorConfig(recipe=feature_recipe))
        feats = extractor.extract(self.source, kernel_name=self.kernel_name)
        # Re-label with the spec name (kernel function names may repeat).
        return StaticFeatures(
            values=feats.values,
            kernel_name=self.name,
            total_instructions=feats.total_instructions,
            raw_counts=feats.raw_counts,
            names=feats.names,
        )

    def profile(self) -> WorkloadProfile:
        ir = self.lower()
        prof = WorkloadProfile.from_ir(
            ir,
            work_items=self.work_items,
            traits=self.traits,
            bytes_per_access=self.bytes_per_access,
            trip_count_hint=self.trip_count_hint,
        )
        # Profiles are keyed by spec name so noise seeds differ per spec
        # even when two specs share a kernel function name.
        return WorkloadProfile(
            name=self.name,
            ops_per_item=prof.ops_per_item,
            work_items=prof.work_items,
            bytes_per_access=prof.bytes_per_access,
            traits=prof.traits,
        )
