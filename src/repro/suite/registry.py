"""The twelve test benchmarks (paper §4.2) as :class:`KernelSpec` entries.

Dynamic traits per benchmark are chosen from the algorithmic structure
(e.g. AES's table lookups hit L2 hard but diverge little; Blackscholes
streams five arrays with perfect coalescing and no reuse) so each benchmark
lands in the memory- vs compute-dominated regime the paper observed for it
(Fig. 5).  The *model never sees these traits* — they exist to make the
measured behaviour realistically richer than the static features.
"""

from __future__ import annotations

from ..gpusim.profile import DynamicTraits
from ..workloads import KernelSpec
from . import sources_compute as sc
from . import sources_memory as sm

#: Benchmark names in the paper's Table 2 order (sorted by coverage diff).
TEST_BENCHMARK_NAMES: tuple[str, ...] = (
    "PerlinNoise",
    "MD",
    "K-means",
    "MedianFilter",
    "Convolution",
    "Blackscholes",
    "MT",
    "Flte",
    "MatrixMultiply",
    "BitCompression",
    "AES",
    "k-NN",
)


def _specs() -> dict[str, KernelSpec]:
    return {
        "k-NN": KernelSpec(
            name="k-NN",
            source=sc.KNN_SOURCE,
            kernel_name="knn_distances",
            work_items=1 << 20,
            traits=DynamicTraits(
                cache_hit_rate=0.95,  # reference points shared by all work items: L2-resident
                coalescing=0.80,
                divergence=0.10,
                ilp=2.2,
                occupancy=0.85,
            ),
            bytes_per_access=4.0,
            category="compute",
        ),
        "MT": KernelSpec(
            name="MT",
            source=sm.MERSENNE_TWISTER_SOURCE,
            kernel_name="mt_update",
            work_items=1 << 22,
            traits=DynamicTraits(
                cache_hit_rate=0.05,  # state array streamed, no reuse
                coalescing=0.95,
                divergence=0.04,
                ilp=2.5,
                occupancy=0.95,
            ),
            bytes_per_access=16.0,
            category="memory",
        ),
        "Blackscholes": KernelSpec(
            name="Blackscholes",
            source=sm.BLACKSCHOLES_SOURCE,
            kernel_name="blackscholes",
            work_items=1 << 22,
            traits=DynamicTraits(
                cache_hit_rate=0.05,  # pure streaming of 7 arrays
                coalescing=1.00,
                divergence=0.0,
                ilp=2.8,
                occupancy=0.95,
            ),
            bytes_per_access=14.0,
            category="memory",
        ),
        "AES": KernelSpec(
            name="AES",
            source=sm.AES_SOURCE,
            kernel_name="aes_rounds",
            work_items=1 << 21,
            traits=DynamicTraits(
                cache_hit_rate=0.45,
                coalescing=0.70,  # table lookups scatter
                divergence=0.08,
                ilp=1.8,
                occupancy=0.70,
            ),
            bytes_per_access=4.0,
            category="mixed",
        ),
        "MatrixMultiply": KernelSpec(
            name="MatrixMultiply",
            source=sc.MATRIX_MULTIPLY_SOURCE,
            kernel_name="matmul_tiled",
            work_items=1 << 20,
            traits=DynamicTraits(
                cache_hit_rate=0.80,  # tiles give strong reuse
                coalescing=0.95,
                divergence=0.0,
                ilp=3.0,
                occupancy=0.75,
            ),
            bytes_per_access=4.0,
            category="compute",
        ),
        "Convolution": KernelSpec(
            name="Convolution",
            source=sc.CONVOLUTION_SOURCE,
            kernel_name="convolution7x7",
            work_items=1 << 21,
            traits=DynamicTraits(
                cache_hit_rate=0.80,  # 7x7 windows overlap heavily
                coalescing=0.90,
                divergence=0.12,  # border branches
                ilp=2.5,
                occupancy=0.90,
            ),
            bytes_per_access=4.0,
            category="mixed",
        ),
        "MedianFilter": KernelSpec(
            name="MedianFilter",
            source=sm.MEDIAN_FILTER_SOURCE,
            kernel_name="median3x3",
            work_items=1 << 21,
            traits=DynamicTraits(
                cache_hit_rate=0.65,  # 3x3 windows overlap
                coalescing=0.85,
                divergence=0.05,
                ilp=2.8,  # sorting network is wide
                occupancy=0.90,
            ),
            bytes_per_access=4.0,
            category="mixed",
        ),
        "BitCompression": KernelSpec(
            name="BitCompression",
            source=sm.BITCOMPRESSION_SOURCE,
            kernel_name="bit_compress",
            work_items=1 << 22,
            traits=DynamicTraits(
                cache_hit_rate=0.10,
                coalescing=0.90,
                divergence=0.02,
                ilp=2.0,
                occupancy=0.95,
            ),
            bytes_per_access=6.0,
            category="mixed",
        ),
        "MD": KernelSpec(
            name="MD",
            source=sc.MD_SOURCE,
            kernel_name="md_forces",
            work_items=1 << 19,
            traits=DynamicTraits(
                cache_hit_rate=0.88,  # neighbour positions stay in cache
                coalescing=0.80,
                divergence=0.06,
                ilp=2.4,
                occupancy=0.85,
            ),
            bytes_per_access=4.0,
            category="compute",
        ),
        "K-means": KernelSpec(
            name="K-means",
            source=sc.KMEANS_SOURCE,
            kernel_name="kmeans_assign",
            work_items=1 << 21,
            traits=DynamicTraits(
                cache_hit_rate=0.50,  # centroids resident, points streamed
                coalescing=0.90,
                divergence=0.08,
                ilp=2.2,
                occupancy=0.90,
            ),
            bytes_per_access=4.0,
            category="mixed",
        ),
        "PerlinNoise": KernelSpec(
            name="PerlinNoise",
            source=sc.PERLIN_NOISE_SOURCE,
            kernel_name="perlin_noise",
            work_items=1 << 21,
            traits=DynamicTraits(
                cache_hit_rate=0.50,  # single write stream
                coalescing=1.00,
                divergence=0.0,
                ilp=2.6,
                occupancy=0.95,
            ),
            bytes_per_access=4.0,
            category="compute",
        ),
        "Flte": KernelSpec(
            name="Flte",
            source=sm.FLTE_SOURCE,
            kernel_name="flte_filter",
            work_items=1 << 22,
            traits=DynamicTraits(
                cache_hit_rate=0.70,  # tap window overlaps between items
                coalescing=0.95,
                divergence=0.0,
                ilp=2.0,
                occupancy=0.95,
            ),
            bytes_per_access=4.0,
            category="mixed",
        ),
    }


_REGISTRY = _specs()


def test_benchmarks() -> list[KernelSpec]:
    """All twelve test benchmarks, in the paper's Table 2 order."""
    return [_REGISTRY[name] for name in TEST_BENCHMARK_NAMES]


# Its name starts with "test": modules importing it must not run it as one.
test_benchmarks.__test__ = False  # type: ignore[attr-defined]


def get_benchmark(name: str) -> KernelSpec:
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(TEST_BENCHMARK_NAMES)
        raise KeyError(f"unknown benchmark {name!r}; known: {known}") from None


#: The eight benchmarks shown in Fig. 5, in the figure's order.
FIG5_BENCHMARKS: tuple[str, ...] = (
    "k-NN",
    "AES",
    "MatrixMultiply",
    "Convolution",
    "MedianFilter",
    "BitCompression",
    "MT",
    "Blackscholes",
)

#: The two motivation benchmarks of Fig. 1.
FIG1_BENCHMARKS: tuple[str, ...] = ("k-NN", "MT")
