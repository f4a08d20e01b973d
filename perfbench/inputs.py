"""Seeded kernel inputs, built only from public ``repro.synthetic`` calls.

Every workload draws its kernels here from its ``--seed``; the same seed
gives byte-identical sources.  Mix kernels come from
``render_mix(MixRecipe(...))`` with seeded op counts and a unique name, so
their source text is unique.  Sizes are drawn per stratum (one kernel per
size band in every block of the sequence), so any prefix of a sequence has
the same size spread whatever the seed: the seed changes which kernels are
sent, not how large they are.
"""

from __future__ import annotations

import math
import random

from common import ROOT

#: Op classes a mix kernel draws from (every ``repro.synthetic`` pattern).
OP_CLASSES = (
    "int_add", "int_mul", "int_div", "int_bw", "float_add",
    "float_mul", "float_div", "sf", "gl_access", "loc_access",
)


class Kernel:
    """One request input: source text and optional kernel name."""

    __slots__ = ("source", "name")

    def __init__(self, source: str, name: str | None) -> None:
        self.source = source
        self.name = name


def mix_kernel(rng: random.Random, tag: str, total_ops: int) -> Kernel:
    """A unique mixed kernel carrying about ``total_ops`` operations."""
    from repro.synthetic import MixRecipe, render_mix

    classes = rng.sample(OP_CLASSES, rng.randint(2, 4))
    weights = [rng.random() + 0.2 for _ in classes]
    scale = total_ops / sum(weights)
    ops = {c: max(1, round(w * scale)) for c, w in zip(classes, weights)}
    recipe = MixRecipe(name=f"bench-{tag}", ops=ops)
    return Kernel(render_mix(recipe), recipe.name.replace("-", "_"))


def stratified_ops(rng: random.Random, lo: int, hi: int, strata: int) -> list[int]:
    """One log-uniform op count per size band, in seeded order."""
    edges = [math.log(lo) + (math.log(hi) - math.log(lo)) * i / strata for i in range(strata + 1)]
    counts = [round(math.exp(rng.uniform(edges[i], edges[i + 1]))) for i in range(strata)]
    rng.shuffle(counts)
    return counts


def real_kernels() -> list[Kernel]:
    """The twelve suite kernels and the repository's example kernels."""
    from repro.suite import test_benchmarks

    kernels = [Kernel(spec.source, spec.kernel_name) for spec in test_benchmarks()]
    for path in sorted((ROOT / "examples" / "kernels").glob("*.cl")):
        kernels.append(Kernel(path.read_text(), None))
    return kernels


def unique_kernels(seed: int, count: int) -> list[Kernel]:
    """Never-seen small mix kernels (4 to 96 ops) for the serve miss path."""
    rng = random.Random(f"serve-unique/{seed}")
    kernels: list[Kernel] = []
    block = 0
    while len(kernels) < count:
        kernels.extend(
            mix_kernel(rng, f"u{seed}-{block}-{i}", ops)
            for i, ops in enumerate(stratified_ops(rng, 4, 96, 8))
        )
        block += 1
    return kernels[:count]


def describe(kernels: list[Kernel], sample: int = 48) -> dict:
    """Kernel count plus byte and token size distributions.

    Tokens are counted with ``repro.clkernel.tokenize`` on an evenly spaced
    sample of at most ``sample`` kernels, so describing a large pool stays
    cheap; ``token_sample`` says how many were counted.
    """
    from common import distribution
    from repro.clkernel import tokenize

    sizes = [len(k.source.encode("utf-8")) for k in kernels]
    step = max(1, len(kernels) // sample)
    tokens = [len(tokenize(k.source)) for k in kernels[::step]]
    record = {
        "kernels": len(kernels),
        "unique_sources": len({k.source for k in kernels}),
        "bytes": distribution(sizes),
        "tokens": distribution(tokens),
        "token_sample": len(tokens),
    }
    return record
