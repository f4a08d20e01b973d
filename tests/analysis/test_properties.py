"""Property tests: extraction and lint read one analysis of the same kernel.

Kernels are synthetic mix bodies (the micro-benchmark patterns of
:mod:`repro.synthetic`) wrapped in static loops of up to 1e9 trips, loops
with unknown trip counts, if/else statements and ternaries.  Forty static
loops of 1e9 trips overflow a float (1e360), so the strategy nests up to
40 wrappers deep: twelve levels reach only 1e108, which a float holds.
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis import lint_source, registered_recipes, resolve_recipe
from repro.clkernel.errors import CLFrontendError
from repro.features.extractor import ExtractorConfig, FeatureExtractor
from repro.synthetic.patterns import KERNEL_TEMPLATE, KERNEL_TEMPLATE_LOCAL, PATTERNS

#: Lint error codes under which a kernel has no feature vector.
NO_VECTOR_CODES = {"frontend-error", "non-finite-weight"}

EXTRACTORS = [FeatureExtractor(ExtractorConfig(recipe=name)) for name in registered_recipes()]

mix_ops = st.dictionaries(
    st.sampled_from([p.stressed_feature for p in PATTERNS]), st.integers(0, 4), max_size=4
)
wrapper = st.one_of(
    st.tuples(st.just("loop"), st.one_of(st.just(10**9), st.integers(0, 10**9))),
    st.tuples(st.just("unknown"), st.none()),
    st.tuples(st.just("if"), st.booleans()),
    st.tuples(st.just("ternary"), st.none()),
)


def render(ops: dict[str, int], wrappers: list[tuple[str, object]]) -> str:
    """One kernel: the mix body of ``ops`` inside ``wrappers``, innermost first."""
    body = "\n".join(p.body(ops[p.stressed_feature]) for p in PATTERNS if ops.get(p.stressed_feature))
    for depth, (kind, arg) in enumerate(wrappers):
        if kind == "loop":
            body = f"for (int i{depth} = 0; i{depth} < {arg}; i{depth}++) {{\n{body}\n}}"
        elif kind == "unknown":
            body = f"for (int i{depth} = 0; i{depth} < n; i{depth}++) {{\n{body}\n}}"
        elif kind == "if":
            otherwise = " else { fa = fa - 1.0f; }" if arg else ""
            body = f"if (ia > {depth}) {{\n{body}\n}}{otherwise}"
        else:
            body = f"fa = (ia > {depth}) ? fa * 2.0f : fa + 1.0f;\n{body}"
    local = ops.get("loc_access", 0) > 0
    template = KERNEL_TEMPLATE_LOCAL if local else KERNEL_TEMPLATE
    return template.format(name="prop", body=body)


@settings(deadline=None, max_examples=60)
@given(ops=mix_ops, wrappers=st.lists(wrapper, max_size=40))
@example(ops={"float_add": 1}, wrappers=[("loop", 10**9)] * 40)
# Every weighted count finite, their sum not: the +loops shares were nan.
@example(ops={"gl_access": 4}, wrappers=[("loop", 10)] + [("loop", 10**9)] * 34)
@example(ops={"gl_access": 2}, wrappers=[("loop", 10**9)] * 12)
@example(ops={}, wrappers=[("loop", 0), ("unknown", None), ("if", True), ("ternary", None)])
def test_extraction_and_lint_agree(ops, wrappers):
    source = render(ops, wrappers)
    findings, _ = lint_source(source)
    no_vector = any(
        f.severity == "error" and f.finding.code in NO_VECTOR_CODES for f in findings
    )
    for extractor in EXTRACTORS:
        try:
            features = extractor.extract(source)
        except CLFrontendError:
            assert no_vector, (extractor.config.recipe, source)
            continue
        assert not no_vector, (extractor.config.recipe, source)
        assert len(features.values) == resolve_recipe(extractor.config.recipe).width
        assert all(math.isfinite(v) for v in features.values), (extractor.config.recipe, source)
