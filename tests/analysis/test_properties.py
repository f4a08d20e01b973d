"""Property tests: extraction and lint read one analysis of the same kernel.

Kernels are of two kinds:

* synthetic mix bodies (the micro-benchmark patterns of
  :mod:`repro.synthetic`) wrapped in static loops of up to 1e9 trips, loops
  with unknown trip counts, if/else statements and ternaries.  Forty static
  loops of 1e9 trips overflow a float (1e360), so the strategy nests up to
  40 wrappers deep: twelve levels reach only 1e108, which a float holds;
* AUX-only bodies: ``barrier()``, empty statements and branches, and loops
  that ``break``, nested, whose conditions read a bare parameter.  They
  lower to ``branch``/``sync`` ops and no feature op at all.
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis import lint_source, registered_recipes, resolve_recipe
from repro.clkernel.errors import CLFrontendError
from repro.clkernel.ir import FEATURE_OPS
from repro.features.extractor import ExtractorConfig, FeatureExtractor
from repro.synthetic.patterns import KERNEL_TEMPLATE, KERNEL_TEMPLATE_LOCAL, PATTERNS

#: Lint error codes under which a kernel has no feature vector.
NO_VECTOR_CODES = {"frontend-error", "non-finite-weight"}

#: A kernel with nothing but ``body``: no load, store or index math.
AUX_ONLY_TEMPLATE = """\
__kernel void prop_aux(__global float* out, const int n) {{
{body}
}}
"""

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


def _if(then: str, otherwise: str | None) -> str:
    return f"if (n) {{ {then} }}" + (f" else {{ {otherwise} }}" if otherwise is not None else "")


aux_statement = st.recursive(
    st.sampled_from(["barrier(CLK_LOCAL_MEM_FENCE);", "barrier(CLK_GLOBAL_MEM_FENCE);", ";", "{ }"]),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3).map(lambda body: "{ " + " ".join(body) + " }"),
        st.tuples(inner, st.none() | inner).map(lambda arms: _if(*arms)),
        inner.map(lambda body: f"while (n) {{ {body} break; }}"),
        inner.map(lambda body: f"for (;;) {{ {body} if (n) {{ continue; }} break; }}"),
        inner.map(lambda body: f"do {{ {body} break; }} while (n);"),
    ),
    max_leaves=12,
)

#: Every kernel the properties range over: mix kernels and AUX-only kernels.
kernels = st.one_of(
    st.builds(render, mix_ops, st.lists(wrapper, max_size=40)),
    st.lists(aux_statement, max_size=6).map(
        lambda body: AUX_ONLY_TEMPLATE.format(body="\n".join(body))
    ),
)


@settings(deadline=None, max_examples=60)
@given(source=kernels)
@example(source=render({"float_add": 1}, [("loop", 10**9)] * 40))
# Every weighted count finite, their sum not: the +loops shares were nan.
@example(source=render({"gl_access": 4}, [("loop", 10)] + [("loop", 10**9)] * 34))
@example(source=render({"gl_access": 2}, [("loop", 10**9)] * 12))
@example(source=render({}, [("loop", 0), ("unknown", None), ("if", True), ("ternary", None)]))
@example(source=AUX_ONLY_TEMPLATE.format(body=""))
@example(
    source=AUX_ONLY_TEMPLATE.format(
        body="barrier(CLK_LOCAL_MEM_FENCE); if (n) { } else { ; } "
        "while (n) { break; } for (;;) { break; } do { break; } while (n);"
    )
)
def test_extraction_and_lint_agree(source):
    findings, _ = lint_source(source)
    errors = {f.finding.code for f in findings if f.severity == "error"}
    no_vector = bool(errors & NO_VECTOR_CODES)
    no_feature_ops = "no-feature-ops" in errors
    for extractor in EXTRACTORS:
        try:
            features = extractor.extract(source)
        except CLFrontendError:
            assert no_vector, (extractor.config.recipe, source)
            continue
        assert not no_vector, (extractor.config.recipe, source)
        assert len(features.values) == resolve_recipe(extractor.config.recipe).width
        assert all(math.isfinite(v) for v in features.values), (extractor.config.recipe, source)
        # The ten feature-op components are all zero exactly when lint
        # reports no feature ops; the paper's vector is then all zero.
        shares = features.values[: len(FEATURE_OPS)]
        assert all(v == 0.0 for v in shares) == no_feature_ops, (extractor.config.recipe, source)
        if no_feature_ops and extractor.config.recipe == "paper10":
            assert not any(features.values), source
