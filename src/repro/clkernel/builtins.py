"""OpenCL builtin function classification.

The paper's feature vector has a dedicated component ``k_sf`` for "special
functions such as trigonometric ones".  This module classifies every builtin
the subset accepts into one of:

* ``special``  — mapped to the SFU (counts toward ``k_sf``);
* ``float``    — ordinary float ALU work (``fma``/``mad``/``min``… — counted
  as float add/mul per the expansion table);
* ``int``      — integer helpers;
* ``workitem`` — ``get_global_id`` and friends (free index arithmetic, not
  counted, as in the paper's LLVM pass where these lower to register reads);
* ``sync``     — barriers and fences (not counted);
* ``constructor`` — vector constructors such as ``float4(…)``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class BuiltinInfo:
    """Classification record for one builtin function."""

    name: str
    category: str
    #: Expansion in terms of (feature op, count) pairs, applied per call.
    #: Used for composite builtins, e.g. ``mad`` = one fmul + one fadd.
    expansion: tuple[tuple[str, int], ...] = ()


_SPECIAL = (
    "sin cos tan asin acos atan atan2 sinh cosh tanh exp exp2 exp10 log log2 "
    "log10 sqrt rsqrt cbrt pow powr pown rootn hypot erf erfc tgamma lgamma "
    "sinpi cospi tanpi half_sin half_cos half_exp half_log half_sqrt half_rsqrt "
    "half_powr native_sin native_cos native_tan native_exp native_exp2 "
    "native_exp10 native_log native_log2 native_log10 native_sqrt native_rsqrt "
    "native_powr native_recip native_divide"
).split()

_FLOAT_SIMPLE = (
    "fabs floor ceil round trunc rint fmin fmax fdim copysign sign "
    "degrees radians step smoothstep mix clamp min max fract modf "
    "fmod remainder ldexp frexp nextafter maxmag minmag"
).split()

_FLOAT_COMPOSITE: dict[str, tuple[tuple[str, int], ...]] = {
    "fma": (("float_mul", 1), ("float_add", 1)),
    "mad": (("float_mul", 1), ("float_add", 1)),
    "dot": (("float_mul", 4), ("float_add", 3)),
    "cross": (("float_mul", 6), ("float_add", 3)),
    "length": (("float_mul", 4), ("float_add", 3), ("sf", 1)),
    "fast_length": (("float_mul", 4), ("float_add", 3), ("sf", 1)),
    "distance": (("float_add", 4), ("float_mul", 4), ("sf", 1)),
    "normalize": (("float_mul", 4), ("float_add", 3), ("sf", 1), ("float_div", 4)),
    "fast_normalize": (("float_mul", 4), ("float_add", 3), ("sf", 1), ("float_div", 4)),
}

_INT_SIMPLE = (
    "abs abs_diff add_sat sub_sat mad_sat mad_hi mad24 mul24 mul_hi rotate "
    "clz popcount hadd rhadd upsample as_int as_uint as_float isgreater "
    "isless isequal convert_int convert_uint convert_float convert_float4 "
    "convert_int4 select bitselect any all"
).split()

_WORKITEM = (
    "get_global_id get_local_id get_group_id get_global_size get_local_size "
    "get_num_groups get_work_dim get_global_offset get_local_linear_id "
    "get_global_linear_id"
).split()

_SYNC = "barrier mem_fence read_mem_fence write_mem_fence work_group_barrier".split()

_CONSTRUCTORS = (
    "float2 float3 float4 float8 float16 int2 int3 int4 int8 int16 uint2 "
    "uint4 uchar4 double2 double4 vload4 vstore4"
).split()


def _build_table() -> dict[str, BuiltinInfo]:
    table: dict[str, BuiltinInfo] = {}
    for name in _SPECIAL:
        table[name] = BuiltinInfo(name, "special", (("sf", 1),))
    for name in _FLOAT_SIMPLE:
        table[name] = BuiltinInfo(name, "float", (("float_add", 1),))
    for name, expansion in _FLOAT_COMPOSITE.items():
        table[name] = BuiltinInfo(name, "float", expansion)
    for name in _INT_SIMPLE:
        table[name] = BuiltinInfo(name, "int", (("int_add", 1),))
    for name in _WORKITEM:
        table[name] = BuiltinInfo(name, "workitem")
    for name in _SYNC:
        table[name] = BuiltinInfo(name, "sync")
    for name in _CONSTRUCTORS:
        table[name] = BuiltinInfo(name, "constructor")
    return table


BUILTIN_TABLE: dict[str, BuiltinInfo] = _build_table()


def classify_builtin(name: str) -> BuiltinInfo | None:
    """Return classification for ``name`` or None if it is not a builtin."""
    return BUILTIN_TABLE.get(name)


def returns_float(name: str) -> bool:
    """Heuristic result-type query used by the lowering type inference."""
    info = BUILTIN_TABLE.get(name)
    if info is None:
        return False
    if info.category in ("special", "float"):
        return True
    if info.category == "constructor":
        return name.startswith(("float", "double", "vload", "vstore"))
    return False
