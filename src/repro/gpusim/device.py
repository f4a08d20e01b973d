"""GPU device descriptions: frequency menus and micro-architecture constants.

The paper's test platform is an NVIDIA GTX Titan X (Maxwell, CC 5.2) with
four tunable memory frequencies (405 / 810 / 3304 / 3505 MHz, labelled
L / l / h / H) and a default configuration of (core 1001 MHz, mem 3505 MHz).
Fig. 4 documents two NVML quirks we reproduce faithfully:

* for mem-l/h/H, core frequencies above 1202 MHz are *reported* as supported
  but silently clamp to 1202 MHz (the gray points of Fig. 4a);
* mem-L only supports six core frequencies, up to 405 MHz.

Menu cardinalities follow the paper: 6 (mem-L), 71 (mem-l), 50 real points
each for mem-h/H (whose reported menus extend to 1392 MHz), for a reported
total of 6 + 71 + 71 + 71 = 219 configurations — the paper's "219 possible
configurations".

A Tesla P100 description is included for the Fig. 4b comparison: a single
tunable memory frequency (715 MHz) and a fine-grained core menu.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

#: Core frequency above which Titan X silently clamps (Fig. 4a gray points).
TITAN_X_CORE_CLAMP_MHZ = 1202.0


def _spread(lo: float, hi: float, count: int) -> tuple[float, ...]:
    """Evenly spaced integer-MHz clock menu, inclusive of both endpoints."""
    return tuple(float(round(v)) for v in np.linspace(lo, hi, count))


def _snap(menu: tuple[float, ...], *targets: float) -> tuple[float, ...]:
    """Replace the nearest menu entries with exact target clocks.

    Real NVML menus contain the default application clock verbatim; our
    synthetic grids must too, so the default configuration is settable.
    """
    values = list(menu)
    for target in targets:
        nearest = min(range(len(values)), key=lambda i: abs(values[i] - target))
        values[nearest] = target
    return tuple(sorted(set(values)))


@dataclass(frozen=True)
class MemoryDomain:
    """One memory frequency and the core menu it supports.

    ``reported_core_mhz`` is what NVML advertises; ``core_clamp_mhz`` is the
    highest core frequency the hardware actually applies (higher requests
    clamp).  ``real_core_mhz`` is the distinct set of *effective* clocks.
    """

    mem_mhz: float
    label: str
    reported_core_mhz: tuple[float, ...]
    core_clamp_mhz: float = float("inf")

    @property
    def real_core_mhz(self) -> tuple[float, ...]:
        effective = sorted({min(f, self.core_clamp_mhz) for f in self.reported_core_mhz})
        return tuple(effective)

    def effective_core(self, requested_mhz: float) -> float:
        """The core clock actually applied for a request (clamping rule)."""
        return min(requested_mhz, self.core_clamp_mhz)


@dataclass(frozen=True)
class ArchParams:
    """Micro-architecture constants driving the performance/power models.

    Throughputs are operations per SM per cycle for each instruction class;
    they follow the Maxwell whitepaper ratios (128 CUDA cores/SM, 32 SFUs/SM,
    32 LD/ST units/SM).
    """

    num_sms: int = 24
    throughput: dict[str, float] = field(
        default_factory=lambda: {
            "int_add": 128.0,
            "int_mul": 32.0,
            "int_div": 8.0,
            "int_bw": 128.0,
            "float_add": 128.0,
            "float_mul": 128.0,
            "float_div": 16.0,
            "sf": 32.0,
            "loc_access": 32.0,
            "branch": 64.0,
            "sync": 1.0,
        }
    )
    #: DRAM bus width in bytes (384-bit on Titan X).
    bus_bytes: float = 48.0
    #: DRAM effective data rate multiplier and efficiency.
    dram_efficiency: float = 0.80
    #: L2 bandwidth in bytes per core-cycle (L2 is in the core clock domain).
    l2_bytes_per_cycle: float = 512.0
    #: Kernel launch overhead in seconds.
    launch_overhead_s: float = 6.0e-6


@dataclass(frozen=True)
class PowerParams:
    """Coefficients of the board power model (see :mod:`power_model`)."""

    #: Constant board power: fans, VRM losses, PCB (W).
    p_board_w: float = 20.0
    #: Core leakage coefficient: W at 1 V (scales with V², so the deep
    #: low-voltage states pay much less than the boost states).
    core_leakage_w_per_v: float = 34.0
    #: Core dynamic coefficient: W per (V^2 · GHz) at full compute activity.
    core_dynamic_w: float = 150.0
    #: Memory static power at the highest memory clock (W); scales with clock.
    mem_static_w: float = 24.0
    #: Memory dynamic coefficient: W per GHz of memory clock at full activity.
    mem_dynamic_w_per_ghz: float = 18.0
    #: Idle activity floor — pipelines are never fully quiescent mid-kernel.
    activity_floor: float = 0.10
    #: How strongly memory-pipe issue traffic toggles the core datapath
    #: (LSU, L2, schedulers keep switching while "waiting on DRAM").
    mem_issue_activity: float = 0.55


@dataclass(frozen=True)
class VoltageCurve:
    """Core V/f curve: flat near-threshold region, then superlinear rise.

    The flat region at low frequencies is what makes energy-per-task *rise*
    again as the core clock drops (static power integrates over longer
    runtime), producing the parabolic normalized-energy curves of Fig. 1.
    """

    v_min: float = 0.75
    v_max: float = 1.212
    flat_until_mhz: float = 540.0
    max_mhz: float = 1392.0
    quadratic_share: float = 0.60

    def voltage_array(self, core_mhz: np.ndarray) -> np.ndarray:
        """V(f) for an ``(M,)`` vector of core clocks, one numpy pass."""
        core_mhz = np.asarray(core_mhz, dtype=np.float64)
        span = self.max_mhz - self.flat_until_mhz
        x = np.minimum((core_mhz - self.flat_until_mhz) / span, 1.0)
        rise = self.v_max - self.v_min
        linear = (1.0 - self.quadratic_share) * x
        quad = self.quadratic_share * x * x
        return np.where(
            core_mhz <= self.flat_until_mhz,
            self.v_min,
            self.v_min + rise * (linear + quad),
        )


@dataclass(frozen=True)
class DeviceSpec:
    """Complete description of one GPU model."""

    name: str
    compute_capability: str
    domains: tuple[MemoryDomain, ...]
    default_core_mhz: float
    default_mem_mhz: float
    arch: ArchParams = field(default_factory=ArchParams)
    power: PowerParams = field(default_factory=PowerParams)
    vf_curve: VoltageCurve = field(default_factory=VoltageCurve)

    def domain(self, mem_mhz: float) -> MemoryDomain:
        for d in self.domains:
            if d.mem_mhz == mem_mhz:
                return d
        raise KeyError(f"{self.name} has no memory clock {mem_mhz} MHz")

    def domain_by_label(self, label: str) -> MemoryDomain:
        for d in self.domains:
            if d.label == label:
                return d
        raise KeyError(f"{self.name} has no memory domain labelled {label!r}")

    @property
    def mem_clocks_mhz(self) -> tuple[float, ...]:
        return tuple(d.mem_mhz for d in self.domains)

    @property
    def max_mem_mhz(self) -> float:
        return max(self.mem_clocks_mhz)

    def reported_configurations(self) -> list[tuple[float, float]]:
        """All (core, mem) pairs NVML would report as supported."""
        configs: list[tuple[float, float]] = []
        for d in self.domains:
            configs.extend((c, d.mem_mhz) for c in d.reported_core_mhz)
        return configs

    def real_configurations(self) -> list[tuple[float, float]]:
        """All *effective* (core, mem) pairs after the clamping rule."""
        configs: list[tuple[float, float]] = []
        for d in self.domains:
            configs.extend((c, d.mem_mhz) for c in d.real_core_mhz)
        return configs

    @property
    def default_config(self) -> tuple[float, float]:
        return (self.default_core_mhz, self.default_mem_mhz)


def make_titan_x() -> DeviceSpec:
    """NVIDIA GTX Titan X (Maxwell) with the paper's frequency menus."""
    mem_l_cores = _snap(_spread(135.0, TITAN_X_CORE_CLAMP_MHZ, 71), 1001.0)
    # mem-h/H: the real menu starts at ~513 MHz (which is why the paper
    # counts 50 usable points there against mem-l's 71 — §4.1) and 21
    # reported-but-clamped points extend to 1392 → 71 reported, 50 real;
    # reported total across domains = 6 + 71 + 71 + 71 = 219 (paper §1).
    high_real = _snap(_spread(513.0, TITAN_X_CORE_CLAMP_MHZ, 50), 1001.0)
    high_fake = _spread(1211.0, 1392.0, 21)
    high_menu = high_real + high_fake
    domains = (
        MemoryDomain(mem_mhz=405.0, label="L", reported_core_mhz=_spread(135.0, 405.0, 6)),
        MemoryDomain(
            mem_mhz=810.0,
            label="l",
            reported_core_mhz=mem_l_cores,
            core_clamp_mhz=TITAN_X_CORE_CLAMP_MHZ,
        ),
        MemoryDomain(
            mem_mhz=3304.0,
            label="h",
            reported_core_mhz=high_menu,
            core_clamp_mhz=TITAN_X_CORE_CLAMP_MHZ,
        ),
        MemoryDomain(
            mem_mhz=3505.0,
            label="H",
            reported_core_mhz=high_menu,
            core_clamp_mhz=TITAN_X_CORE_CLAMP_MHZ,
        ),
    )
    return DeviceSpec(
        name="NVIDIA GTX Titan X",
        compute_capability="5.2",
        domains=domains,
        default_core_mhz=1001.0,
        default_mem_mhz=3505.0,
    )


def make_tesla_p100() -> DeviceSpec:
    """Tesla P100: one tunable memory clock (715 MHz), fine core menu."""
    domains = (
        MemoryDomain(
            mem_mhz=715.0,
            label="M",
            reported_core_mhz=_spread(544.0, 1328.0, 64),
        ),
    )
    arch = ArchParams(
        num_sms=56,
        bus_bytes=512.0,  # HBM2: 4096-bit bus
        dram_efficiency=0.75,
    )
    return DeviceSpec(
        name="NVIDIA Tesla P100",
        compute_capability="6.0",
        domains=domains,
        default_core_mhz=1328.0,
        default_mem_mhz=715.0,
        arch=arch,
        vf_curve=VoltageCurve(
            v_min=0.80, v_max=1.126, flat_until_mhz=800.0, max_mhz=1480.0
        ),
    )


#: Registry used by the measurement backends, the serving layer and the CLI.
DEVICE_REGISTRY: dict[str, "DeviceSpec"] = {}

#: Short-name → full-name alias table (filled by :func:`register_device`).
DEVICE_ALIASES: dict[str, str] = {}


def _alias_slug(name: str) -> str:
    """Normalized alias form: lowercase, runs of non-alphanumerics → '-'."""
    return re.sub(r"[^a-z0-9]+", "-", name.lower()).strip("-")


def register_device(spec: DeviceSpec, aliases: tuple[str, ...] = ()) -> DeviceSpec:
    """Register a device under its full name plus normalized aliases.

    An alias slug already claimed by a *different* device raises
    :class:`ValueError` before anything is mutated — a silent overwrite
    would reroute every later ``resolve_device`` (and with it trace keys,
    model keys, fleet routing) to the wrong hardware without a trace.
    Re-registering the same device (same full name) stays idempotent.
    """
    slugs = [_alias_slug(spec.name)]
    for alias in aliases:
        slug = _alias_slug(alias)
        if slug not in slugs:
            slugs.append(slug)
    for slug in slugs:
        claimed = DEVICE_ALIASES.get(slug)
        if claimed is not None and claimed != spec.name:
            raise ValueError(
                f"alias {slug!r} is already registered for device "
                f"{claimed!r}; cannot claim it for {spec.name!r}"
            )
    DEVICE_REGISTRY[spec.name] = spec
    for slug in slugs:
        DEVICE_ALIASES[slug] = spec.name
    return spec


register_device(make_titan_x(), aliases=("titan-x", "gtx-titan-x", "titanx"))
register_device(make_tesla_p100(), aliases=("tesla-p100", "p100"))


def device_aliases(name: str) -> list[str]:
    """Every registered alias of a device (excluding its full-name slug)."""
    spec = resolve_device(name)
    canonical = _alias_slug(spec.name)
    return sorted(
        alias
        for alias, full in DEVICE_ALIASES.items()
        if full == spec.name and alias != canonical
    )


def device_slug(name: str) -> str:
    """Canonical filesystem/registry-safe slug of a device (alias-stable).

    Resolves ``name`` first, so every spelling of one device — full name,
    any alias — maps to the same slug (keys built from it can never split
    one device's artifacts across spellings).
    """
    return _alias_slug(resolve_device(name).name)


def get_device(name: str) -> DeviceSpec:
    """Fetch a registered device spec by full name."""
    try:
        return DEVICE_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(DEVICE_REGISTRY))
        raise KeyError(f"unknown device {name!r}; known: {known}") from None


def resolve_device(name: str) -> DeviceSpec:
    """Fetch a device by full name *or* alias (``titan-x``, ``tesla-p100``).

    Full names match exactly; anything else is normalized the same way
    aliases are, so ``Tesla P100`` and ``tesla_p100`` both resolve.
    """
    spec = DEVICE_REGISTRY.get(name)
    if spec is not None:
        return spec
    full = DEVICE_ALIASES.get(_alias_slug(name))
    if full is not None:
        return DEVICE_REGISTRY[full]
    known = sorted(DEVICE_REGISTRY)
    aliases = sorted(DEVICE_ALIASES)
    raise KeyError(
        f"unknown device {name!r}; known devices: {', '.join(known)} "
        f"(aliases: {', '.join(aliases)})"
    )
