"""Deterministic, vectorizable measurement noise.

Real DVFS measurements are noisy: run-to-run timing jitter, power-sensor
error, and — on the Titan X — distinctly *erratic* behaviour at the lowest
memory clock (§4.2: "The mem-L is even more erratic").  We reproduce this
with a fully deterministic noise source keyed by (device, kernel, core
clock, memory clock), so every experiment is reproducible bit-for-bit while
different configurations still get independent perturbations.

The generator is *counter-based* rather than stateful: each configuration's
draws come from hashing a per-sweep key (device, kernel, salt — one
blake2b call) together with the configuration's clock-pair bit patterns
through a splitmix64-style integer mixer, and mapping the resulting
uniforms through Box–Muller.  Every step is an elementwise numpy operation,
so an ``(M,)`` vector of configurations is perturbed in one vectorized pass
and — because elementwise ufuncs are length-independent — a configuration
draws the same bits in any batch, a batch of one included.  This is what lets
:meth:`GPUSimulator.sweep_batch <repro.gpusim.executor.GPUSimulator.sweep_batch>`
keep the simulator's noise semantics without a per-configuration Python
RNG.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

import numpy as np

#: splitmix64 finalizer constants (Steele et al., "Fast splittable PRNGs").
_MIX_MULT_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_MULT_2 = np.uint64(0x94D049BB133111EB)
#: Weyl-sequence increment (golden-ratio conjugate in 64 bits) and its
#: double (precomputed so no wrapping scalar arithmetic happens at runtime).
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_GOLDEN_2 = np.uint64((2 * 0x9E3779B97F4A7C15) % 2**64)
#: Stream constants separating the factor draws from the jitter draws.
_STREAM_TIME = np.uint64(0xA076_1D64_78BD_642F)
_STREAM_POWER = np.uint64(0xE703_7ED1_A0B4_28DB)
_STREAM_JITTER = np.uint64(0x8EBC_6AF0_9C88_C6E3)

_SHIFT_30 = np.uint64(30)
_SHIFT_27 = np.uint64(27)
_SHIFT_31 = np.uint64(31)
_SHIFT_11 = np.uint64(11)
#: 2**-53 — maps a 53-bit integer into [0, 1).
_U53 = float(2.0**-53)


def _stable_seed(*parts: object) -> int:
    """64-bit seed from a stable hash of the key parts (not PYTHONHASHSEED)."""
    payload = "\x1f".join(str(p) for p in parts).encode("utf-8")
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return struct.unpack("<Q", digest)[0]


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, elementwise over uint64 arrays (wrapping)."""
    x = (x ^ (x >> _SHIFT_30)) * _MIX_MULT_1
    x = (x ^ (x >> _SHIFT_27)) * _MIX_MULT_2
    return x ^ (x >> _SHIFT_31)


def _uniforms(keys: np.ndarray) -> np.ndarray:
    """Map mixed uint64 keys to float64 uniforms in (0, 1]."""
    return ((keys >> _SHIFT_11).astype(np.float64) + 1.0) * _U53


def _standard_normals(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two independent standard-normal arrays per key (Box–Muller).

    Elementwise only — ``exp``/``log``/``sqrt``/``cos``/``sin`` produce the
    same bits for a length-1 array as for any batch, which the
    row-independence tests rely on.
    """
    u1 = _uniforms(_mix64(keys + _GOLDEN))
    u2 = _uniforms(_mix64(keys + _GOLDEN_2))
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = (2.0 * np.pi) * u2
    return radius * np.cos(angle), radius * np.sin(angle)


def _config_keys(base: np.uint64, core_mhz: np.ndarray, mem_mhz: np.ndarray) -> np.ndarray:
    """Per-configuration uint64 keys from the clock-pair bit patterns."""
    core_bits = np.ascontiguousarray(core_mhz, dtype=np.float64).view(np.uint64)
    mem_bits = np.ascontiguousarray(mem_mhz, dtype=np.float64).view(np.uint64)
    return _mix64(_mix64(core_bits + base) ^ (mem_bits + _GOLDEN))


@dataclass(frozen=True)
class NoiseConfig:
    """Relative noise magnitudes.

    ``time_sigma`` / ``power_sigma`` are lognormal sigmas for run-to-run
    jitter.  The two low memory P-states get scaled-up jitter — strongly for
    mem-L (relative clock < 0.18) and mildly for mem-l (< 0.30) — modelling
    the erratic behaviour the paper reports for the low memory frequencies
    (§4.2: "The mem-L is even more erratic").
    """

    time_sigma: float = 0.010
    power_sigma: float = 0.018
    mem_l_extra: float = 4.5
    mem_low_extra: float = 1.8
    enabled: bool = True
    sample_sigma: float = 0.004


class MeasurementNoise:
    """Deterministic multiplicative noise for time and power readings."""

    def __init__(self, config: NoiseConfig | None = None, salt: str = "") -> None:
        self.config = config or NoiseConfig()
        self.salt = salt

    def _base_key(self, device: str, kernel: str) -> np.uint64:
        return np.uint64(_stable_seed(self.salt, device, kernel))

    def _sigma_scale(self, mem_relative: np.ndarray) -> np.ndarray:
        scale = np.ones_like(mem_relative)
        scale = np.where(mem_relative < 0.30, self.config.mem_low_extra, scale)
        return np.where(mem_relative < 0.18, self.config.mem_l_extra, scale)

    def factors_array(
        self,
        device: str,
        kernel: str,
        core_mhz: np.ndarray,
        mem_mhz: np.ndarray,
        mem_relative: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """(time factors, power factors) for an ``(M,)`` configuration vector.

        Both factors are lognormal with mean ≈ 1.  Configurations in the
        low-memory regime get ``mem_l_extra`` times the sigma.  One numpy
        pass; no per-configuration Python work.
        """
        core_mhz = np.asarray(core_mhz, dtype=np.float64)
        if not self.config.enabled:
            ones = np.ones_like(core_mhz)
            return (ones, ones.copy())
        mem_mhz = np.asarray(mem_mhz, dtype=np.float64)
        mem_relative = np.asarray(mem_relative, dtype=np.float64)
        keys = _config_keys(self._base_key(device, kernel), core_mhz, mem_mhz)
        z_time, _ = _standard_normals(_mix64(keys ^ _STREAM_TIME))
        z_power, _ = _standard_normals(_mix64(keys ^ _STREAM_POWER))
        scale = self._sigma_scale(mem_relative)
        time_factors = np.exp((self.config.time_sigma * scale) * z_time)
        power_factors = np.exp((self.config.power_sigma * scale) * z_power)
        return (time_factors, power_factors)

    def sample_jitter_matrix(
        self,
        device: str,
        kernel: str,
        core_mhz: np.ndarray,
        mem_mhz: np.ndarray,
        n_samples: np.ndarray,
    ) -> np.ndarray:
        """Per-sample power-sensor jitter for every configuration at once.

        Returns an ``(M, max(n_samples))`` matrix whose row ``i`` holds the
        jitter stream of configuration ``i``; entries beyond ``n_samples[i]``
        are 1.0 (unused by the masked trace averaging).  Row contents depend
        only on the row's configuration, never on the batch, so row ``i``
        equals the single row of that configuration's batch of one.
        """
        core_mhz = np.asarray(core_mhz, dtype=np.float64)
        mem_mhz = np.asarray(mem_mhz, dtype=np.float64)
        n_samples = np.asarray(n_samples, dtype=np.int64)
        n_max = int(n_samples.max()) if n_samples.size else 0
        if not self.config.enabled or n_max <= 0:
            return np.ones((core_mhz.size, max(n_max, 0)))
        keys = _config_keys(self._base_key(device, kernel), core_mhz, mem_mhz)
        sample_keys = (
            _mix64(keys ^ _STREAM_JITTER)[:, None]
            + _GOLDEN * np.arange(1, n_max + 1, dtype=np.uint64)[None, :]
        )
        z, _ = _standard_normals(_mix64(sample_keys))
        jitter = np.exp(self.config.sample_sigma * z)
        mask = np.arange(n_max)[None, :] < n_samples[:, None]
        return np.where(mask, jitter, 1.0)
