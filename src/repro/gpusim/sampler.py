"""Power-sampling emulation (NVML samples board power at 62.5 Hz).

The paper (§4.1) computes per-kernel energy as "the average of sampled power
values times the execution time", and notes that the 62.5 Hz sampling rate
"may affect the accuracy of our power measurements if a benchmark runs for a
too short time"; applications are therefore "executed multiple times, to
make sure that the execution time is long enough".

This module reproduces that measurement pipeline: given a true average power
and a duration, it synthesizes the discrete sample stream an NVML poller
would observe, so short runs genuinely have fewer samples and noisier
averages — the same failure mode the paper engineered around.
"""

from __future__ import annotations

import numpy as np

#: NVML power-sampling frequency on the paper's platform.
NVML_SAMPLING_HZ = 62.5


class PowerSampler:
    """Synthesizes NVML-like sample streams from model power values."""

    def __init__(self, sampling_hz: float = NVML_SAMPLING_HZ) -> None:
        if sampling_hz <= 0:
            raise ValueError("sampling_hz must be positive")
        self.sampling_hz = sampling_hz

    def sample_count_array(self, duration_s: np.ndarray) -> np.ndarray:
        """Poller readings per window, for an ``(M,)`` vector of windows."""
        duration_s = np.asarray(duration_s, dtype=np.float64)
        return np.maximum(
            np.floor(duration_s * self.sampling_hz).astype(np.int64), 0
        )

    def repeats_for_min_samples_array(
        self, single_run_s: np.ndarray, min_samples: int = 20
    ) -> np.ndarray:
        """How many back-to-back runs give at least ``min_samples`` readings.

        One entry per single-run time of an ``(M,)`` vector.  Mirrors the
        paper's repeat-until-statistically-consistent protocol.
        """
        single_run_s = np.asarray(single_run_s, dtype=np.float64)
        if np.any(single_run_s <= 0):
            raise ValueError("single_run_s must be positive")
        needed_s = min_samples / self.sampling_hz
        return np.maximum(np.ceil(needed_s / single_run_s).astype(np.int64), 1)

    def mean_power_array(
        self,
        true_power_w: np.ndarray,
        n_samples: np.ndarray,
        jitter: np.ndarray,
        idle_power_w: float,
    ) -> np.ndarray:
        """Mean of each configuration's synthesized sample stream, vectorized.

        ``jitter`` is the ``(M, n_max)`` matrix from
        :meth:`MeasurementNoise.sample_jitter_matrix
        <repro.gpusim.noise.MeasurementNoise.sample_jitter_matrix>`; row
        ``i`` contributes only its first ``n_samples[i]`` entries.  A window
        too short for even one sample reports the last idle reading,
        ``idle_power_w`` — which is precisely why the paper repeats short
        kernels until the window is long enough.

        Rows are reduced **grouped by sample count**, never zero-padded:
        numpy's pairwise summation adds the ``n % 8`` tail elements after
        combining its unrolled accumulators, so padding a row to a longer
        length regroups the sum and changes the low bits.  Reducing an
        exact-width contiguous ``(k, n)`` block per distinct ``n`` runs the
        same pairwise reduction whatever else is in the batch, so a row's
        mean equals that configuration's batch-of-one mean bit for bit even
        when sample counts vary across the sweep.
        """
        true_power_w = np.asarray(true_power_w, dtype=np.float64)
        n_samples = np.asarray(n_samples, dtype=np.int64)
        means = np.full_like(true_power_w, idle_power_w)
        if jitter.ndim != 2 or jitter.shape[1] == 0:
            return means
        for n in np.unique(n_samples):
            n = int(n)
            if n <= 0:
                continue
            rows = np.flatnonzero(n_samples == n)
            # Fresh ufunc output → C-contiguous (k, n) block: each row
            # multiplies then means its n values in the same order as a
            # batch of one does.
            block = true_power_w[rows, None] * jitter[rows][:, :n]
            means[rows] = block.mean(axis=1)
        return means
