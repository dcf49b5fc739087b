"""A fixed reference kernel, for rescaling case times to one host speed.

The host this benchmark was built on runs the same code up to 1.5x slower
in spells that last from seconds to minutes (other tenants share its
cores), and process CPU time slows down with wall time, so neither clock
escapes it.  Each case is therefore timed between runs of this kernel in
the same process, with more runs inside a long case that runs in the
worker process (see ``workloads.CaseClock``), and its time is scaled by ``REFERENCE_S`` over
the median of those kernel times.

The kernel mixes the kinds of work simal does: interpreter loops over
lists and dicts, numpy sorts and ``unique``, and a scattered gather from
an array larger than the first-level data cache.  It shares no code with
simal, so no change to simal can move it.  Its arrays are small (about
1.8 MB, built without temporaries), because they count towards the peak
RSS of the worker that holds them."""

import time

import numpy as np

# About the kernel's usual time on the 2-core x86-64 host the baseline was
# measured on, so that rescaled times read close to that host's usual raw
# times.  It sets the scale of every rescaled time, and with it the
# ml-deep deadline (see workloads.ML_DEADLINE_S).
REFERENCE_S = 0.0075


class Reference:
    def __init__(self):
        # Scrambled by multiplicative hashing rather than numpy.random,
        # whose import alone would add megabytes to the peak RSS measured.
        # The moduli are powers of two, so the products may wrap.
        self._keys = np.arange(60_000, dtype=np.int64)
        self._keys *= 2654435761
        self._keys &= (1 << 40) - 1
        self._table = np.resize(
            ((np.arange(101) * 37) % 101).astype(np.int8), 1 << 19)
        self._index = np.arange(200_000, dtype=np.uint32)
        self._index *= 40503
        self._index &= (1 << 19) - 1

    def __call__(self):
        """Run the kernel once; returns its wall time in seconds."""
        start = time.perf_counter()
        parent = list(range(20_000))
        for i in range(1, 20_000):
            parent[i] = parent[(i * 7919) % i]
        seen = {}
        for i in range(15_000):
            seen[i % 977] = i
        np.sort(self._keys)
        np.unique(self._keys[:20_000])
        int(self._table[self._index].sum())
        return time.perf_counter() - start


def rescale(seconds, ref_s):
    """``seconds`` measured while the kernel took ``ref_s``, at reference speed."""
    return seconds * REFERENCE_S / ref_s
