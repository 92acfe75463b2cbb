"""Machine-speed probe, so that timings survive a shared host.

The machine this benchmark was written on is a 2-core VM whose speed drifts
by 20% or more within minutes, as neighbours load the host. Timing the same
work against the same code then scatters far more than the changes a
benchmark must detect. `probe()` times a fixed piece of interpreter work
shaped like the hot path of the pipeline (dict-of-dict lookups and float
sums, as in perceptron scoring). Measured next to a unit of real work, it
tells how fast the machine ran at that moment; `scaled()` rescales a wall
time to the reference speed, the one at which the probe takes `REF_S`.
Programs change; the probe does not, so a faster program still shows as a
faster scaled time. Raw wall times are reported beside the scaled ones.
"""

import time

REF_S = 0.0005  # probe time at the reference speed

# Small enough to stay in cache, so the probe times the interpreter rather
# than how much of the cache the measured work evicted.
_ROWS = {f"f{i}": {f"c{j}": 0.5 + j for j in range(8)} for i in range(48)}
_KEYS = [f"f{(i * 7) % 64}" for i in range(64)]


def probe() -> float:
    """Seconds taken by the fixed probe work (about REF_S)."""
    start = time.perf_counter()
    scores: dict[str, float] = {}
    for _ in range(13):
        for key in _KEYS:
            row = _ROWS.get(key)
            if row:
                for cls, weight in row.items():
                    scores[cls] = scores.get(cls, 0.0) + weight
    return time.perf_counter() - start


def scaled(seconds: float, probe_s: float) -> float:
    """A wall time rescaled to the reference speed."""
    return seconds * REF_S / probe_s
