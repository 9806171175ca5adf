"""Color tables: small (pixelValue, R, G, B, A) dimension tables.

Semantic parity with the reference's generators
(``/root/reference/rios/rat.py:443-528``): rainbow = red->green->blue
linear blends split at numEntries//2; gray = black->white ramp; random
= seeded uniform bytes (the reference is unseeded — we seed for
determinism, which the reference's own test philosophy prefers).
Lookup (``apply_color_table``) is the broadcast ``take`` join of
SURVEY §2.4 J5: the table ships once, every batch gathers by pixel
value.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def _blend(lo: float, hi: float, n: int) -> np.ndarray:
    # numpy.mgrid[lo:hi:n*1j] equivalent: n evenly spaced incl. endpoints
    return np.linspace(lo, hi, n).astype(np.uint8)


def gen_color_table(num_entries: int, colortype: str, seed: int = 42) -> np.ndarray:
    """(num_entries, 4) uint8 RGBA array (reference rat.py:443-464).

    "rainbow"/"gray"/"random" keep the rat.py generator semantics; any
    other name resolves through the color-ramp registry
    (:mod:`rios_ray.colorramps` — the reference colortable.py
    colorbrewer set plus user ramps)."""
    ct = np.zeros((num_entries, 4), dtype=np.uint8)
    if colortype == "rainbow":
        mid = num_entries // 2
        ct[:mid, 0] = _blend(255, 0, mid)
        ct[:mid, 1] = _blend(0, 255, mid)
        ct[mid:, 1] = _blend(255, 0, num_entries - mid)
        ct[mid:, 2] = _blend(0, 255, num_entries - mid)
    elif colortype == "gray":
        g = _blend(0, 255, num_entries)
        ct[:, 0] = ct[:, 1] = ct[:, 2] = g
    elif colortype == "random":
        rng = np.random.default_rng(seed)
        ct[:, :3] = rng.integers(0, 256, size=(num_entries, 3), dtype=np.uint8)
    else:
        from .colorramps import gen_ramp_table

        return gen_ramp_table(num_entries, colortype, seed=seed)
    ct[:, 3] = 255
    return ct


def apply_color_table(batch: pa.Table, ct: np.ndarray,
                      value_col: str = "value") -> pa.Table:
    """Broadcast lookup: append RGBA columns by pixel value (J5 —
    reference rat.py:326-354 pattern; out-of-range values clip)."""
    v = np.clip(
        batch[value_col].to_numpy(zero_copy_only=False).astype(np.int64),
        0,
        len(ct) - 1,
    )
    rgba = ct[v]
    out = batch
    for i, name in enumerate(("red", "green", "blue", "alpha")):
        out = out.append_column(name, pa.array(rgba[:, i]))
    return out


def scale_color_float_to_byte(vals: np.ndarray) -> np.ndarray:
    """float 0-1 -> int 0-255 (reference rat.py:85-89 semantics)."""
    return (np.asarray(vals, dtype=np.float64) * 255).astype(np.uint8)


def scale_color_byte_to_float(vals: np.ndarray) -> np.ndarray:
    """int 0-255 -> float 0-1 (reference rat.py:243-252 semantics)."""
    return np.asarray(vals, dtype=np.float64) / 255.0
