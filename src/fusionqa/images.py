"""Image container plus binary PPM (P6) reading and writing.

PPM is the one image format here: trivially bit-exact and dependency-free.
Pixels are stored channel-last as float32 in [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class Image:
    """Read-only pixels plus the frozen vision encoder's rows for them.

    ``_rows`` maps a vision-weights key to the encoder output for these
    pixels; ``vision.image_rows`` fills and reads it. The pixels are made
    read-only because those rows are a function of them.
    """

    pixels: np.ndarray  # (H, W, 3) float32 in [0, 1]
    _rows: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        px = np.asarray(self.pixels, dtype=np.float32)
        if px.ndim != 3 or px.shape[2] != 3:
            raise ValueError(f"image pixels must be (H, W, 3), got {px.shape}")
        px.flags.writeable = False
        self.pixels = px

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


def _read_ppm_int(path, buf: bytes, pos: int, what: str) -> tuple[int, int]:
    """The header field (width, height or maxval) at ``pos``, a positive
    decimal integer; returns it and the position after it."""
    # skip whitespace and '#' comment lines between header tokens
    n = len(buf)
    while pos < n:
        c = buf[pos:pos + 1]
        if c == b"#":
            while pos < n and buf[pos:pos + 1] != b"\n":
                pos += 1
        elif c.isspace():
            pos += 1
        else:
            break
    start = pos
    while pos < n and not buf[pos:pos + 1].isspace():
        pos += 1
    if start == pos:
        raise ValueError(f"ppm {path}: truncated header at byte offset {start}")
    tok = buf[start:pos]
    if not tok.isdigit() or int(tok) == 0:
        raise ValueError(
            f"ppm {path}: {what} at byte offset {start} is {tok[:16]!r}, not a positive integer"
        )
    return int(tok), pos


def load_image_ppm(path) -> Image:
    """Parse a binary P6 PPM with maxval 255 into a normalized Image."""
    with open(path, "rb") as fh:
        buf = fh.read()
    if buf[:2] != b"P6":
        raise ValueError(f"ppm {path}: expected magic 'P6', got {buf[:2]!r}")
    pos = 2
    width, pos = _read_ppm_int(path, buf, pos, "width")
    height, pos = _read_ppm_int(path, buf, pos, "height")
    maxval, pos = _read_ppm_int(path, buf, pos, "maxval")
    if maxval != 255:
        raise ValueError(f"ppm {path}: only maxval 255 supported, got {maxval}")
    pos += 1  # single whitespace byte after maxval
    need = width * height * 3
    payload = buf[pos:pos + need]
    if len(payload) != need:
        raise ValueError(
            f"ppm {path}: truncated payload at byte offset {pos + len(payload)} "
            f"(need {need} bytes, have {len(payload)})"
        )
    arr = np.frombuffer(payload, dtype=np.uint8).reshape(height, width, 3)
    return Image(arr.astype(np.float32) / 255.0)


def save_image_ppm(img: Image, path):
    """Write a binary P6 PPM; inverse of load_image_ppm up to quantization."""
    arr = np.clip(np.rint(img.pixels * 255.0), 0, 255).astype(np.uint8)
    h, w = arr.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode())
        fh.write(arr.tobytes())
