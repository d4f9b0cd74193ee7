"""Binary model checkpoints: named float32 tensors plus a config snapshot.

Layout (format 6): magic 'FQCK' | u32 format version | u64 header length |
u32 CRC-32 of the header bytes | header JSON (sorted keys; the config
snapshot and a name -> crc32 table, crc32 the zlib CRC-32 of the tensor's
bytes) | payload of little-endian IEEE-754 float32 values.

The payload holds the tensors in sorted-name order, each shaped as
``parameter_shapes(config)`` gives it, so the config and the names fix
every tensor's shape and place. Only format 6 (one depth and head count for
all three stacks; format 5 stated them per stack) is read or written.

Round trips are bit-exact and save(load(save(m))) is byte-identical.
"""

from __future__ import annotations

import itertools
import json
import math
import struct
import zlib

import numpy as np

from fusionqa.config import config_from_dict, config_to_dict
from fusionqa.model import MultimodalTransformer, parameter_shapes
from fusionqa.tensor import Tensor

MAGIC = b"FQCK"
FORMAT_VERSION = 6
# magic, u32 version, u64 header length, u32 header CRC-32
_PREAMBLE = 20


def save_checkpoint(model: MultimodalTransformer, path):
    if model.dtype != np.float32:
        raise ValueError(f"checkpoints are float32, model is {model.dtype}")
    names = sorted(model.params)
    blobs = [np.ascontiguousarray(model.params[name].data, dtype="<f4").tobytes()
             for name in names]
    header = {
        "format_version": FORMAT_VERSION,
        "config": config_to_dict(model.config),
        "tensors": dict(zip(names, map(zlib.crc32, blobs))),
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        fh.write(struct.pack("<Q", len(header_bytes)))
        fh.write(struct.pack("<I", zlib.crc32(header_bytes)))
        fh.write(header_bytes)
        for blob in blobs:
            fh.write(blob)


def load_checkpoint(path) -> MultimodalTransformer:
    """Rebuild the model from its config snapshot; the header must name
    exactly the tensors that config implies.

    Any malformed file raises ValueError naming the file and the byte offset
    or header key at fault: the tensors must fill the payload exactly, and
    the header and each tensor's bytes must match their CRC-32s.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != MAGIC:
        raise ValueError(f"checkpoint {path}: bad magic {raw[:4]!r}")
    if len(raw) < 8:
        raise ValueError(f"checkpoint {path}: file is {len(raw)} bytes, too short for a format version")
    (version,) = struct.unpack_from("<I", raw, 4)
    if version != FORMAT_VERSION:
        raise ValueError(
            f"checkpoint {path}: format version {version} unsupported (expected {FORMAT_VERSION})"
        )
    if len(raw) < _PREAMBLE:
        raise ValueError(
            f"checkpoint {path}: file is {len(raw)} bytes, shorter than the {_PREAMBLE}-byte preamble"
        )
    (header_len,) = struct.unpack_from("<Q", raw, 8)
    header_end = _PREAMBLE + header_len
    if header_end > len(raw):
        raise ValueError(
            f"checkpoint {path}: header of {header_len} bytes at byte {_PREAMBLE} "
            f"runs past the end of the file at byte {len(raw)}"
        )
    header_bytes = raw[_PREAMBLE:header_end]
    (recorded,) = struct.unpack_from("<I", raw, 16)
    if (crc := zlib.crc32(header_bytes)) != recorded:
        raise ValueError(
            f"checkpoint {path}: header at bytes {_PREAMBLE}..{header_end} has CRC-32 {crc}, "
            f"the preamble records {recorded}"
        )
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError, JSONDecodeError
        raise ValueError(
            f"checkpoint {path}: header at byte {_PREAMBLE} is not UTF-8 JSON: {exc}"
        ) from None
    if not isinstance(header, dict):
        raise ValueError(f"checkpoint {path}: header is not a JSON object")
    for key in ("config", "tensors"):
        if key not in header:
            raise ValueError(f"checkpoint {path}: header has no {key!r} key")
    try:
        config = config_from_dict(header["config"])
    except ValueError as exc:
        raise ValueError(f"checkpoint {path}: {exc}") from None
    crcs = header["tensors"]
    if not isinstance(crcs, dict):
        raise ValueError(f"checkpoint {path}: header key 'tensors' is not an object")
    # the walk stops one name past the header's table, so a config implying
    # huge layer counts costs no more than the file it came in
    expected = dict(itertools.islice(parameter_shapes(config), len(crcs) + 1))
    if len(expected) > len(crcs):
        first = next(name for name in expected if name not in crcs)
        raise ValueError(
            f"checkpoint {path}: the config implies more than the {len(crcs)} tensors "
            f"the header names; the first missing is {first}"
        )

    unknown = sorted(set(crcs) - set(expected))
    if unknown:
        raise ValueError(f"checkpoint {path}: unknown tensor names {unknown}")
    missing = sorted(set(expected) - set(crcs))
    if missing:
        raise ValueError(f"checkpoint {path}: missing tensors {missing}")

    payload = raw[header_end:]
    size = 4 * sum(math.prod(shape) for shape in expected.values())
    if size != len(payload):
        raise ValueError(
            f"checkpoint {path}: tensors end at byte {header_end + size}, "
            f"the file at byte {len(raw)}"
        )

    params = {}
    end = 0
    for name in sorted(expected):
        start, end = end, end + 4 * math.prod(expected[name])
        data = payload[start:end]
        if (crc := zlib.crc32(data)) != crcs[name]:
            raise ValueError(
                f"checkpoint {path}: tensor {name} at bytes {header_end + start}..{header_end + end} "
                f"has CRC-32 {crc}, the header records {crcs[name]!r}"
            )
        arr = np.frombuffer(data, dtype="<f4").reshape(expected[name])
        params[name] = Tensor(arr.copy(), requires_grad=True, dtype=np.float32)
    return MultimodalTransformer(config, params)
