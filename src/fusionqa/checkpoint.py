"""Binary model checkpoints: named float32 tensors plus a config snapshot.

Layout (format 3): magic 'FQCK' | u32 format version | u64 header length |
u32 CRC-32 of the header bytes | header JSON (sorted keys; config snapshot
and a name -> {shape, offset, crc32} table; offsets in bytes into the
payload, crc32 the zlib CRC-32 of the tensor's bytes) | payload of
little-endian IEEE-754 float32 values.

Files are written in format 3. Older files still load: format 2 has the
same header but no header CRC (a 16-byte preamble); format 1 also has no
tensor CRC-32s, so a format-1 table that holds one is a changed version
field and is rejected, and its config snapshot holds a vision
``llrd_factor`` that nothing reads, which the loader drops.

Round trips are bit-exact and save(load(save(m))) is byte-identical.
"""

from __future__ import annotations

import json
import math
import struct
import zlib

import numpy as np

from fusionqa.config import config_from_dict, config_to_dict
from fusionqa.model import MultimodalTransformer, parameter_shapes
from fusionqa.tensor import Tensor

MAGIC = b"FQCK"
FORMAT_VERSION = 3
# magic, u32 version, u64 header length, and from format 3 a u32 header CRC-32
_PREAMBLE = {1: 16, 2: 16, 3: 20}


def save_checkpoint(model: MultimodalTransformer, path):
    if model.dtype != np.float32:
        raise ValueError(f"checkpoints are float32, model is {model.dtype}")
    names = sorted(model.params)
    table = {}
    offset = 0
    blobs = []
    for name in names:
        arr = np.ascontiguousarray(model.params[name].data, dtype="<f4")
        blobs.append(arr.tobytes())
        table[name] = {"shape": list(arr.shape), "offset": offset, "crc32": zlib.crc32(blobs[-1])}
        offset += len(blobs[-1])
    header = {
        "format_version": FORMAT_VERSION,
        "config": config_to_dict(model.config),
        "tensors": table,
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
    """Rebuild the model from its config snapshot; every tensor must match
    the shapes that config implies, and no unknown names are accepted.

    Any malformed file raises ValueError naming the file and the byte offset
    or header key at fault: the tensors must tile the payload exactly, with
    no overlap, gap or trailing byte; from format 2 each tensor's bytes must
    match its CRC-32, and from format 3 the header bytes must match theirs.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != MAGIC:
        raise ValueError(f"checkpoint {path}: bad magic {raw[:4]!r}")
    if len(raw) < 8:
        raise ValueError(f"checkpoint {path}: file is {len(raw)} bytes, too short for a format version")
    (version,) = struct.unpack_from("<I", raw, 4)
    if version not in _PREAMBLE:
        raise ValueError(
            f"checkpoint {path}: format version {version} unsupported (expected 1, 2 or {FORMAT_VERSION})"
        )
    preamble = _PREAMBLE[version]
    if len(raw) < preamble:
        raise ValueError(
            f"checkpoint {path}: file is {len(raw)} bytes, shorter than the {preamble}-byte preamble"
        )
    (header_len,) = struct.unpack_from("<Q", raw, 8)
    header_end = preamble + header_len
    if header_end > len(raw):
        raise ValueError(
            f"checkpoint {path}: header of {header_len} bytes at byte {preamble} "
            f"runs past the end of the file at byte {len(raw)}"
        )
    header_bytes = raw[preamble:header_end]
    if version >= 3:
        (recorded,) = struct.unpack_from("<I", raw, 16)
        if (crc := zlib.crc32(header_bytes)) != recorded:
            raise ValueError(
                f"checkpoint {path}: header at bytes {preamble}..{header_end} has CRC-32 {crc}, "
                f"the preamble records {recorded}"
            )
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError, JSONDecodeError
        raise ValueError(
            f"checkpoint {path}: header at byte {preamble} is not UTF-8 JSON: {exc}"
        ) from None
    if not isinstance(header, dict):
        raise ValueError(f"checkpoint {path}: header is not a JSON object")
    for key in ("config", "tensors"):
        if key not in header:
            raise ValueError(f"checkpoint {path}: header has no {key!r} key")
    # format 1 stored VisionConfig.llrd_factor, which nothing read
    vision = header["config"].get("vision") if isinstance(header["config"], dict) else None
    if version == 1 and isinstance(vision, dict):
        vision.pop("llrd_factor", None)
    try:
        config = config_from_dict(header["config"])
    except ValueError as exc:
        raise ValueError(f"checkpoint {path}: {exc}") from None
    expected = parameter_shapes(config)
    table = header["tensors"]
    if not isinstance(table, dict):
        raise ValueError(f"checkpoint {path}: header key 'tensors' is not an object")

    unknown = sorted(set(table) - set(expected))
    if unknown:
        raise ValueError(f"checkpoint {path}: unknown tensor names {unknown}")
    missing = sorted(set(expected) - set(table))
    if missing:
        raise ValueError(f"checkpoint {path}: missing tensors {missing}")

    spans = []
    for name, spec in table.items():
        spec = spec if isinstance(spec, dict) else {}
        if version == 1 and "crc32" in spec:
            raise ValueError(
                f"checkpoint {path}: tensor {name} has a crc32, which format 1 never "
                "wrote; the version field was changed"
            )
        shape, offset = spec.get("shape"), spec.get("offset")
        if not isinstance(shape, list) or tuple(shape) != expected[name]:
            raise ValueError(
                f"checkpoint {path}: tensor {name} has shape {shape}, "
                f"config implies {expected[name]}"
            )
        if not isinstance(offset, int) or isinstance(offset, bool) or offset < 0:
            raise ValueError(
                f"checkpoint {path}: tensor {name} has offset {offset!r}, "
                "expected a non-negative integer"
            )
        spans.append((offset, offset + 4 * math.prod(expected[name]), name))

    payload = raw[header_end:]
    covered, prev = 0, None
    for start, end, name in sorted(spans):
        if start < covered:
            raise ValueError(
                f"checkpoint {path}: tensor {name} at byte {header_end + start} "
                f"overlaps tensor {prev}, which ends at byte {header_end + covered}"
            )
        if start > covered:
            raise ValueError(
                f"checkpoint {path}: bytes {header_end + covered}..{header_end + start} "
                "belong to no tensor"
            )
        covered, prev = end, name
    if covered != len(payload):
        raise ValueError(
            f"checkpoint {path}: tensors end at byte {header_end + covered}, "
            f"the file at byte {len(raw)}"
        )

    params = {}
    for start, end, name in spans:
        data = payload[start:end]
        if version > 1 and (crc := zlib.crc32(data)) != table[name].get("crc32"):
            raise ValueError(
                f"checkpoint {path}: tensor {name} at bytes {header_end + start}..{header_end + end} "
                f"has CRC-32 {crc}, the header records {table[name].get('crc32')!r}"
            )
        arr = np.frombuffer(data, dtype="<f4").reshape(expected[name])
        params[name] = Tensor(arr.copy(), requires_grad=True, dtype=np.float32)
    return MultimodalTransformer(config, params)
