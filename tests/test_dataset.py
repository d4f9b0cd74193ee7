import hashlib
import io
import json
import os
import re
import struct
import subprocess
import sys
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fusionqa
from fusionqa.checkpoint import load_checkpoint, save_checkpoint
from fusionqa.dataset import load_dataset, write_dataset
from fusionqa.documents import Document, QaInstance, TableDoc
from fusionqa.images import Image, load_image_ppm, save_image_ppm
from fusionqa.metrics import metric_em, metric_f1, metric_retr_f1, normalize_answer
from fusionqa.model import MultimodalTransformer
from fusionqa.synthetic import SceneSpec, render_scene
from fusionqa.tensor import Rng

from conftest import make_tiny_config

# A format-1 checkpoint, written before format 2 existed by the format-1
# save_checkpoint from MultimodalTransformer.build(V1_CONFIG, Rng(7)).
V1_FIXTURE = os.path.join(os.path.dirname(__file__), "data", "tiny_v1.ckpt")
V1_CONFIG = make_tiny_config(16, d=4, heads=2, image_size=8, patch=4, max_len=8)


def _header(raw):
    """(header, header end) of checkpoint bytes in format 3 (20-byte
    preamble) or an older format (16 bytes)."""
    preamble = 20 if struct.unpack_from("<I", raw, 4)[0] >= 3 else 16
    (header_len,) = struct.unpack_from("<Q", raw, 8)
    return json.loads(raw[preamble:preamble + header_len].decode()), preamble + header_len


def _with_header(raw, header) -> bytes:
    """Format-3 checkpoint bytes with the header replaced and its CRC-32
    recomputed, so that the loader's later checks see the edit."""
    new = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return (raw[:8] + struct.pack("<Q", len(new)) + struct.pack("<I", zlib.crc32(new)) + new
            + raw[_header(raw)[1]:])


def _as_format2(raw) -> bytes:
    """Format-3 checkpoint bytes rewritten in format 2: no header CRC."""
    return raw[:4] + struct.pack("<I", 2) + raw[8:16] + raw[20:]


def _write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def _valid_record(qid="q1"):
    return {
        "qid": qid,
        "question": "what is the stone of balor?",
        "answers": ["opal"],
        "gold_ids": ["s"],
        "pool": [
            {"id": "s", "modality": "text", "text": "the stone of balor is opal",
             "label": "supporting"},
            {"id": "t", "modality": "table",
             "table": {"header": ["name", "stone"], "rows": [["rimek", "jade"]]},
             "label": "distractor"},
        ],
    }


class TestLoadDataset:
    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.jsonl"
        p.write_text("")
        assert load_dataset(p) == []

    def test_valid_instances_load(self, tmp_path):
        p = tmp_path / "data.jsonl"
        _write_jsonl(p, [_valid_record("a"), _valid_record("b")])
        instances = load_dataset(p)
        assert [i.qid for i in instances] == ["a", "b"]
        assert instances[0].pool[1].table.rows == [["rimek", "jade"]]

    def test_gold_id_not_in_pool_reports_line(self, tmp_path):
        rec = _valid_record()
        rec["gold_ids"] = ["nope"]
        p = tmp_path / "bad.jsonl"
        _write_jsonl(p, [_valid_record("ok"), rec])
        with pytest.raises(ValueError, match=r":2:.*nope"):
            load_dataset(p)

    def test_duplicate_doc_ids_rejected(self, tmp_path):
        rec = _valid_record()
        rec["pool"].append(dict(rec["pool"][0]))
        p = tmp_path / "dupe.jsonl"
        _write_jsonl(p, [rec])
        with pytest.raises(ValueError, match="duplicate"):
            load_dataset(p)

    def test_dangling_image_path_rejected(self, tmp_path):
        rec = _valid_record()
        rec["pool"].append({"id": "img", "modality": "image", "image": "missing.ppm"})
        p = tmp_path / "img.jsonl"
        _write_jsonl(p, [rec])
        with pytest.raises(ValueError, match="missing.ppm"):
            load_dataset(p)

    def test_image_paths_resolve_relative_to_file(self, tmp_path):
        save_image_ppm(render_scene(SceneSpec("red", "square", "top left")),
                       tmp_path / "pic.ppm")
        rec = _valid_record()
        rec["pool"].append({"id": "img", "modality": "image", "image": "pic.ppm"})
        rec["gold_ids"] = ["img"]
        p = tmp_path / "img.jsonl"
        _write_jsonl(p, [rec])
        inst = load_dataset(p)[0]
        img_doc = [d for d in inst.pool if d.modality == "image"][0]
        assert img_doc.image_path == str(tmp_path / "pic.ppm")

    def test_invalid_json_reports_line(self, tmp_path):
        p = tmp_path / "broken.jsonl"
        p.write_text(json.dumps(_valid_record()) + "\nnot json\n")
        with pytest.raises(ValueError, match=":2:"):
            load_dataset(p)

    def test_round_trip(self, tmp_path):
        instances = [QaInstance(
            qid="q", question="what?", answers=["opal"], gold_ids=["s"],
            pool=[Document(id="s", modality="text", text="x", label="supporting")],
        )]
        p = tmp_path / "rt.jsonl"
        write_dataset(instances, p)
        loaded = load_dataset(p)
        assert loaded[0].qid == "q"
        assert loaded[0].pool[0].text == "x"
        assert loaded[0].answers == ["opal"]

    @given(field=st.integers(0, 5))
    @settings(max_examples=20, deadline=None)
    def test_fuzz_mutated_records(self, field, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("fuzz")
        rec = _valid_record()
        if field == 0:
            rec["pool"][0]["modality"] = "audio"
        elif field == 1:
            del rec["pool"][0]["text"]
        elif field == 2:
            rec["pool"][1]["table"]["rows"] = [["only-one-cell"]]
        elif field == 3:
            rec["gold_ids"] = ["ghost"]
        elif field == 4:
            rec["pool"][1]["id"] = rec["pool"][0]["id"]
        p = tmp / "f.jsonl"
        _write_jsonl(p, [rec])
        if field == 5:
            assert load_dataset(p)[0].qid == "q1"
        else:
            with pytest.raises(ValueError):
                load_dataset(p)


def test_dataset_import_leaves_model_and_training_unloaded():
    # loading data must not pull in the training stack
    code = ("import sys, fusionqa.dataset; "
            "print(sorted(m for m in ('fusionqa.model', 'fusionqa.training') "
            "if m in sys.modules))")
    src = os.path.dirname(os.path.dirname(os.path.abspath(fusionqa.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.strip() == "[]"


class TestPpm:
    def test_round_trip(self, tmp_path):
        img = render_scene(SceneSpec("blue", "cross", "bottom left"))
        path = tmp_path / "img.ppm"
        save_image_ppm(img, path)
        loaded = load_image_ppm(path)
        np.testing.assert_allclose(loaded.pixels, img.pixels, atol=1 / 255)

    def test_all_white(self, tmp_path):
        path = tmp_path / "white.ppm"
        save_image_ppm(Image(np.ones((2, 2, 3), dtype=np.float32)), path)
        loaded = load_image_ppm(path)
        assert np.all(loaded.pixels == 1.0)

    def test_wrong_magic(self, tmp_path):
        p = tmp_path / "bad.ppm"
        p.write_bytes(b"P3\n2 2\n255\n" + b"\x00" * 12)
        with pytest.raises(ValueError, match="P6"):
            load_image_ppm(p)

    def test_wrong_maxval(self, tmp_path):
        p = tmp_path / "bad.ppm"
        p.write_bytes(b"P6\n2 2\n65535\n" + b"\x00" * 24)
        with pytest.raises(ValueError, match="maxval 255"):
            load_image_ppm(p)

    def test_truncated_payload_reports_offset(self, tmp_path):
        p = tmp_path / "short.ppm"
        p.write_bytes(b"P6\n2 2\n255\n" + b"\x00" * 5)
        with pytest.raises(ValueError, match="byte offset"):
            load_image_ppm(p)

    @pytest.mark.parametrize("header,field,offset", [
        (b"P6\nabc 3\n255\n", "width", 3),
        (b"P6\n2 0\n255\n", "height", 5),
        (b"P6\n2 3\n-255\n", "maxval", 7),
    ], ids=["width", "height", "maxval"])
    def test_bad_header_integer_names_file_and_offset(self, tmp_path, header, field, offset):
        p = tmp_path / "h.ppm"
        p.write_bytes(header + b"\x00" * 18)
        with pytest.raises(ValueError, match=rf"ppm {re.escape(str(p))}: {field} at byte offset "
                                             rf"{offset} is b'.*', not a positive integer"):
            load_image_ppm(p)

    def test_comment_in_header(self, tmp_path):
        p = tmp_path / "c.ppm"
        p.write_bytes(b"P6\n# a comment\n2 1\n255\n" + b"\xff" * 6)
        img = load_image_ppm(p)
        assert img.pixels.shape == (1, 2, 3)


class TestCheckpoint:
    def _model(self, tiny_vocab):
        return MultimodalTransformer.build(make_tiny_config(tiny_vocab.size), Rng(13))

    def test_bit_exact_round_trip(self, tmp_path, tiny_vocab):
        model = self._model(tiny_vocab)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        for name, p in model.params.items():
            np.testing.assert_array_equal(p.data, loaded.params[name].data)
        assert loaded.config == model.config

    def test_save_load_save_identical_bytes(self, tmp_path, tiny_vocab):
        model = self._model(tiny_vocab)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(model, p1)
        save_checkpoint(load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_tampered_shape_names_tensor(self, tmp_path, tiny_vocab):
        path = self._saved(tmp_path, tiny_vocab)
        self._edit_header(path, lambda h: h["tensors"]["cls_head.b1"].update(shape=[7]))
        with pytest.raises(ValueError, match="cls_head.b1"):
            load_checkpoint(path)

    def test_unknown_tensor_rejected(self, tmp_path, tiny_vocab):
        path = self._saved(tmp_path, tiny_vocab)
        self._edit_header(
            path, lambda h: h["tensors"].update({"rogue.weight": {"shape": [1], "offset": 0}}))
        with pytest.raises(ValueError, match="rogue.weight"):
            load_checkpoint(path)

    def _saved(self, tmp_path, tiny_vocab):
        path = tmp_path / "m.ckpt"
        save_checkpoint(self._model(tiny_vocab), path)
        return path

    @staticmethod
    def _edit_header(path, edit):
        """Apply ``edit`` to the saved header, recomputing its CRC-32; returns
        the new header end."""
        raw = path.read_bytes()
        header, _ = _header(raw)
        edit(header)
        rebuilt = _with_header(raw, header)
        path.write_bytes(rebuilt)
        return _header(rebuilt)[1]

    def test_short_file_names_size(self, tmp_path):
        p = tmp_path / "short.ckpt"
        p.write_bytes(b"FQCK" + b"\x01\x00\x00\x00\x00\x00")
        with pytest.raises(ValueError, match=r"short.ckpt: file is 10 bytes, shorter than the 16-byte"):
            load_checkpoint(p)

    def test_header_past_end_of_file(self, tmp_path, tiny_vocab):
        path = self._saved(tmp_path, tiny_vocab)
        raw = path.read_bytes()
        path.write_bytes(raw[:8] + (len(raw)).to_bytes(8, "little") + raw[16:])
        with pytest.raises(ValueError, match=rf"runs past the end of the file at byte {len(raw)}"):
            load_checkpoint(path)

    @pytest.mark.parametrize("delta", [4, -4])
    def test_payload_length_must_match_tensors(self, tmp_path, tiny_vocab, delta):
        path = self._saved(tmp_path, tiny_vocab)
        raw = path.read_bytes()
        path.write_bytes(raw + b"\x00" * delta if delta > 0 else raw[:delta])
        with pytest.raises(ValueError, match=rf"tensors end at byte {len(raw)}, "
                                             rf"the file at byte {len(raw) + delta}"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key", ["config", "tensors"])
    def test_missing_header_key(self, tmp_path, tiny_vocab, key):
        path = self._saved(tmp_path, tiny_vocab)
        self._edit_header(path, lambda h: h.pop(key))
        with pytest.raises(ValueError, match=rf"m.ckpt: header has no '{key}' key"):
            load_checkpoint(path)

    @pytest.mark.parametrize("edit,message", [
        (lambda c: c["lm"].update(bogus=1), r"unknown lm config fields \['bogus'\]"),
        (lambda c: c["lm"].update(n_heads=0),
         r"config field lm.n_heads must be an integer >= 1, got 0"),
        (lambda c: c["lm"].update(max_len="256"),
         r"config field lm.max_len must be an integer >= 1, got '256'"),
        (lambda c: c["lm"].update(dropout_rate=None),
         r"config field lm.dropout_rate must be a finite number"),
        (lambda c: c["lm"].update(dropout_rate=1.5),
         r"config field lm.dropout_rate must lie in \[0, 1\), got 1.5"),
        (lambda c: c["lm"].update(dropout_rate=1.0),
         r"config field lm.dropout_rate must lie in \[0, 1\), got 1.0"),
        (lambda c: c.update(head_dropout=-3.0),
         r"config field head_dropout must lie in \[0, 1\), got -3.0"),
    ], ids=["unknown", "zero_heads", "string_size", "null_rate", "rate_above_one",
            "rate_one", "negative_head_rate"])
    def test_malformed_config_field(self, tmp_path, tiny_vocab, edit, message):
        path = self._saved(tmp_path, tiny_vocab)
        self._edit_header(path, lambda h: edit(h["config"]))
        with pytest.raises(ValueError, match=r"m.ckpt: " + message):
            load_checkpoint(path)

    def test_negative_offset_names_tensor(self, tmp_path, tiny_vocab):
        path = self._saved(tmp_path, tiny_vocab)
        self._edit_header(path, lambda h: h["tensors"]["cls_head.b1"].update(offset=-4))
        with pytest.raises(ValueError, match=r"tensor cls_head.b1 has offset -4"):
            load_checkpoint(path)

    def test_overlapping_offsets_rejected(self, tmp_path, tiny_vocab):
        path = self._saved(tmp_path, tiny_vocab)
        header_end = self._edit_header(
            path, lambda h: h["tensors"]["cls_head.b2"].update(
                offset=h["tensors"]["cls_head.b1"]["offset"]))
        with pytest.raises(ValueError, match=rf"tensor cls_head.b\d at byte {header_end}\d* "
                                             r"overlaps tensor cls_head.b\d"):
            load_checkpoint(path)

    def test_gap_between_tensors_rejected(self, tmp_path, tiny_vocab):
        path = self._saved(tmp_path, tiny_vocab)

        def move_last(h):
            last = max(h["tensors"].values(), key=lambda spec: spec["offset"])
            last["offset"] += 4

        self._edit_header(path, move_last)
        path.write_bytes(path.read_bytes() + b"\x00" * 4)
        with pytest.raises(ValueError, match=r"m.ckpt: bytes \d+\.\.\d+ belong to no tensor") as err:
            load_checkpoint(path)
        start, end = map(int, re.search(r"(\d+)\.\.(\d+)", str(err.value)).groups())
        assert end - start == 4

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "junk.ckpt"
        p.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(p)

    def test_flipped_payload_byte_names_tensor(self, tmp_path, tiny_vocab):
        path = self._saved(tmp_path, tiny_vocab)
        raw = bytearray(path.read_bytes())
        header, header_end = _header(raw)
        start = header_end + header["tensors"]["cls_head.b1"]["offset"]
        raw[start + 2] ^= 0x40
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match=rf"m.ckpt: tensor cls_head.b1 at bytes {start}\.\."
                                             rf"{start + 4 * 32} has CRC-32 \d+, the header records "
                                             rf"{header['tensors']['cls_head.b1']['crc32']}"):
            load_checkpoint(path)

    def test_missing_crc_rejected(self, tmp_path, tiny_vocab):
        path = self._saved(tmp_path, tiny_vocab)
        self._edit_header(path, lambda h: h["tensors"]["cls_head.b2"].pop("crc32"))
        with pytest.raises(ValueError, match=r"tensor cls_head.b2 .* the header records None"):
            load_checkpoint(path)

    def test_unsupported_version(self, tmp_path, tiny_vocab):
        path = self._saved(tmp_path, tiny_vocab)
        raw = path.read_bytes()
        path.write_bytes(raw[:4] + struct.pack("<I", 4) + raw[8:])
        with pytest.raises(ValueError, match=r"format version 4 unsupported \(expected 1, 2 or 3\)"):
            load_checkpoint(path)

    def test_header_edit_fails_its_crc(self, tmp_path, tiny_vocab):
        path = self._saved(tmp_path, tiny_vocab)
        raw = path.read_bytes()
        path.write_bytes(raw.replace(b'"n_heads":2', b'"n_heads":4', 1))
        with pytest.raises(ValueError, match=r"m.ckpt: header at bytes 20\.\.\d+ has CRC-32 \d+, "
                                             r"the preamble records \d+"):
            load_checkpoint(path)

    def test_v2_file_loads_bit_exact(self, tmp_path, tiny_vocab):
        model = self._model(tiny_vocab)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        path.write_bytes(_as_format2(path.read_bytes()))
        loaded = load_checkpoint(path)
        assert loaded.config == model.config
        for name, p in model.params.items():
            assert loaded.params[name].data.tobytes() == p.data.tobytes()

    def test_format1_table_with_crc_rejected(self, tmp_path, tiny_vocab):
        # a format-2 file whose version field reads 1 would skip every CRC
        path = self._saved(tmp_path, tiny_vocab)
        raw = _as_format2(path.read_bytes())
        path.write_bytes(raw[:4] + struct.pack("<I", 1) + raw[8:])
        with pytest.raises(ValueError, match=r"m.ckpt: tensor \S+ has a crc32, which format 1 "
                                             r"never wrote"):
            load_checkpoint(path)

    def test_v2_rejects_vision_llrd_factor(self, tmp_path, tiny_vocab):
        path = self._saved(tmp_path, tiny_vocab)
        self._edit_header(path, lambda h: h["config"]["vision"].update(llrd_factor=0.5))
        with pytest.raises(ValueError, match=r"unknown vision config fields \['llrd_factor'\]"):
            load_checkpoint(path)

    def test_v1_file_loads_and_resaves_bit_exact(self, tmp_path):
        raw = open(V1_FIXTURE, "rb").read()
        assert struct.unpack_from("<I", raw, 4) == (1,) and b'"llrd_factor":0.5' in raw
        v1 = load_checkpoint(V1_FIXTURE)
        assert v1.config == V1_CONFIG
        digest = hashlib.blake2b(digest_size=16)
        for name in sorted(v1.params):
            digest.update(name.encode())
            digest.update(v1.params[name].data.tobytes())
        assert digest.hexdigest() == "e3051c43a985372f94054538afb9634d"

        path = tmp_path / "v3.ckpt"
        save_checkpoint(v1, path)
        assert struct.unpack_from("<I", path.read_bytes(), 4) == (3,)
        v3 = load_checkpoint(path)
        assert v3.config == v1.config
        assert sorted(v3.params) == sorted(v1.params)
        for name, p in v1.params.items():
            assert v3.params[name].data.tobytes() == p.data.tobytes()

    def test_base_profile_checkpoint_config(self, tmp_path):
        # shape table only; the base profile itself is too large to allocate here
        from fusionqa.config import config_from_dict, config_to_dict, model_profile

        cfg = model_profile("base", vocab_size=64)
        restored = config_from_dict(config_to_dict(cfg))
        assert restored == cfg
        assert restored.lm.hidden_size == 768
        assert restored.lm.n_enc_layers == restored.lm.n_dec_layers == 12


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    """(path, bytes, header end) of the v1 fixture saved in the current format."""
    path = tmp_path_factory.mktemp("fuzz") / "tiny.ckpt"
    save_checkpoint(load_checkpoint(V1_FIXTURE), path)
    raw = path.read_bytes()
    return path, raw, _header(raw)[1]


class TestCheckpointFuzz:
    """Mutated checkpoints either load or raise ValueError, never anything
    else; a changed payload byte always raises."""

    @given(st.data())
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_mutated_file_loads_or_raises_value_error(self, tiny_checkpoint, data):
        path, raw, header_end = tiny_checkpoint
        kind = data.draw(st.sampled_from(["truncate", "flip", "append", "digit"]))
        if kind == "truncate":
            mutated = raw[:data.draw(st.integers(0, len(raw) - 1))]
        elif kind == "append":
            mutated = raw + data.draw(st.binary(min_size=1, max_size=64))
        elif kind == "flip":
            mutated = bytearray(raw)
            mutated[data.draw(st.integers(0, len(raw) - 1))] ^= data.draw(st.integers(1, 255))
        else:
            digits = [i for i in range(20, header_end) if raw[i:i + 1].isdigit()]
            mutated = bytearray(raw)
            mutated[data.draw(st.sampled_from(digits))] = data.draw(st.sampled_from(b"0123456789"))
        mutated_path = path.with_name("mutated.ckpt")
        mutated_path.write_bytes(bytes(mutated))
        try:
            load_checkpoint(mutated_path)
        except ValueError as exc:
            assert str(exc).startswith(f"checkpoint {mutated_path}: ")

    @given(st.data())
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_payload_flip_raises(self, tiny_checkpoint, data):
        path, raw, header_end = tiny_checkpoint
        mutated = bytearray(raw)
        mutated[data.draw(st.integers(header_end, len(raw) - 1))] ^= data.draw(st.integers(1, 255))
        mutated_path = path.with_name("flipped.ckpt")
        mutated_path.write_bytes(bytes(mutated))
        with pytest.raises(ValueError, match=r"has CRC-32 \d+, the header records \d+"):
            load_checkpoint(mutated_path)

    @staticmethod
    def _loader_of(monkeypatch, path):
        """``load`` of checkpoint bytes from memory: the loader's ``open``
        serves them, so no file is written per mutation."""
        import fusionqa.checkpoint as checkpoint_module

        served = []
        monkeypatch.setattr(checkpoint_module, "open", lambda *args: io.BytesIO(served[-1]),
                            raising=False)

        def load(raw):
            served.append(raw)
            return load_checkpoint(path)

        return load

    def test_every_header_digit_edit_raises(self, tiny_checkpoint, monkeypatch):
        # every digit of the header replaced by each other digit in turn
        path, raw, header_end = tiny_checkpoint
        load = self._loader_of(monkeypatch, path)
        loaded = []
        for i in range(20, header_end):
            if not raw[i:i + 1].isdigit():
                continue
            for digit in b"0123456789":
                if digit == raw[i]:
                    continue
                try:
                    load(raw[:i] + bytes([digit]) + raw[i + 1:])
                    loaded.append((i, chr(digit)))
                except ValueError:
                    pass
        assert not loaded, f"{len(loaded)} one-digit header edits loaded, e.g. {loaded[:5]}"

    def test_every_preamble_byte_flip_raises(self, tiny_checkpoint, monkeypatch):
        path, raw, _ = tiny_checkpoint
        load = self._loader_of(monkeypatch, path)
        loaded = []
        for i in range(20):
            for mask in range(1, 256):
                try:
                    load(raw[:i] + bytes([raw[i] ^ mask]) + raw[i + 1:])
                    loaded.append((i, mask))
                except ValueError:
                    pass
        assert not loaded, f"{len(loaded)} preamble byte flips loaded, e.g. {loaded[:5]}"


class TestMetrics:
    def test_normalization_strips_punctuation_and_articles(self):
        assert normalize_answer("The Paris.") == "paris"

    def test_em_with_normalization(self):
        assert metric_em("Paris.", ["paris"]) == 1
        assert metric_em("london", ["paris"]) == 0

    def test_f1_partial_overlap(self):
        assert metric_f1("new york city", ["york city"]) == pytest.approx(0.8)

    def test_empty_prediction(self):
        assert metric_em("", ["x"]) == 0
        assert metric_f1("", ["x"]) == 0.0

    def test_f1_max_over_golds(self):
        assert metric_f1("paris", ["london", "paris"]) == 1.0

    def test_retr_f1_examples(self):
        assert metric_retr_f1({"a", "b"}, {"a"}) == pytest.approx(2 / 3)
        assert metric_retr_f1({"a", "b"}, {"a", "b"}) == 1.0
        assert metric_retr_f1({"x"}, {"a"}) == 0.0
        assert metric_retr_f1(set(), {"a"}) == 0.0

    def test_retr_f1_empty_gold_rejected(self):
        with pytest.raises(ValueError, match="gold"):
            metric_retr_f1({"a"}, set())

    @given(st.text(max_size=30), st.text(min_size=1, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_metrics_bounded(self, pred, gold):
        assert metric_em(pred, [gold]) in (0, 1)
        assert 0.0 <= metric_f1(pred, [gold]) <= 1.0
