import io
import json
import math
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
from fusionqa.model import MultimodalTransformer, parameter_shapes
from fusionqa.synthetic import SceneSpec, render_scene
from fusionqa.tensor import Rng

from conftest import make_tiny_config


def _header(raw):
    """(header, header end) of format-6 checkpoint bytes (20-byte preamble)."""
    (header_len,) = struct.unpack_from("<Q", raw, 8)
    return json.loads(raw[20:20 + header_len].decode()), 20 + header_len


def _with_header(raw, header) -> bytes:
    """Format-4 checkpoint bytes with the header replaced and its CRC-32
    recomputed, so that the loader's later checks see the edit."""
    new = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return (raw[:8] + struct.pack("<Q", len(new)) + struct.pack("<I", zlib.crc32(new)) + new
            + raw[_header(raw)[1]:])


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

    @pytest.mark.parametrize("doc", ["abc", ["x"], 5, None],
                             ids=["string", "list", "number", "null"])
    def test_non_object_document_reports_line(self, tmp_path, doc):
        rec = _valid_record()
        rec["pool"].append(doc)
        p = tmp_path / "bad.jsonl"
        _write_jsonl(p, [_valid_record("ok"), rec])
        with pytest.raises(ValueError, match=r"bad.jsonl:2: document record must be a JSON "
                                             rf"object, got {type(doc).__name__}$"):
            load_dataset(p)

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

    @given(field=st.integers(0, 14))
    @settings(max_examples=60, deadline=None)
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
        # wrong field types that would otherwise load
        elif field == 6:
            rec["question"] = 5
        elif field == 7:
            rec["qid"] = 7
        elif field == 8:
            rec["pool"][0]["text"] = 123
        elif field == 9:
            rec["pool"][1]["id"] = 1
        elif field == 10:
            rec["pool"][0]["snippet"] = 3
        elif field == 11:
            rec["answers"] = "opal"
        elif field == 12:
            rec["gold_ids"] = "s"
        elif field == 13:
            rec["pool"][1]["table"]["header"] = "ns"
        elif field == 14:
            rec["pool"][1]["table"]["rows"] = [["rimek", 5]]
        p = tmp / "f.jsonl"
        _write_jsonl(p, [rec])
        if field == 5:
            assert load_dataset(p)[0].qid == "q1"
        else:
            with pytest.raises(ValueError):
                load_dataset(p)


def test_dataset_import_leaves_model_and_training_unloaded():
    # loading data or the tokenizer must not pull in the model or training
    # stack (model imports tokenizer, so the reverse would be a cycle)
    code = ("import sys, fusionqa.dataset, fusionqa.tokenizer; "
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


@pytest.fixture(scope="module")
def valid_ppm(tmp_path_factory):
    """(path, bytes) of a small valid P6 file with a header comment."""
    path = tmp_path_factory.mktemp("ppm") / "valid.ppm"
    save_image_ppm(Image(Rng(3).uniform((3, 5, 3)).astype(np.float32)), path)
    raw = path.read_bytes()
    raw = raw[:3] + b"# made for fuzzing\n" + raw[3:]
    path.write_bytes(raw)
    load_image_ppm(path)
    return path, raw


class TestPpmFuzz:
    """Mutated PPM files either load or raise ValueError, never anything else."""

    @given(st.data())
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_mutated_file_loads_or_raises_value_error(self, valid_ppm, data):
        path, raw = valid_ppm
        kind = data.draw(st.sampled_from(["truncate", "flip", "digit"]))
        mutated = bytearray(raw)
        if kind == "truncate":
            mutated = raw[:data.draw(st.integers(0, len(raw) - 1))]
        elif kind == "flip":
            mutated[data.draw(st.integers(0, len(raw) - 1))] ^= data.draw(st.integers(1, 255))
        else:
            payload_start = len(raw) - 3 * 5 * 3
            digits = [i for i in range(payload_start) if raw[i:i + 1].isdigit()]
            mutated[data.draw(st.sampled_from(digits))] = data.draw(st.sampled_from(b"0123456789"))
        mutated_path = path.with_name("mutated.ppm")
        mutated_path.write_bytes(bytes(mutated))
        try:
            img = load_image_ppm(mutated_path)
        except ValueError as exc:
            assert str(exc).startswith(f"ppm {mutated_path}: ")
        else:
            assert img.pixels.dtype == np.float32 and img.pixels.shape[2] == 3


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

    def test_unknown_tensor_rejected(self, tmp_path, tiny_vocab):
        path = self._saved(tmp_path, tiny_vocab)
        self._edit_header(
            path, lambda h: h["tensors"].update({"rogue.weight": 0}))
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
        p.write_bytes(b"FQCK" + struct.pack("<I", 6) + b"\x00\x00")
        with pytest.raises(ValueError, match=r"short.ckpt: file is 10 bytes, shorter than the 20-byte"):
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
        (lambda c: c["lm"].update(dropout_rate=2**1024),
         r"config field lm.dropout_rate must lie in \[0, 1\), got 17976931"),
        (lambda c: c.update(dropout_rate=0.1), r"unknown config fields \['dropout_rate'\]"),
        (lambda c: c["vision"].update(image_size=33),
         r"vision image_size 33 is not a multiple of patch_size 8"),
    ], ids=["unknown", "zero_heads", "string_size", "null_rate", "rate_above_one",
            "rate_one", "huge_int_rate", "unknown_top_level", "image_not_patch_multiple"])
    def test_malformed_config_field(self, tmp_path, tiny_vocab, edit, message):
        path = self._saved(tmp_path, tiny_vocab)
        self._edit_header(path, lambda h: edit(h["config"]))
        with pytest.raises(ValueError, match=r"m.ckpt: " + message):
            load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "junk.ckpt"
        p.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(p)

    def test_flipped_payload_byte_names_tensor(self, tmp_path, tiny_vocab):
        path = self._saved(tmp_path, tiny_vocab)
        raw = bytearray(path.read_bytes())
        header, header_end = _header(raw)
        # the payload holds the tensors in sorted-name order
        shapes = dict(parameter_shapes(make_tiny_config(tiny_vocab.size)))
        start = header_end + sum(4 * math.prod(shapes[n]) for n in shapes if n < "cls_head.b1")
        raw[start + 2] ^= 0x40
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match=rf"m.ckpt: tensor cls_head.b1 at bytes {start}\.\."
                                             rf"{start + 4 * 32} has CRC-32 \d+, the header records "
                                             rf"{header['tensors']['cls_head.b1']}"):
            load_checkpoint(path)

    def test_missing_crc_rejected(self, tmp_path, tiny_vocab):
        path = self._saved(tmp_path, tiny_vocab)
        self._edit_header(path, lambda h: h["tensors"].update({"cls_head.b2": None}))
        with pytest.raises(ValueError, match=r"tensor cls_head.b2 .* the header records None"):
            load_checkpoint(path)

    def test_unsupported_version(self, tmp_path, tiny_vocab):
        # the formats 1 to 5 of earlier releases are rejected like any other
        path = self._saved(tmp_path, tiny_vocab)
        raw = path.read_bytes()
        for version in (1, 2, 3, 4, 5, 7):
            path.write_bytes(raw[:4] + struct.pack("<I", version) + raw[8:])
            with pytest.raises(ValueError, match=rf"m.ckpt: format version {version} "
                                                 r"unsupported \(expected 6\)"):
                load_checkpoint(path)

    def test_header_edit_fails_its_crc(self, tmp_path, tiny_vocab):
        path = self._saved(tmp_path, tiny_vocab)
        raw = path.read_bytes()
        path.write_bytes(raw.replace(b'"n_heads":2', b'"n_heads":4', 1))
        with pytest.raises(ValueError, match=r"m.ckpt: header at bytes 20\.\.\d+ has CRC-32 \d+, "
                                             r"the preamble records \d+"):
            load_checkpoint(path)

    def test_cli_exits_one_on_config_behind_valid_crc(self, tmp_path, tiny_vocab, capsys):
        # the header CRC is recomputed, so the config check itself must catch it
        from fusionqa.cli import main

        path = self._saved(tmp_path, tiny_vocab)
        self._edit_header(path, lambda h: h["config"]["vision"].update(image_size=20))
        tiny_vocab.save(tmp_path / "vocab.txt")
        rc = main(["answer", "--model", str(path), "--vocab", str(tmp_path / "vocab.txt"),
                   "--input", str(tmp_path / "in.jsonl"), "--output", str(tmp_path / "out.jsonl")])
        assert rc == 1
        assert (f"error: checkpoint {path}: vision image_size 20 is not a multiple of "
                "patch_size 8") in capsys.readouterr().err

    def test_huge_layer_count_rejected_within_the_header_table(self, tmp_path, tiny_vocab,
                                                              capsys, monkeypatch):
        # a config implying 10**7 layers per stack behind a recomputed header CRC:
        # the loader walks at most one shape past the header's tensor table
        import fusionqa.checkpoint as checkpoint_module
        from fusionqa.cli import main

        walked = []

        def counting(config):
            for item in parameter_shapes(config):
                walked.append(item)
                assert len(walked) < 10_000, "the loader walks the config's whole layout"
                yield item

        monkeypatch.setattr(checkpoint_module, "parameter_shapes", counting)
        path = self._saved(tmp_path, tiny_vocab)
        self._edit_header(path, lambda h: h["config"]["lm"].update(n_layers=10**7))
        n_tensors = len(_header(path.read_bytes())[0]["tensors"])
        message = (f"checkpoint {path}: the config implies more than the {n_tensors} tensors "
                   "the header names; the first missing is vision.layer1.attn.wq")
        with pytest.raises(ValueError) as exc:
            load_checkpoint(path)
        assert str(exc.value) == message
        assert len(walked) == n_tensors + 1
        tiny_vocab.save(tmp_path / "vocab.txt")
        rc = main(["answer", "--model", str(path), "--vocab", str(tmp_path / "vocab.txt"),
                   "--input", str(tmp_path / "in.jsonl"), "--output", str(tmp_path / "out.jsonl")])
        assert rc == 1
        assert f"error: {message}" in capsys.readouterr().err

    def test_base_profile_checkpoint_config(self, tmp_path):
        # shape table only; the base profile itself is too large to allocate here
        from fusionqa.config import config_from_dict, config_to_dict, model_profile

        cfg = model_profile("base", vocab_size=64)
        restored = config_from_dict(config_to_dict(cfg))
        assert restored == cfg
        assert restored.lm.hidden_size == 768
        assert restored.lm.n_layers == restored.lm.n_heads == 12


# JSON values of every kind, with integers past float range and small sizes
# that make the divisibility checks bite
_json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 70), st.integers(),
    st.integers(min_value=2**1024, max_value=2**1400), st.floats(), st.text(max_size=6),
)
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=6,
)


@st.composite
def _mutated_config(draw):
    """A saved config with a few fields changed, added or removed, or with
    the whole config replaced by any JSON value."""
    from fusionqa.config import config_to_dict

    d = config_to_dict(make_tiny_config(draw(st.integers(1, 600))))
    for _ in range(draw(st.integers(1, 4))):
        dicts = [x for x in (d, d.get("vision"), d.get("lm")) if isinstance(x, dict)] \
            if isinstance(d, dict) else []
        kind = draw(st.sampled_from(["set", "delete", "whole"]))
        if kind == "whole" or not dicts:
            d = draw(_json_values)
            continue
        target = draw(st.sampled_from(dicts))
        if kind == "delete" and target:
            del target[draw(st.sampled_from(sorted(target)))]
        else:
            # mostly the fields the loader knows, sometimes a stray one
            key = draw(st.sampled_from(sorted(target))) if target and draw(st.integers(0, 3)) \
                else draw(st.text(max_size=6))
            target[key] = draw(_json_scalars | _json_values)
    return d


class TestConfigFuzz:
    @given(_mutated_config())
    @settings(max_examples=400, deadline=None)
    def test_config_loads_valid_or_raises_value_error(self, d):
        from fusionqa.config import config_from_dict

        try:
            cfg = config_from_dict(d)
        except ValueError:
            return
        # what loads describes a model that can be built
        assert cfg.vision.image_size % cfg.vision.patch_size == 0
        assert cfg.lm.hidden_size % cfg.lm.n_heads == 0
        assert 0.0 <= cfg.lm.dropout_rate < 1.0


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    """(path, bytes, header end) of a very small model's checkpoint."""
    path = tmp_path_factory.mktemp("fuzz") / "tiny.ckpt"
    config = make_tiny_config(16, d=4, heads=2, image_size=8, patch=4, max_len=8)
    save_checkpoint(MultimodalTransformer.build(config, Rng(7)), path)
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
