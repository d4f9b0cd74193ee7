import hashlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fusionqa.documents import Document, TableDoc
from fusionqa.synthetic import generate_corpora
from fusionqa.tokenizer import (
    CLS_ID,
    EOS_ID,
    IMG_ID,
    N_SPECIALS,
    PAD_ID,
    UNK_ID,
    TokenSequence,
    Vocab,
    _normalize_ws,
    _pretokenize,
    assemble_qa_input,
    assemble_reranker_input,
    pad_sequences,
    serialize_table,
)


def reference_build(corpus, target_size):
    """The tokens of ``Vocab.build`` computed the direct way: every pair
    counted over every chunk, and every chunk rewritten, once per merge."""
    chunk_counts = Counter()
    for line in corpus:
        for chunk in _pretokenize(line):
            chunk_counts[chunk] += 1
    if not chunk_counts:
        raise ValueError("cannot build a vocabulary from an empty corpus")
    alphabet = sorted({b for chunk in chunk_counts for b in chunk})
    if target_size < N_SPECIALS + len(alphabet):
        raise ValueError("target_size below reserved + alphabet size")
    tokens = [bytes([b]) for b in alphabet]
    known = set(tokens)
    pieces = {chunk: tuple(bytes([b]) for b in chunk) for chunk in chunk_counts}
    while N_SPECIALS + len(tokens) < target_size:
        pair_counts = Counter()
        for chunk, parts in pieces.items():
            for a, b in zip(parts, parts[1:]):
                pair_counts[(a, b)] += chunk_counts[chunk]
        if not pair_counts:
            break
        best = min(pair_counts, key=lambda p: (-pair_counts[p], p))
        merged = best[0] + best[1]
        if merged not in known:
            tokens.append(merged)
            known.add(merged)
        new_pieces = {}
        for chunk, parts in pieces.items():
            out = []
            i = 0
            while i < len(parts):
                if i + 1 < len(parts) and (parts[i], parts[i + 1]) == best:
                    out.append(merged)
                    i += 2
                else:
                    out.append(parts[i])
                    i += 1
            new_pieces[chunk] = tuple(out)
        pieces = new_pieces
    return tokens


def reference_token_ids(vocab, text):
    """``Vocab.token_ids`` computed the direct way: at each position every
    length from the longest token's down to one is tried."""
    lookup = {tok: N_SPECIALS + i for i, tok in enumerate(vocab.tokens)}
    max_len = max((len(t) for t in vocab.tokens), default=1)
    data = _normalize_ws(text).encode("utf-8")
    ids = []
    pos = 0
    while pos < len(data):
        for length in range(min(max_len, len(data) - pos), 0, -1):
            tid = lookup.get(data[pos:pos + length])
            if tid is not None:
                ids.append(tid)
                pos += length
                break
        else:
            ids.append(UNK_ID)
            pos += 1
    return ids


# the seed-0 desk world's vocab.txt (150 entities, target 1400), as the
# direct builder wrote it
DESK_SEED0_VOCAB_SHA256 = "ada4d8049fab010b303badda87064afb3270e508726c78ceaca491b3d4cbf69c"
# a small seed-0 world's QA splits (20 entities, 16 + 8 questions, 9
# distractors), as written when each distractor came from the entity's
# whole document set
SMALL_SEED0_QA_SHA256 = {
    "qa_train.jsonl": "e0d06c10f6d0904c27422d82d29ac9d484a94002c5b55d159a70b85c2ab9aaa9",
    "qa_heldout.jsonl": "fe86a01c0da08d31681b3213ff8078ac8c7d637b08e8afd93a1f7b9147b615e1",
}


class TestBuildVocab:
    def test_toy_corpus_contains_expected_merge(self):
        # greedy BPE by hand on {"aa aa ab"}: pairs ('a','a') and (' ','a')
        # tie at count 2, space sorts first, then ' aa', ' ab', and finally
        # 'aa' all get merged before pairs run out.
        vocab = Vocab.build(["aa aa ab"], 300)
        assert b"aa" in vocab.tokens
        assert b" a" in vocab.tokens

    def test_reserved_ids(self):
        vocab = Vocab.build(["anything"], 300)
        assert vocab.render(PAD_ID) == "<pad>"
        assert vocab.render(EOS_ID) == "</s>"
        assert vocab.render(UNK_ID) == "<unk>"
        assert vocab.render(CLS_ID) == "<cls>"
        assert vocab.render(IMG_ID) == "<img>"

    def test_deterministic_build_and_file(self, tmp_path):
        lines = ["the cat sat", "the cat ran", "a dog sat"]
        a, b = Vocab.build(lines, 280), Vocab.build(lines, 280)
        pa, pb = tmp_path / "a.txt", tmp_path / "b.txt"
        a.save(pa)
        b.save(pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty corpus"):
            Vocab.build(["", "   "], 300)

    def test_target_size_below_alphabet_rejected(self):
        with pytest.raises(ValueError, match="target_size"):
            Vocab.build(["abcdefgh"], 6)

    def test_save_load_round_trip(self, tmp_path, tiny_vocab):
        path = tmp_path / "vocab.txt"
        tiny_vocab.save(path)
        loaded = Vocab.load(path)
        assert loaded.tokens == tiny_vocab.tokens
        loaded.save(tmp_path / "again.txt")
        assert (tmp_path / "again.txt").read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("bad,reason", [
        (b"ab\\", "bad escape"), (b"\\x4", "bad escape"), (b"\\x", "bad escape"),
        (b"\\xg1", "bad escape"), (b"\\q", "bad escape"), (b"a b", "unescaped character"),
        (b"", "empty token"), (b"\xff", "not UTF-8"), (b"a\xc3", "not UTF-8"),
    ], ids=["dangling", "short_hex", "empty_hex", "non_hex", "unknown", "space",
            "empty", "invalid_utf8", "truncated_utf8"])
    def test_malformed_token_line_names_line(self, tmp_path, tiny_vocab, bad, reason):
        path = tmp_path / "vocab.txt"
        tiny_vocab.save(path)
        lines = path.read_bytes().split(b"\n")
        lines[7] = bad
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(ValueError, match=rf"^vocab file \S*vocab.txt: line 8: {reason}"):
            Vocab.load(path)

    def test_non_utf8_header_names_line(self, tmp_path, tiny_vocab):
        path = tmp_path / "vocab.txt"
        tiny_vocab.save(path)
        path.write_bytes(path.read_bytes().replace(b"<unk>", b"<unk\xe9>"))
        with pytest.raises(ValueError, match=r"vocab.txt: line 3: not UTF-8"):
            Vocab.load(path)

    @pytest.mark.parametrize("spelling", ["same", "hex"])
    def test_repeated_token_names_both_lines(self, tmp_path, tiny_vocab, spelling):
        # the same bytes spelt the same way or as \xHH escapes: either way
        # encode could only ever emit the later id
        path = tmp_path / "vocab.txt"
        tiny_vocab.save(path)
        lines = path.read_text().split("\n")
        token = tiny_vocab.tokens[1]  # id 6, on line 7
        lines[7] = lines[6] if spelling == "same" else "".join(f"\\x{b:02x}" for b in token)
        path.write_text("\n".join(lines))
        with pytest.raises(ValueError, match=r"vocab.txt: line 8: token .* repeats line 7"):
            Vocab.load(path)

    def test_blank_line_before_end_rejected(self, tmp_path, tiny_vocab):
        # one trailing newline ends the last line; a second one is an empty token
        path = tmp_path / "vocab.txt"
        tiny_vocab.save(path)
        path.write_bytes(path.read_bytes() + b"\n")
        with pytest.raises(ValueError, match=rf"line {tiny_vocab.size + 1}: empty token"):
            Vocab.load(path)


class TestVocabFileFuzz:
    """Mutated vocab files either load, and then survive a save/load round
    trip, or raise ValueError naming the file; never anything else."""

    @given(st.data())
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_mutated_file_round_trips_or_raises_value_error(self, tmp_path, tiny_vocab, data):
        good = tmp_path / "vocab.txt"
        tiny_vocab.save(good)
        raw = good.read_bytes()
        kind = data.draw(st.sampled_from(["truncate", "flip", "insert", "delete", "repeat"]))
        mutated = bytearray(raw)
        if kind == "truncate":
            mutated = raw[:data.draw(st.integers(0, len(raw) - 1))]
        elif kind == "flip":
            mutated[data.draw(st.integers(0, len(raw) - 1))] ^= data.draw(st.integers(1, 255))
        elif kind == "insert":
            at = data.draw(st.integers(0, len(raw)))
            mutated[at:at] = data.draw(st.binary(min_size=1, max_size=4)
                                       | st.sampled_from([b"\n", b"\\", b"\\x", b"\\s"]))
        else:
            lines = raw.split(b"\n")
            at = data.draw(st.integers(0, len(lines) - 2))
            if kind == "delete":
                del lines[at]
            else:
                lines.insert(at, lines[data.draw(st.integers(0, len(lines) - 2))])
            mutated = b"\n".join(lines)
        path = tmp_path / "mutated.txt"
        path.write_bytes(bytes(mutated))
        try:
            vocab = Vocab.load(path)
        except ValueError as exc:
            assert str(exc).startswith(f"vocab file {path}: ")
            return
        again = tmp_path / "again.txt"
        vocab.save(again)
        assert Vocab.load(again).tokens == vocab.tokens
        assert len(set(vocab.tokens)) == len(vocab.tokens) and b"" not in vocab.tokens


# words over a few small alphabets: two letters force count ties, and the
# others bring multibyte UTF-8 and punctuation runs
_ALPHABETS = ["ab", "abc d", "aé中ß", "ab?!.,:-'", "xy😀z"]


@st.composite
def corpora(draw):
    alphabet = draw(st.sampled_from(_ALPHABETS))
    word = st.text(alphabet=alphabet.replace(" ", ""), min_size=1, max_size=9)
    return draw(st.lists(st.lists(word, min_size=1, max_size=6).map(" ".join),
                         min_size=1, max_size=12))


def _reserved_and_alphabet(lines):
    return N_SPECIALS + len({b for line in lines for chunk in _pretokenize(line)
                             for b in chunk})


class TestBuildMatchesReference:
    @given(lines=corpora(), extra=st.one_of(st.integers(0, 12), st.integers(13, 400)))
    @settings(max_examples=300, deadline=None)
    def test_same_tokens_as_direct_build(self, lines, extra):
        # small extras stop at the target; large ones run out of pairs first
        target = _reserved_and_alphabet(lines) + extra
        assert Vocab.build(lines, target).tokens == reference_build(lines, target)

    @given(lines=corpora(), extra=st.integers(0, 60),
           texts=st.lists(st.text(alphabet="abcdé中?! zq😀\t\\", max_size=30), max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_same_ids_as_direct_encoder(self, lines, extra, texts):
        # texts draw on bytes the corpus may not have, which become <unk>
        vocab = Vocab.build(lines, _reserved_and_alphabet(lines) + extra)
        for text in lines + texts:
            assert vocab.token_ids(text) == reference_token_ids(vocab, text)

    def test_desk_seed0_vocab_file_pinned(self, tmp_path):
        generate_corpora(tmp_path, seed=0, n_entities=150, n_captions=0, n_vqa=0,
                         n_train=0, n_heldout=0, vocab_size=1400)
        raw = (tmp_path / "vocab.txt").read_bytes()
        assert raw.count(b"\n") == 843  # the world runs out of pairs below 1400
        assert hashlib.sha256(raw).hexdigest() == DESK_SEED0_VOCAB_SHA256

    def test_small_seed0_qa_files_pinned(self, tmp_path):
        generate_corpora(tmp_path, seed=0, n_entities=20, n_captions=0, n_vqa=0,
                         n_train=16, n_heldout=8, vocab_size=300)
        for name, sha256 in SMALL_SEED0_QA_SHA256.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == sha256, name


class TestEncodeDecode:
    def test_empty_text_is_eos_only(self, tiny_vocab):
        seq = tiny_vocab.encode("")
        assert seq.ids.tolist() == [EOS_ID]

    def test_round_trip(self, tiny_vocab):
        assert tiny_vocab.decode(tiny_vocab.encode("the capital of balor").ids) \
            == "the capital of balor"

    def test_round_trip_whitespace_normalized(self, tiny_vocab):
        out = tiny_vocab.decode(tiny_vocab.encode("  red   square ").ids)
        assert out == "red square"

    def test_never_emits_cls_or_img(self, tiny_vocab):
        ids = tiny_vocab.encode("a photo of rimek <cls> <img>").ids
        assert CLS_ID not in ids and IMG_ID not in ids

    def test_unknown_bytes_map_to_unk(self, tiny_vocab):
        ids = tiny_vocab.token_ids("baloré")  # e-acute not in corpus bytes
        assert UNK_ID in ids

    @given(st.lists(st.sampled_from(
        ["red", "blue", "photo", "balor", "capital", "the", "of"]),
        min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, words):
        vocab = _CORPUS_VOCAB
        text = " ".join(words)
        assert vocab.decode(vocab.encode(text).ids) == text


_CORPUS_VOCAB = Vocab.build(
    ["red blue photo balor capital the of"], 300
)


class TestSerializeTable:
    def test_single_row(self):
        t = TableDoc(header=["city", "pop"], rows=[["Oslo", "700k"]])
        assert serialize_table(t) == "city: Oslo | pop: 700k"

    def test_empty_rows(self):
        assert serialize_table(TableDoc(header=["a"], rows=[])) == ""

    def test_two_rows_joined(self):
        t = TableDoc(header=["x"], rows=[["1"], ["2"]])
        assert serialize_table(t) == "x: 1 ; x: 2"

    def test_arity_mismatch(self):
        t = TableDoc(header=["a", "b"], rows=[["only one"]])
        with pytest.raises(ValueError, match="row 0"):
            serialize_table(t)


def _text_doc(text="the capital of balor is venta"):
    return Document(id="d0", modality="text", text=text)


def _image_doc(snippet="a photo of rimek"):
    return Document(id="d1", modality="image", image_path="x.ppm", snippet=snippet)


class TestAssembleReranker:
    def test_text_layout(self, tiny_vocab):
        seq = assemble_reranker_input(tiny_vocab, "what is the capital of balor?",
                                      _text_doc(), 4, 128)
        ids = seq.ids.tolist()
        assert ids[0] == CLS_ID
        assert ids.count(EOS_ID) == 2
        assert ids[-1] == EOS_ID
        assert seq.image_spans == []

    def test_image_doc_span(self, tiny_vocab):
        seq = assemble_reranker_input(tiny_vocab, "what color?", _image_doc(), 16, 128)
        assert len(seq.image_spans) == 1
        start, length = seq.image_spans[0]
        assert length == 16
        assert all(i == IMG_ID for i in seq.ids[start:start + length])
        assert IMG_ID not in np.delete(seq.ids, np.arange(start, start + length))

    def test_overlong_doc_truncated_to_max(self, tiny_vocab):
        long_doc = _text_doc("balor " * 300)
        seq = assemble_reranker_input(tiny_vocab, "what is the capital of balor?",
                                      long_doc, 4, 64)
        assert len(seq) == 64
        assert seq.ids[-1] == EOS_ID
        # question survives intact at the front
        q = tiny_vocab.token_ids("what is the capital of balor?")
        assert seq.ids[1:1 + len(q)].tolist() == q

    def test_question_too_long_rejected(self, tiny_vocab):
        with pytest.raises(ValueError, match="question"):
            assemble_reranker_input(tiny_vocab, "balor " * 100, _text_doc(), 4, 32)

    def test_whole_span_truncation(self, tiny_vocab):
        # max_len chosen so the cut would land inside the image run
        q = "what color is the shape in the photo of rimek?"
        head_len = 1 + len(tiny_vocab.token_ids(q)) + 1
        seq = assemble_reranker_input(tiny_vocab, q, _image_doc(), 16,
                                      head_len + 8 + 1)
        assert seq.image_spans == []  # dropped whole, not split
        assert not np.any(seq.ids == IMG_ID)

    def test_empty_doc_rejected(self, tiny_vocab):
        with pytest.raises(ValueError, match="empty"):
            assemble_reranker_input(tiny_vocab, "q", _text_doc(""), 4, 64)


class TestAssembleQa:
    def test_zero_contexts(self, tiny_vocab):
        seq = assemble_qa_input(tiny_vocab, "what is the capital of balor?", [], 4, 128)
        assert seq.ids[-1] == EOS_ID
        assert seq.ids.tolist().count(EOS_ID) == 1
        assert CLS_ID not in seq.ids

    def test_two_image_contexts_disjoint_spans(self, tiny_vocab):
        docs = [_image_doc("a photo of rimek"), _image_doc("a photo of balor")]
        seq = assemble_qa_input(tiny_vocab, "what color?", docs, 8, 256)
        assert len(seq.image_spans) == 2
        (s1, l1), (s2, l2) = seq.image_spans
        assert l1 == l2 == 8
        assert s1 + l1 < s2
        assert len(seq) <= 256

    def test_context_order_preserved(self, tiny_vocab):
        d1 = _text_doc("the capital of balor is venta")
        d2 = _text_doc("the stone of rimek is opal")
        seq12 = assemble_qa_input(tiny_vocab, "q", [d1, d2], 4, 256)
        seq21 = assemble_qa_input(tiny_vocab, "q", [d2, d1], 4, 256)
        assert seq12.ids.tolist() != seq21.ids.tolist()
        a = tiny_vocab.token_ids("the capital of balor is venta")
        joined = seq12.ids.tolist()
        first_pos = _find_sub(joined, a)
        b = tiny_vocab.token_ids("the stone of rimek is opal")
        second_pos = _find_sub(joined, b)
        assert first_pos < second_pos

    def test_custom_prompt_plumbed(self, tiny_vocab):
        seq = assemble_qa_input(tiny_vocab, "what?", [], 4, 128, prompt="describe the image")
        lead = tiny_vocab.token_ids("describe the image what?")
        assert seq.ids[: len(lead)].tolist() == lead


def _find_sub(haystack, needle):
    for i in range(len(haystack) - len(needle) + 1):
        if haystack[i:i + len(needle)] == needle:
            return i
    raise AssertionError("subsequence not found")


@st.composite
def random_documents(draw):
    modality = draw(st.sampled_from(["text", "table", "image"]))
    if modality == "text":
        words = draw(st.lists(st.sampled_from(["red", "blue", "photo", "of", "balor"]),
                              min_size=1, max_size=40))
        return Document(id="d", modality="text", text=" ".join(words))
    if modality == "table":
        ncols = draw(st.integers(1, 3))
        nrows = draw(st.integers(1, 4))
        header = [f"h{i}" for i in range(ncols)]
        rows = [[draw(st.sampled_from(["red", "blue", "balor"])) for _ in range(ncols)]
                for _ in range(nrows)]
        return Document(id="d", modality="table", table=TableDoc(header, rows))
    snippet = draw(st.one_of(st.none(), st.just("a photo of balor")))
    return Document(id="d", modality="image", image_path="x.ppm", snippet=snippet)


class TestFuzzInvariants:
    @given(doc=random_documents(), n_img=st.integers(1, 24),
           max_len=st.integers(24, 96))
    @settings(max_examples=120, deadline=None)
    def test_reranker_sequences_always_valid(self, doc, n_img, max_len):
        vocab = _CORPUS_VOCAB
        try:
            seq = assemble_reranker_input(vocab, "photo of balor", doc, n_img, max_len)
        except ValueError:
            return  # question-too-long style rejections are fine
        assert len(seq) <= max_len
        assert seq.ids[0] == CLS_ID
        # runs kept whole or dropped whole
        for start, length in seq.image_spans:
            assert length == n_img

    @given(docs=st.lists(random_documents(), min_size=0, max_size=4),
           n_img=st.integers(1, 12), max_len=st.integers(32, 128))
    @settings(max_examples=120, deadline=None)
    def test_qa_sequences_always_valid(self, docs, n_img, max_len):
        vocab = _CORPUS_VOCAB
        try:
            seq = assemble_qa_input(vocab, "photo of balor", docs, n_img, max_len)
        except ValueError:
            return
        assert len(seq) <= max_len
        for start, length in seq.image_spans:
            assert length == n_img


class TestPadSequences:
    def test_pads_to_longest_with_mask_and_row_spans(self):
        a = TokenSequence([CLS_ID, IMG_ID, IMG_ID, EOS_ID])
        b = TokenSequence([CLS_ID, 7, EOS_ID])
        batch = pad_sequences([a, b])
        np.testing.assert_array_equal(batch.ids, [[CLS_ID, IMG_ID, IMG_ID, EOS_ID],
                                                  [CLS_ID, 7, EOS_ID, PAD_ID]])
        np.testing.assert_array_equal(batch.attention_mask, [[1, 1, 1, 1], [1, 1, 1, 0]])
        assert [TokenSequence(row).image_spans for row in batch.ids] == [[(1, 2)], []]
        assert batch.ids.dtype == np.int64

    def test_single_sequence_is_unpadded(self):
        seq = TokenSequence([CLS_ID, 9, EOS_ID])
        batch = pad_sequences([seq])
        np.testing.assert_array_equal(batch.ids, seq.ids[None])
        assert batch.attention_mask.all()

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="at least one sequence"):
            pad_sequences([])
