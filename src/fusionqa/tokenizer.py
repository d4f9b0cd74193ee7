"""Subword vocabulary, token sequences, and model-input assembly.

The vocabulary is built by greedy byte-pair merging over a whitespace
normalized corpus (words after the first in a line carry their leading
space, so merges never cross word boundaries). Encoding is greedy
longest-match against the final token inventory, which makes the one-token-
per-line vocab file a complete description of the tokenizer. Bytes outside
the build alphabet map to ``<unk>``.

Reserved ids: 0 ``<pad>``, 1 ``</s>``, 2 ``<unk>``, 3 ``<cls>``, 4 ``<img>``.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from fusionqa.config import QA_PROMPT
from fusionqa.documents import Document, TableDoc

PAD_ID = 0
EOS_ID = 1
UNK_ID = 2
CLS_ID = 3
IMG_ID = 4

_SPECIAL_RENDER = ["<pad>", "</s>", "<unk>", "<cls>", "<img>"]
N_SPECIALS = len(_SPECIAL_RENDER)


@dataclass
class TokenSequence:
    """Token ids plus the placeholder runs where image embeddings go; only a
    padded ``TokenBatch`` has an attention mask."""

    ids: np.ndarray
    image_spans: list[tuple[int, int]] = field(default_factory=list)

    def __post_init__(self):
        self.ids = np.asarray(self.ids, dtype=np.int64)

    def __len__(self):
        return len(self.ids)

    def validate(self, max_len=None):
        prev_end = 0
        for start, length in self.image_spans:
            if start < prev_end:
                raise ValueError(f"image span at {start} overlaps or is out of order")
            end = start + length
            if end > len(self.ids):
                raise ValueError(f"image span ({start}, {length}) exceeds sequence")
            if not np.all(self.ids[start:end] == IMG_ID):
                raise ValueError(f"image span ({start}, {length}) covers non-placeholder ids")
            prev_end = end
        if max_len is not None and len(self.ids) > max_len:
            raise ValueError(f"sequence length {len(self.ids)} exceeds max {max_len}")


@dataclass
class TokenBatch:
    """B token sequences padded to one length: (B, L) ids and attention mask
    (0 at padding), plus each row's image spans."""

    ids: np.ndarray
    attention_mask: np.ndarray
    image_spans: list[list[tuple[int, int]]]


def pad_sequences(seqs) -> TokenBatch:
    """Right-pad sequences with ``<pad>`` to the longest one."""
    seqs = list(seqs)
    if not seqs:
        raise ValueError("pad_sequences: need at least one sequence")
    length = max(len(s) for s in seqs)
    ids = np.full((len(seqs), length), PAD_ID, dtype=np.int64)
    mask = np.zeros((len(seqs), length), dtype=np.int64)
    for row, s in enumerate(seqs):
        ids[row, :len(s)] = s.ids
        mask[row, :len(s)] = 1
    return TokenBatch(ids, mask, [list(s.image_spans) for s in seqs])


def _normalize_ws(text: str) -> str:
    return " ".join(text.split())


_WORD_RUNS = re.compile(r"[A-Za-z0-9]+|[^A-Za-z0-9]+")


def _pretokenize(text: str) -> list[bytes]:
    """Whitespace words, split again at punctuation boundaries, with words
    after the first carrying their leading space. Merges never cross chunk
    boundaries, so 'word' and 'word?' share the same word token."""
    words = text.split()
    chunks = []
    for w_idx, word in enumerate(words):
        for p_idx, piece in enumerate(_WORD_RUNS.findall(word)):
            if w_idx > 0 and p_idx == 0:
                piece = " " + piece
            chunks.append(piece.encode("utf-8"))
    return chunks


class Vocab:
    """Token inventory with reserved specials at ids 0..4."""

    def __init__(self, tokens: list[bytes]):
        self.tokens = list(tokens)  # merged byte-string per non-special id
        self._lookup = {tok: N_SPECIALS + i for i, tok in enumerate(self.tokens)}
        self._max_token_len = max((len(t) for t in self.tokens), default=1)

    @property
    def size(self) -> int:
        return N_SPECIALS + len(self.tokens)

    @classmethod
    def build(cls, corpus, target_size: int) -> "Vocab":
        """Greedy byte-pair vocabulary over the corpus lines.

        Merges are picked by descending pair frequency, ties broken by the
        lexicographically smallest pair, so identical corpora always yield
        identical vocabularies.
        """
        chunk_counts = Counter()
        for line in corpus:
            for chunk in _pretokenize(line):
                chunk_counts[chunk] += 1
        if not chunk_counts:
            raise ValueError("cannot build a vocabulary from an empty corpus")

        alphabet = sorted({b for chunk in chunk_counts for b in chunk})
        if target_size < N_SPECIALS + len(alphabet):
            raise ValueError(
                f"target_size {target_size} below reserved + alphabet size "
                f"{N_SPECIALS + len(alphabet)}"
            )
        tokens = [bytes([b]) for b in alphabet]
        known = set(tokens)

        pieces = {
            chunk: tuple(bytes([b]) for b in chunk) for chunk in chunk_counts
        }
        while N_SPECIALS + len(tokens) < target_size:
            pair_counts = Counter()
            for chunk, parts in pieces.items():
                freq = chunk_counts[chunk]
                for a, b in zip(parts, parts[1:]):
                    pair_counts[(a, b)] += freq
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
        return cls(tokens)

    def token_ids(self, text: str) -> list[int]:
        """Greedy longest-match tokenization; no specials appended."""
        data = _normalize_ws(text).encode("utf-8")
        ids = []
        pos = 0
        n = len(data)
        while pos < n:
            match = None
            top = min(self._max_token_len, n - pos)
            for length in range(top, 0, -1):
                tid = self._lookup.get(data[pos:pos + length])
                if tid is not None:
                    match = (tid, length)
                    break
            if match is None:
                ids.append(UNK_ID)
                pos += 1
            else:
                ids.append(match[0])
                pos += match[1]
        return ids

    def encode(self, text: str) -> TokenSequence:
        """Tokenize and terminate with </s>; never emits <cls> or <img>."""
        return TokenSequence(np.array(self.token_ids(text) + [EOS_ID], dtype=np.int64))

    def decode(self, ids) -> str:
        """Inverse of encode up to whitespace normalization; specials dropped."""
        chunks = []
        for tid in np.asarray(ids, dtype=np.int64).tolist():
            if tid < N_SPECIALS:
                continue
            if tid >= self.size:
                raise ValueError(f"decode: id {tid} out of range [0, {self.size})")
            chunks.append(self.tokens[tid - N_SPECIALS])
        return _normalize_ws(b"".join(chunks).decode("utf-8", errors="replace"))

    def render(self, tid: int) -> str:
        """Printable form of one token (as used in the vocab file)."""
        if tid < N_SPECIALS:
            return _SPECIAL_RENDER[tid]
        return _escape(self.tokens[tid - N_SPECIALS])

    def save(self, path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for tid in range(self.size):
                fh.write(self.render(tid) + "\n")

    @classmethod
    def load(cls, path) -> "Vocab":
        with open(path, "r", encoding="utf-8", newline="\n") as fh:
            lines = fh.read().split("\n")
        if lines and lines[-1] == "":
            lines.pop()
        if lines[:N_SPECIALS] != _SPECIAL_RENDER:
            raise ValueError(f"vocab file {path}: reserved token header mismatch")
        tokens = []
        for lineno, line in enumerate(lines[N_SPECIALS:], start=N_SPECIALS + 1):
            try:
                tokens.append(_unescape(line))
            except ValueError as exc:
                raise ValueError(f"vocab file {path}: line {lineno}: {exc}") from None
        return cls(tokens)


def _escape(token: bytes) -> str:
    out = []
    for b in token:
        if b == 0x5C:
            out.append("\\\\")
        elif b == 0x20:
            out.append("\\s")
        elif 0x21 <= b <= 0x7E:
            out.append(chr(b))
        else:
            out.append(f"\\x{b:02x}")
    return "".join(out)


def _unescape(text: str) -> bytes:
    """Inverse of ``_escape``; raises ValueError on any other text."""
    out = bytearray()
    i = 0
    while i < len(text):
        c = text[i]
        nxt = text[i + 1:i + 2]
        if c != "\\":
            if not 0x21 <= ord(c) <= 0x7E:
                raise ValueError(f"unescaped character {c!r} in vocab token {text!r}")
            out.append(ord(c))
            i += 1
        elif nxt == "\\":
            out.append(0x5C)
            i += 2
        elif nxt == "s":
            out.append(0x20)
            i += 2
        elif nxt == "x" and re.fullmatch("[0-9a-fA-F]{2}", text[i + 2:i + 4]):
            out.append(int(text[i + 2:i + 4], 16))
            i += 4
        else:
            raise ValueError(f"bad escape {text[i:i + 4]!r} in vocab token {text!r}")
    return bytes(out)


def serialize_table(table: TableDoc) -> str:
    """Row-wise linearization: 'h1: c1 | h2: c2' per row, rows joined by ' ; '."""
    table.validate()
    rows = [
        " | ".join(f"{h}: {c}" for h, c in zip(table.header, row))
        for row in table.rows
    ]
    return " ; ".join(rows)


def _document_ids(vocab: Vocab, doc: Document, n_img_tokens: int):
    """Token ids for one document plus the relative image span, if any."""
    if doc.modality == "text":
        return vocab.token_ids(doc.text), None
    if doc.modality == "table":
        return vocab.token_ids(serialize_table(doc.table)), None
    if n_img_tokens <= 0:
        raise ValueError(f"document {doc.id}: image document needs n_img_tokens > 0")
    ids = [IMG_ID] * n_img_tokens
    if doc.snippet:
        ids.extend(vocab.token_ids(doc.snippet))
    return ids, (0, n_img_tokens)


def _truncate_tail(ids, spans, keep: int):
    """Cut the id list to at most `keep`, dropping any image span whole."""
    if len(ids) <= keep:
        return ids, spans
    cut = keep
    for start, length in spans:
        if start < cut < start + length:
            cut = start
            break
    return ids[:cut], [s for s in spans if s[0] + s[1] <= cut]


def assemble_reranker_input(
    vocab: Vocab, question: str, doc: Document, n_img_tokens: int, max_len: int
) -> TokenSequence:
    """[cls] question [eos] document [eos]; over-long documents are cut from
    the tail (image placeholder runs kept or dropped whole), the question never.
    """
    head = [CLS_ID] + vocab.token_ids(question) + [EOS_ID]
    if len(head) + 1 > max_len:
        raise ValueError(
            f"question occupies {len(head)} tokens; no room in max_len {max_len}"
        )
    doc_ids, rel_span = _document_ids(vocab, doc, n_img_tokens)
    if not doc_ids:
        raise ValueError(f"document {doc.id}: empty content")
    spans = [(len(head) + rel_span[0], rel_span[1])] if rel_span else []
    body = head + doc_ids
    body, spans = _truncate_tail(body, spans, max_len - 1)
    body.append(EOS_ID)
    seq = TokenSequence(np.array(body, dtype=np.int64), image_spans=spans)
    seq.validate(max_len)
    return seq


def assemble_qa_input(
    vocab: Vocab,
    question: str,
    contexts: list[Document],
    n_img_tokens: int,
    max_len: int,
    prompt: str = None,
) -> TokenSequence:
    """prompt + question + [eos] + context [eos] per context, in the order
    given (callers pass reranker output already sorted by descending score).
    """
    prompt = QA_PROMPT if prompt is None else prompt
    lead = f"{prompt} {question}" if prompt else question
    head = vocab.token_ids(lead) + [EOS_ID]
    if len(head) > max_len:
        raise ValueError(
            f"prompt and question occupy {len(head)} tokens, over max_len {max_len}"
        )
    ids = list(head)
    spans = []
    for doc in contexts:
        doc_ids, rel_span = _document_ids(vocab, doc, n_img_tokens)
        if rel_span:
            spans.append((len(ids) + rel_span[0], rel_span[1]))
        ids.extend(doc_ids)
        ids.append(EOS_ID)
    ids, spans = _truncate_tail(ids, spans, max_len)
    seq = TokenSequence(np.array(ids, dtype=np.int64), image_spans=spans)
    seq.validate(max_len)
    return seq
