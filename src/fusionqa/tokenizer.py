"""Subword vocabulary, token sequences, and model-input assembly.

The vocabulary is built by greedy byte-pair merging (Sennrich et al., 2016)
over a whitespace normalized corpus. Each line is cut into chunks at
whitespace and where a run of ASCII letters and digits meets a run of other
characters; the first chunk of every word but the line's first carries its
leading space, and merges never cross a chunk boundary. The inventory
starts as the corpus's byte alphabet. Each merge joins the adjacent pair of
pieces with the highest count over the corpus, ties going to the
lexicographically smallest pair of byte strings, and appends the joined
bytes as a new token unless an earlier merge already made them. Building
stops at the target size or when no chunk has two pieces left, whichever
comes first: the seed-0 desk world asks for 1400 entries and stops at 843.

Encoding is greedy longest-match against the final token inventory, which
makes the one-token-per-line vocab file a complete description of the
tokenizer. Bytes outside the build alphabet map to ``<unk>``. Loading a
vocab file rejects a wrong header and any token line that is empty, badly
escaped, not UTF-8 or a repeat of an earlier token.

Reserved ids: 0 ``<pad>``, 1 ``</s>``, 2 ``<unk>``, 3 ``<cls>``, 4 ``<img>``. A run
of ``<img>`` ids is one image's slot and the only record of where it goes;
``TokenSequence.image_spans`` is a view derived from the ids.
"""

from __future__ import annotations

import heapq
import re
from collections import Counter, defaultdict
from dataclasses import dataclass

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
    """Token ids; each run of ``<img>`` ids is the slot of one image. Only a
    padded ``TokenBatch`` has an attention mask."""

    ids: np.ndarray

    def __post_init__(self):
        self.ids = np.asarray(self.ids, dtype=np.int64)

    def __len__(self):
        return len(self.ids)

    @property
    def image_spans(self) -> list[tuple[int, int]]:
        """(start, length) of each run of ``<img>`` ids, in order."""
        slots = np.zeros(len(self.ids) + 2, dtype=bool)
        slots[1:-1] = self.ids == IMG_ID
        edges = np.flatnonzero(slots[1:] != slots[:-1])  # each run's start, then its end
        return list(zip(edges[::2].tolist(), (edges[1::2] - edges[::2]).tolist()))


@dataclass
class TokenBatch:
    """B token sequences padded to one length: (B, L) ids and attention mask
    (0 at padding)."""

    ids: np.ndarray
    attention_mask: np.ndarray


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
    return TokenBatch(ids, mask)


def _normalize_ws(text: str) -> str:
    return " ".join(text.split())


_WORD_RUNS = re.compile(r"[A-Za-z0-9]+|[^A-Za-z0-9]+")


def _merge_pair(parts: list[bytes], pair, merged: bytes) -> list[bytes]:
    """``parts`` with each occurrence of ``pair``, scanned left to right,
    replaced by ``merged``."""
    out = []
    i = 0
    while i < len(parts):
        if i + 1 < len(parts) and parts[i] == pair[0] and parts[i + 1] == pair[1]:
            out.append(merged)
            i += 2
        else:
            out.append(parts[i])
            i += 1
    return out


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
        # lengths of the tokens of two bytes or more, longest first, by their
        # first two bytes: the only lengths a longest match there can have
        lengths = defaultdict(set)
        for tok in self.tokens:
            if len(tok) >= 2:
                lengths[tok[:2]].add(len(tok))
        self._lengths = {k: sorted(v, reverse=True) for k, v in lengths.items()}

    @property
    def size(self) -> int:
        return N_SPECIALS + len(self.tokens)

    @classmethod
    def build(cls, corpus, target_size: int) -> "Vocab":
        """Greedy byte-pair vocabulary over the corpus lines.

        Each merge joins the most frequent adjacent pair of pieces, ties
        broken by the lexicographically smallest pair, so identical corpora
        always yield identical vocabularies. Pair counts are kept up to date
        across merges: a merge rewrites only the chunks indexed under its
        pair, and the next pair comes off a heap keyed ``(-count, pair)``
        whose out-of-date entries are skipped.
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

        freqs = list(chunk_counts.values())
        pieces = [[bytes([b]) for b in chunk] for chunk in chunk_counts]
        pair_counts = Counter()
        # pair -> indices of the chunks that have held it; a chunk that has
        # since lost the pair comes out of its merge unchanged
        holders = defaultdict(set)
        for i, parts in enumerate(pieces):
            for pair in zip(parts, parts[1:]):
                pair_counts[pair] += freqs[i]
                holders[pair].add(i)
        heap = [(-n, pair) for pair, n in pair_counts.items()]
        heapq.heapify(heap)

        while N_SPECIALS + len(tokens) < target_size:
            while heap and pair_counts.get(heap[0][1]) != -heap[0][0]:
                heapq.heappop(heap)  # the pair's count has changed since
            if not heap:
                break
            best = heapq.heappop(heap)[1]
            merged = best[0] + best[1]
            if merged not in known:
                tokens.append(merged)
                known.add(merged)
            delta = Counter()
            for i in holders.pop(best):
                old = pieces[i]
                new = pieces[i] = _merge_pair(old, best, merged)
                for pair in zip(old, old[1:]):
                    delta[pair] -= freqs[i]
                for pair in zip(new, new[1:]):
                    delta[pair] += freqs[i]
                    holders[pair].add(i)
            for pair, change in delta.items():
                if change:
                    n = pair_counts[pair] + change
                    if n:
                        pair_counts[pair] = n
                        heapq.heappush(heap, (-n, pair))
                    else:
                        del pair_counts[pair]
        return cls(tokens)

    def token_ids(self, text: str) -> list[int]:
        """Greedy longest-match tokenization; no specials appended. At each
        position only the lengths of the tokens that start with its next two
        bytes are tried, longest first, and then its one byte."""
        data = _normalize_ws(text).encode("utf-8")
        lookup = self._lookup
        ids = []
        pos = 0
        n = len(data)
        while pos < n:
            for length in self._lengths.get(data[pos:pos + 2], ()):
                if length <= n - pos:
                    tid = lookup.get(data[pos:pos + length])
                    if tid is not None:
                        break
            else:
                length = 1
                tid = lookup.get(data[pos:pos + 1], UNK_ID)
            ids.append(tid)
            pos += length
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
        """Read a vocab file written by ``save``. A header other than the
        five specials, or a token line that is empty, badly escaped, not
        UTF-8 or a repeat of an earlier token, raises ``ValueError`` naming
        the file and the line."""
        with open(path, "rb") as fh:
            raw_lines = fh.read().split(b"\n")
        if raw_lines[-1] == b"":
            raw_lines.pop()
        lines = []
        for lineno, raw in enumerate(raw_lines, start=1):
            try:
                lines.append(raw.decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise ValueError(f"vocab file {path}: line {lineno}: not UTF-8: {exc}") from None
        if lines[:N_SPECIALS] != _SPECIAL_RENDER:
            raise ValueError(f"vocab file {path}: reserved token header mismatch")
        tokens = []
        first_seen = {}  # token -> the line it first appeared on
        for lineno, line in enumerate(lines[N_SPECIALS:], start=N_SPECIALS + 1):
            where = f"vocab file {path}: line {lineno}"
            if not line:
                raise ValueError(f"{where}: empty token")
            try:
                token = _unescape(line)
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
            if token in first_seen:
                raise ValueError(f"{where}: token {line!r} repeats line {first_seen[token]}")
            first_seen[token] = lineno
            tokens.append(token)
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


def _document_ids(vocab: Vocab, doc: Document, n_img_tokens: int) -> list[int]:
    """Token ids for one document; an image is its run of ``<img>`` ids
    followed by its snippet, if any."""
    if doc.modality == "text":
        return vocab.token_ids(doc.text)
    if doc.modality == "table":
        return vocab.token_ids(serialize_table(doc.table))
    if n_img_tokens <= 0:
        raise ValueError(f"document {doc.id}: image document needs n_img_tokens > 0")
    ids = [IMG_ID] * n_img_tokens
    if doc.snippet:
        ids.extend(vocab.token_ids(doc.snippet))
    return ids


def _truncate_tail(ids, keep: int):
    """The id list cut to at most ``keep``; a cut that would split an
    ``<img>`` run moves back to the run's start, dropping it whole."""
    cut = min(keep, len(ids))
    while 0 < cut < len(ids) and ids[cut - 1] == ids[cut] == IMG_ID:
        cut -= 1
    return ids[:cut]


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
    doc_ids = _document_ids(vocab, doc, n_img_tokens)
    if not doc_ids:
        raise ValueError(f"document {doc.id}: empty content")
    body = _truncate_tail(head + doc_ids, max_len - 1)
    body.append(EOS_ID)
    return TokenSequence(np.array(body, dtype=np.int64))


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
    for doc in contexts:
        ids.extend(_document_ids(vocab, doc, n_img_tokens))
        ids.append(EOS_ID)
    return TokenSequence(np.array(_truncate_tail(ids, max_len), dtype=np.int64))
