"""Data types: tables, candidate documents, QA instances, pretraining samples."""

from __future__ import annotations

from dataclasses import dataclass, field

from fusionqa.images import Image


@dataclass
class TableDoc:
    """A small table; every row must match the header arity."""

    header: list[str]
    rows: list[list[str]]

    def validate(self):
        width = len(self.header)
        for i, row in enumerate(self.rows):
            if len(row) != width:
                raise ValueError(
                    f"table row {i} has {len(row)} cells, header has {width}"
                )


MODALITIES = ("text", "table", "image")


@dataclass
class Document:
    """One retrieval candidate: text, a table, or an image (plus optional
    snippet). ``label`` is present only on train/eval data."""

    id: str
    modality: str
    text: str | None = None
    table: TableDoc | None = None
    image_path: str | None = None
    snippet: str | None = None
    label: str | None = None  # "supporting" | "distractor" | None

    def validate(self):
        if self.modality not in MODALITIES:
            raise ValueError(f"document {self.id}: unknown modality {self.modality!r}")
        if self.modality == "text" and not self.text:
            raise ValueError(f"document {self.id}: text modality requires text")
        if self.modality == "table":
            if self.table is None:
                raise ValueError(f"document {self.id}: table modality requires a table")
            self.table.validate()
        if self.modality == "image" and not self.image_path:
            raise ValueError(f"document {self.id}: image modality requires image_path")
        if self.label not in (None, "supporting", "distractor"):
            raise ValueError(f"document {self.id}: bad label {self.label!r}")


@dataclass
class QaInstance:
    """A question with its candidate pool and gold annotations."""

    qid: str
    question: str
    pool: list[Document]
    answers: list[str] = field(default_factory=list)
    gold_ids: list[str] = field(default_factory=list)

    def validate(self):
        ids = [d.id for d in self.pool]
        if len(set(ids)) != len(ids):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise ValueError(f"instance {self.qid}: duplicate document ids {dupes}")
        for doc in self.pool:
            doc.validate()
        pool_ids = set(ids)
        for gid in self.gold_ids:
            if gid not in pool_ids:
                raise ValueError(
                    f"instance {self.qid}: gold id {gid!r} not in candidate pool"
                )


@dataclass
class PretrainSample:
    """One pretraining record: an image, a textual prompt, a target string.
    kind is 'caption' for stages 1-2 and 'vqa' for stage 3."""

    image: Image
    prompt: str
    target: str
    kind: str
