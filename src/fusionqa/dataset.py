"""JSONL dataset reading/writing with line-numbered validation errors."""

from __future__ import annotations

import json
import os

from fusionqa.documents import Document, QaInstance, TableDoc


def doc_from_json(rec: dict, base_dir: str) -> Document:
    table = None
    if "table" in rec:
        t = rec["table"]
        table = TableDoc(header=list(t["header"]), rows=[list(r) for r in t["rows"]])
    image_path = rec.get("image")
    if image_path is not None:
        image_path = os.path.join(base_dir, image_path)
    return Document(
        id=rec["id"],
        modality=rec["modality"],
        text=rec.get("text"),
        table=table,
        image_path=image_path,
        snippet=rec.get("snippet"),
        label=rec.get("label"),
    )


def _doc_to_json(doc: Document) -> dict:
    rec = {"id": doc.id, "modality": doc.modality}
    if doc.text is not None:
        rec["text"] = doc.text
    if doc.table is not None:
        rec["table"] = {"header": doc.table.header, "rows": doc.table.rows}
    if doc.image_path is not None:
        rec["image"] = doc.image_path
    if doc.snippet is not None:
        rec["snippet"] = doc.snippet
    if doc.label is not None:
        rec["label"] = doc.label
    return rec


def instance_to_json(inst: QaInstance) -> dict:
    return {
        "qid": inst.qid,
        "question": inst.question,
        "answers": inst.answers,
        "gold_ids": inst.gold_ids,
        "pool": [_doc_to_json(d) for d in inst.pool],
    }


def instance_from_json(rec: dict, base_dir: str = "") -> QaInstance:
    return QaInstance(
        qid=rec["qid"],
        question=rec["question"],
        pool=[doc_from_json(d, base_dir) for d in rec["pool"]],
        answers=list(rec.get("answers", [])),
        gold_ids=list(rec.get("gold_ids", [])),
    )


def load_dataset(path) -> list[QaInstance]:
    """Read QA instances; any schema violation reports its line number.

    Image paths resolve relative to the dataset file and must exist.
    """
    base = os.path.dirname(os.path.abspath(path))
    instances = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
            try:
                inst = instance_from_json(rec, base)
                inst.validate()
                for doc in inst.pool:
                    if doc.modality == "image" and not os.path.isfile(doc.image_path):
                        raise ValueError(
                            f"document {doc.id}: image file not found: {doc.image_path}"
                        )
            except (KeyError, TypeError) as exc:
                raise ValueError(f"{path}:{lineno}: missing or malformed field: {exc}") from exc
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from exc
            instances.append(inst)
    return instances


def write_dataset(instances, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for inst in instances:
            fh.write(json.dumps(instance_to_json(inst), sort_keys=True) + "\n")
