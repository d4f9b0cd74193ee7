"""JSONL dataset reading/writing with line-numbered validation errors."""

from __future__ import annotations

import json
import os

from fusionqa.documents import Document, QaInstance, TableDoc


def _string(rec: dict, key: str, required=True):
    """rec[key] as a string; an optional key may be absent or null (None)."""
    value = rec[key] if required else rec.get(key)
    if value is None and not required:
        return None
    if not isinstance(value, str):
        raise ValueError(f"field {key!r} must be a string, got {type(value).__name__}")
    return value


def _strings(value, key: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise ValueError(f"field {key!r} must be a list of strings")
    return list(value)


def doc_from_json(rec: dict, base_dir: str) -> Document:
    if not isinstance(rec, dict):
        raise ValueError(f"document record must be a JSON object, got {type(rec).__name__}")
    table = None
    if "table" in rec:
        t = rec["table"]
        rows = t["rows"]
        if not isinstance(rows, list):
            raise ValueError("field 'rows' must be a list of rows")
        table = TableDoc(header=_strings(t["header"], "header"),
                         rows=[_strings(r, f"rows[{i}]") for i, r in enumerate(rows)])
    image_path = rec.get("image")
    if image_path is not None:
        image_path = os.path.join(base_dir, image_path)
    return Document(
        id=_string(rec, "id"),
        modality=_string(rec, "modality"),
        text=_string(rec, "text", required=False),
        table=table,
        image_path=image_path,
        snippet=_string(rec, "snippet", required=False),
        label=_string(rec, "label", required=False),
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
        qid=_string(rec, "qid"),
        question=_string(rec, "question"),
        pool=[doc_from_json(d, base_dir) for d in rec["pool"]],
        answers=_strings(rec.get("answers", []), "answers"),
        gold_ids=_strings(rec.get("gold_ids", []), "gold_ids"),
    )


def read_jsonl(path, parse, what=""):
    """Yield ``parse(record)`` for each non-blank line of a JSONL file.

    Invalid JSON, and a KeyError, TypeError, ValueError or OSError from
    ``parse``, raise ValueError starting ``path:line: `` and ``what``.
    """
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                item = parse(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: {what}invalid JSON: {exc}") from exc
            except (KeyError, TypeError) as exc:
                raise ValueError(f"{path}:{lineno}: {what}missing or malformed field: {exc}") from exc
            except (ValueError, OSError) as exc:
                raise ValueError(f"{path}:{lineno}: {what}{exc}") from exc
            yield item


def load_dataset(path) -> list[QaInstance]:
    """Read QA instances; any schema violation reports its line number.

    Image paths resolve relative to the dataset file and must exist.
    """
    base = os.path.dirname(os.path.abspath(path))

    def parse(rec):
        inst = instance_from_json(rec, base)
        inst.validate()
        for doc in inst.pool:
            if doc.modality == "image" and not os.path.isfile(doc.image_path):
                raise ValueError(f"document {doc.id}: image file not found: {doc.image_path}")
        return inst

    return list(read_jsonl(path, parse))


def write_dataset(instances, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for inst in instances:
            fh.write(json.dumps(instance_to_json(inst), sort_keys=True) + "\n")
