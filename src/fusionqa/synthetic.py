"""Procedural corpora: rendered scenes, caption/VQA pretraining data, and
entity-relation QA instances with mixed-modality candidate pools.

Scenes are one colored shape on a 2x2 cell grid, so captions and VQA answers
are verifiable from pixels alone. The QA world is a set of invented entities
with per-relation facts; each question's supporting document literally
contains the answer, distractors come from other entities, and train/eval
splits share vocabulary but never a (entity, relation) fact.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, replace

import numpy as np

from fusionqa.config import QA_PROMPT
from fusionqa.dataset import read_jsonl, write_dataset
from fusionqa.documents import Document, PretrainSample, QaInstance, TableDoc
from fusionqa.images import Image, load_image_ppm, save_image_ppm
from fusionqa.tensor import Rng
from fusionqa.tokenizer import Vocab, serialize_table

COLORS = {
    "red": (0.9, 0.1, 0.1),
    "green": (0.1, 0.8, 0.15),
    "blue": (0.15, 0.25, 0.9),
    "yellow": (0.9, 0.85, 0.1),
    "purple": (0.6, 0.15, 0.8),
    "orange": (0.95, 0.55, 0.1),
}
SHAPES = ("square", "circle", "triangle", "cross")
POSITIONS = ("top left", "top right", "bottom left", "bottom right")
SIZES = ("large", "small")
_POS_CELL = {"top left": (0, 0), "top right": (0, 1),
             "bottom left": (1, 0), "bottom right": (1, 1)}

IMAGE_SIZE = 32
_CELL = IMAGE_SIZE // 2
_BACKGROUND = 0.12


@dataclass(frozen=True)
class SceneSpec:
    color: str
    shape: str
    position: str
    size: str = "large"


SCENE_SPECS = tuple(
    SceneSpec(c, s, p, z)
    for c in COLORS for s in SHAPES for p in POSITIONS for z in SIZES
)


def _shape_mask(shape: str, n: int) -> np.ndarray:
    rr, cc = np.mgrid[0:n, 0:n]
    margin = max(1, n // 5)
    if shape == "square":
        return (rr >= margin) & (rr < n - margin) & (cc >= margin) & (cc < n - margin)
    if shape == "circle":
        return (rr - (n - 1) / 2) ** 2 + (cc - (n - 1) / 2) ** 2 <= (n / 2 - 2) ** 2
    if shape == "triangle":
        return (rr >= margin) & (rr < n - margin) \
            & (np.abs(cc - (n - 1) / 2) <= (rr - margin) * 0.62)
    if shape == "cross":
        arm = max(1, n // 8)
        mid_lo, mid_hi = n // 2 - arm, n // 2 + arm
        bar = (rr >= mid_lo) & (rr < mid_hi)
        col = (cc >= mid_lo) & (cc < mid_hi)
        edge = max(1, n // 8)
        return (bar & (cc >= edge) & (cc < n - edge)) | (col & (rr >= edge) & (rr < n - edge))
    raise ValueError(f"unknown shape {shape!r}")


def render_scene(spec: SceneSpec) -> Image:
    px = np.full((IMAGE_SIZE, IMAGE_SIZE, 3), _BACKGROUND, dtype=np.float32)
    r0, c0 = (_POS_CELL[spec.position][0] * _CELL, _POS_CELL[spec.position][1] * _CELL)
    box = _CELL if spec.size == "large" else _CELL // 2
    offset = 0 if spec.size == "large" else _CELL // 4
    mask = _shape_mask(spec.shape, box)
    for ch, val in enumerate(COLORS[spec.color]):
        cell = px[r0 + offset:r0 + offset + box, c0 + offset:c0 + offset + box, ch]
        cell[mask] = val
    return Image(px)


_CAPTION_PROMPTS = (
    "describe the image",
    "give a short description of the picture",
    "what does the image show",
)


def brief_caption(spec: SceneSpec) -> str:
    return f"a {spec.color} {spec.shape}"


def rich_caption(spec: SceneSpec) -> str:
    return (f"the image shows a {spec.size} {spec.color} {spec.shape} "
            f"in the {spec.position}")


def vqa_pair(spec: SceneSpec, rng: Rng) -> tuple[str, str]:
    kind = int(rng.integers(0, 4))
    if kind == 0:
        return f"what color is the {spec.shape}?", spec.color
    if kind == 1:
        return "what shape is in the image?", spec.shape
    if kind == 2:
        return f"where is the {spec.color} {spec.shape}?", spec.position
    return f"how big is the {spec.shape}?", spec.size


ENTITY_RELATIONS = ("capital", "animal", "stone")
_VALUE_POOLS = {
    "capital": ("velora", "tarsin", "quoma", "bruneth", "ismara", "koldan",
                "pyrelis", "santre", "ulvira", "mentero", "galvas", "norwyn",
                "arineth", "borlat", "cindra", "drovna", "elsted", "fornell",
                "gresham", "harwick", "istvan", "jelko", "kemris", "lovat"),
    "animal": ("fox", "owl", "bear", "wolf", "crane", "otter", "lynx", "hare",
               "heron", "badger", "marten", "stoat", "raven", "ibex", "vole", "swift"),
    "stone": ("opal", "jade", "ruby", "onyx", "agate", "topaz", "beryl", "flint",
              "garnet", "zircon", "spinel", "pyrite", "coral", "amber", "quartz", "slate"),
}

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"


def _make_names(n: int, rng: Rng, syllables: int = 3) -> list[str]:
    names = []
    seen = set()
    while len(names) < n:
        name = "".join(
            _CONSONANTS[int(rng.integers(0, len(_CONSONANTS)))]
            + _VOWELS[int(rng.integers(0, len(_VOWELS)))]
            for _ in range(syllables)
        )
        if name not in seen:
            seen.add(name)
            names.append(name)
    return names


@dataclass
class World:
    entities: list[str]
    facts: dict  # entity -> {relation: value}
    scenes_of: dict  # entity -> two scene indices into SCENE_SPECS


def generate_world(rng: Rng, n_entities: int = 100) -> World:
    """Entities with per-relation facts and two photos each. Photo answers
    depend on which photo an instance attaches, so entity identity alone
    never determines them."""
    entities = _make_names(n_entities, rng.child("names"))
    facts = {}
    scenes_of = {}
    pick = rng.child("facts")
    primary = pick.permutation(len(SCENE_SPECS))  # distinct first scene per entity
    for i, e in enumerate(entities):
        facts[e] = {
            rel: pool[int(pick.integers(0, len(pool)))]
            for rel, pool in _VALUE_POOLS.items()
        }
        first = int(primary[i % len(SCENE_SPECS)])
        second = int(pick.integers(0, len(SCENE_SPECS) - 1))
        if second >= first:
            second += 1
        scenes_of[e] = (first, second)
    return World(entities, facts, scenes_of)


def fact_sentence(entity: str, relation: str, value: str) -> str:
    return f"the {relation} of {entity} is {value}"


def fact_table(entity: str, relation: str, value: str) -> TableDoc:
    return TableDoc(header=["name", relation], rows=[[entity, value]])


def _scene_path(idx: int) -> str:
    return os.path.join("images", f"scene_{idx:03d}.ppm")


def fact_is_table(entity: str, relation: str) -> bool:
    """Stable fact -> modality assignment: about a quarter of the textual
    facts live in tables, fixed for the lifetime of the world."""
    return zlib.crc32(f"{entity}/{relation}".encode()) % 4 == 0


def photo_document(world: World, entity: str, which: int) -> Document:
    scene = world.scenes_of[entity][which]
    return Document(
        id=f"img_{entity}_{which}", modality="image",
        image_path=_scene_path(scene),
        snippet=f"a photo of {entity}", label=None,
    )


# an entity's document slots: one text or table doc per relation, then a photo
_ENTITY_SLOTS = len(ENTITY_RELATIONS) + 1


def entity_document(world: World, entity: str, slot: int, which: int) -> Document:
    """Slot ``slot`` of the entity's document set: the text or table doc of
    ``ENTITY_RELATIONS[slot]``, or for the last slot the entity's photo
    ``which``."""
    if slot == len(ENTITY_RELATIONS):
        return photo_document(world, entity, which)
    rel = ENTITY_RELATIONS[slot]
    value = world.facts[entity][rel]
    if fact_is_table(entity, rel):
        return Document(id=f"tab_{entity}_{rel}", modality="table",
                        table=fact_table(entity, rel, value), label=None)
    return Document(id=f"txt_{entity}_{rel}", modality="text",
                    text=fact_sentence(entity, rel, value), label=None)


IMAGE_RELATIONS = ("photo_color", "photo_shape")


def question_keys(world: World) -> list[tuple[str, str]]:
    """(entity, relation) for every askable fact; photo_* facts are grounded
    in the entity's image."""
    keys = []
    for e in world.entities:
        keys.extend((e, rel) for rel in ENTITY_RELATIONS)
        keys.extend((e, rel) for rel in IMAGE_RELATIONS)
    return keys


def build_instance(world: World, qid: str, entity: str, relation: str,
                   rng: Rng, n_distractors: int = 9,
                   answer_style: str = "short") -> QaInstance:
    """One question with its supporting document and same-world distractors
    drawn from other entities only. Photo questions attach one of the
    entity's photos, chosen by the rng; the answer is read from that photo's
    scene."""
    if relation in IMAGE_RELATIONS:
        which = int(rng.child("photo").integers(0, 2))
        support = photo_document(world, entity, which)
        spec = SCENE_SPECS[world.scenes_of[entity][which]]
        attr = relation.split("_")[1]
        question = f"what {attr} is the thing in the photo of {entity}?"
        value = spec.color if attr == "color" else spec.shape
    else:
        question = f"what is the {relation} of {entity}?"
        value = world.facts[entity][relation]
        support = entity_document(world, entity, ENTITY_RELATIONS.index(relation), 0)
    if answer_style == "sentence":
        answer = (f"the {relation.split('_')[1]} in the photo of {entity} is {value}"
                  if relation in IMAGE_RELATIONS
                  else fact_sentence(entity, relation, value))
    else:
        answer = value

    others = [e for e in world.entities if e != entity]
    pick = rng.child("distractors")
    pool = [replace(support, label="supporting")]
    chosen_entities = pick.sample_indices(len(others), min(n_distractors, len(others)))
    for j in np.asarray(chosen_entities).tolist():
        photo = int(pick.integers(0, 2))  # drawn before the slot
        doc = entity_document(world, others[int(j)], int(pick.integers(0, _ENTITY_SLOTS)), photo)
        pool.append(replace(doc, label="distractor"))
    order = rng.child("order").permutation(len(pool))
    pool = [pool[int(i)] for i in order]
    inst = QaInstance(qid=qid, question=question, pool=pool,
                      answers=[answer], gold_ids=[support.id])
    inst.validate()
    return inst


def corpus_text_lines(world: World) -> list[str]:
    """Every sentence the synthetic world can produce; vocabulary fodder."""
    lines = [QA_PROMPT]
    lines.extend(_CAPTION_PROMPTS)
    for spec in SCENE_SPECS:
        lines.append(brief_caption(spec))
        lines.append(rich_caption(spec))
        lines.append(f"what color is the {spec.shape}?")
        lines.append("what shape is in the image?")
        lines.append(f"where is the {spec.color} {spec.shape}?")
        lines.append(f"how big is the {spec.shape}?")
    for e in world.entities:
        lines.append(f"a photo of {e}")
        lines.append(f"what color is the thing in the photo of {e}?")
        lines.append(f"what shape is the thing in the photo of {e}?")
        for rel in ENTITY_RELATIONS:
            value = world.facts[e][rel]
            lines.append(fact_sentence(e, rel, value))
            lines.append(serialize_table(fact_table(e, rel, value)))
            lines.append(f"what is the {rel} of {e}?")
    for pool in _VALUE_POOLS.values():
        lines.extend(pool)
    return lines


def caption_samples(n: int, rng: Rng, rich: bool) -> list[tuple[int, str, str]]:
    """(scene index, prompt, target) triples for stages 1 and 2."""
    out = []
    for i in range(n):
        idx = int(rng.integers(0, len(SCENE_SPECS)))
        prompt = _CAPTION_PROMPTS[int(rng.integers(0, len(_CAPTION_PROMPTS)))]
        target = rich_caption(SCENE_SPECS[idx]) if rich else brief_caption(SCENE_SPECS[idx])
        out.append((idx, prompt, target))
    return out


def vqa_samples(n: int, rng: Rng) -> list[tuple[int, str, str]]:
    out = []
    for i in range(n):
        idx = int(rng.integers(0, len(SCENE_SPECS)))
        q, a = vqa_pair(SCENE_SPECS[idx], rng.child(f"q{i}"))
        out.append((idx, q, a))
    return out


def generate_corpora(outdir, seed: int, n_entities: int = 100,
                     n_captions: int = 500, n_vqa: int = 500,
                     n_train: int = 300, n_heldout: int = 100,
                     n_distractors: int = 9, vocab_size: int = 600,
                     answer_style: str = "short") -> dict:
    """Write scene images, pretraining corpora, QA splits, and the vocab file.

    Everything is a pure function of the seed; reruns overwrite byte-identically,
    and asking for more questions than the world has facts, or for a
    vocabulary too small to hold, writes nothing.
    """
    rng = Rng(seed)
    world = generate_world(rng.child("world"), n_entities=n_entities)
    keys = question_keys(world)
    n_total = n_train + n_heldout
    if n_total > len(keys):
        raise ValueError(
            f"asked for {n_total} questions but the world only has {len(keys)} facts"
        )
    vocab = Vocab.build(corpus_text_lines(world), vocab_size)
    os.makedirs(os.path.join(outdir, "images"), exist_ok=True)

    for idx, spec in enumerate(SCENE_SPECS):
        save_image_ppm(render_scene(spec), os.path.join(outdir, _scene_path(idx)))

    def write_pretrain(name, samples, kind):
        with open(os.path.join(outdir, name), "w", encoding="utf-8", newline="\n") as fh:
            for idx, prompt, target in samples:
                rec = {"image": _scene_path(idx), "prompt": prompt,
                       "target": target, "kind": kind}
                fh.write(json.dumps(rec, sort_keys=True) + "\n")

    write_pretrain("pretrain_stage1.jsonl",
                   caption_samples(n_captions, rng.child("cap1"), rich=False), "caption")
    write_pretrain("pretrain_stage2.jsonl",
                   caption_samples(n_captions, rng.child("cap2"), rich=True), "caption")
    write_pretrain("pretrain_stage3.jsonl",
                   vqa_samples(n_vqa, rng.child("vqa")), "vqa")

    order = rng.child("split").permutation(len(keys))
    chosen = [keys[int(i)] for i in order[:n_total]]

    # the "v0" id suffix and the "/0" rng tag are part of every corpus written
    # so far; dropping either would change them all
    def write_instances(name, selection, offset):
        instances = [
            build_instance(
                world, qid=f"q{offset + j:04d}v0", entity=entity, relation=relation,
                rng=rng.child(f"inst/{offset + j}/0"), n_distractors=n_distractors,
                answer_style=answer_style,
            )
            for j, (entity, relation) in enumerate(selection)
        ]
        write_dataset(instances, os.path.join(outdir, name))

    write_instances("qa_train.jsonl", chosen[:n_train], 0)
    write_instances("qa_heldout.jsonl", chosen[n_train:], n_train)

    vocab.save(os.path.join(outdir, "vocab.txt"))

    return {
        "outdir": str(outdir),
        "n_scenes": len(SCENE_SPECS),
        "n_captions": n_captions,
        "n_vqa": n_vqa,
        "n_train": n_train,
        "n_heldout": n_heldout,
        "vocab_size": vocab.size,
        "answer_style": answer_style,
    }


def load_pretrain_corpus(path) -> list[PretrainSample]:
    """Read a pretraining JSONL; image paths resolve relative to the file."""
    base = os.path.dirname(os.path.abspath(path))
    cache = {}

    def parse(rec):
        fields = [rec[k] for k in ("image", "prompt", "target", "kind")]
        if not all(isinstance(f, str) for f in fields):
            raise ValueError("image, prompt, target and kind must be strings")
        img_path = os.path.join(base, rec["image"])
        if img_path not in cache:
            cache[img_path] = load_image_ppm(img_path)
        return PretrainSample(image=cache[img_path], prompt=rec["prompt"],
                              target=rec["target"], kind=rec["kind"])

    return list(read_jsonl(path, parse, "bad pretraining record: "))
