"""Dataclass configs for model construction, selection, generation, training.

Named profiles: ``base`` and ``large`` mirror the published component table
(hidden 768, 12/12 layers, 12 heads; hidden 1024, 24/24 layers, 16 heads)
and are constructible for shape checks; ``desk`` is the small configuration
everything in this repo actually trains.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field


def _check_rate(name: str, rate):
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"config field {name} must lie in [0, 1), got {rate!r}")


@dataclass
class VisionConfig:
    patch_size: int = 8
    hidden_size: int = 64
    n_layers: int = 2
    n_heads: int = 4
    image_size: int = 32
    llrd_factor: float = 0.5

    def __post_init__(self):
        if self.hidden_size % self.n_heads:
            raise ValueError(
                f"vision hidden_size {self.hidden_size} not divisible by n_heads {self.n_heads}"
            )

    @property
    def n_patches(self) -> int:
        side = self.image_size // self.patch_size
        return side * side


@dataclass
class LmConfig:
    hidden_size: int = 64
    n_enc_layers: int = 2
    n_dec_layers: int = 2
    n_heads: int = 4
    vocab_size: int = 512
    max_len: int = 256
    dropout_rate: float = 0.0

    def __post_init__(self):
        if self.hidden_size % self.n_heads:
            raise ValueError(
                f"lm hidden_size {self.hidden_size} not divisible by n_heads {self.n_heads}"
            )
        _check_rate("lm.dropout_rate", self.dropout_rate)


@dataclass
class ModelConfig:
    vision: VisionConfig = field(default_factory=VisionConfig)
    lm: LmConfig = field(default_factory=LmConfig)
    head_dropout: float = 0.0

    def __post_init__(self):
        if self.vision.hidden_size != self.lm.hidden_size:
            raise ValueError(
                "vision and language hidden sizes must be identical for direct injection, "
                f"got {self.vision.hidden_size} vs {self.lm.hidden_size}"
            )
        _check_rate("head_dropout", self.head_dropout)

    @property
    def n_img_tokens(self) -> int:
        return self.vision.n_patches


@dataclass
class SelectionConfig:
    """Relative-threshold + top-k context selection."""

    tau: float = 0.5
    k: int = 5

    def __post_init__(self):
        if not 0.0 < self.tau <= 1.0:
            raise ValueError(f"tau must lie in (0, 1], got {self.tau}")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")


@dataclass
class GenerationConfig:
    """Greedy decoding limits: 64 new tokens suits short-answer corpora,
    128 sentence-answer corpora."""

    max_new_tokens: int = 64
    eos_id: int = 1

    def __post_init__(self):
        if self.max_new_tokens < 1:
            raise ValueError("max_new_tokens must be >= 1")


# Instructional prefix prepended to every QA model input. Kept in config so
# experiments can vary the wording.
QA_PROMPT = "answer the question using the given contexts:"


@dataclass
class StageConfig:
    """One pretraining stage: which components train and with what schedule."""

    stage: int
    trainable: str  # "VE" | "VE+LM" | "LM"
    global_batch: int
    epochs: int
    lm_lr: float | None
    ve_lr: float | None
    ve_llrd_factor: float | None
    weight_decay: float = 0.05

    def __post_init__(self):
        if self.trainable not in ("VE", "VE+LM", "LM"):
            raise ValueError(f"unknown trainable set {self.trainable!r}")


def pretrain_stage_defaults(stage: int) -> StageConfig:
    """Published per-stage schedule: stage 1 trains the vision encoder alone,
    stage 2 trains both components jointly, stage 3 the language model alone."""
    table = {
        1: StageConfig(1, "VE", 256, 1, None, 1e-3, 0.5),
        2: StageConfig(2, "VE+LM", 128, 1, 1e-4, 5e-4, 0.5),
        3: StageConfig(3, "LM", 128, 1, 1e-4, None, None),
    }
    if stage not in table:
        raise ValueError(f"stage must be 1, 2 or 3, got {stage}")
    return table[stage]


def desk_stage_config(stage: int) -> StageConfig:
    """Desk-scale overrides: tiny batches and more epochs because the desk
    backbone starts from random weights. Stage 2 keeps the published 5:1
    vision-to-language lr ratio; hotter rates were observed to collapse the
    vision encoder's information content at this scale."""
    cfg = pretrain_stage_defaults(stage)
    cfg.global_batch = 8
    if stage == 1:
        cfg.epochs = 2
        cfg.ve_lr = 1e-3
    elif stage == 2:
        cfg.epochs = 24
        cfg.ve_lr = 1e-3
        cfg.lm_lr = 2e-4
    else:
        cfg.epochs = 24
        cfg.lm_lr = 1e-3
    return cfg


@dataclass
class FinetuneConfig:
    """Fine-tuning schedule for one head; vision encoder frozen in both."""

    task: str  # "reranker" | "qa"
    global_batch: int
    epochs: int
    lr: float
    weight_decay: float = 0.05

    def __post_init__(self):
        if self.task not in ("reranker", "qa"):
            raise ValueError(f"unknown finetune task {self.task!r}")


def finetune_defaults(task: str) -> FinetuneConfig:
    table = {
        "reranker": FinetuneConfig("reranker", 256, 3, 2e-4),
        "qa": FinetuneConfig("qa", 16, 5, 5e-5),
    }
    if task not in table:
        raise ValueError(f"task must be 'reranker' or 'qa', got {task}")
    return table[task]


def desk_finetune_config(task: str) -> FinetuneConfig:
    cfg = finetune_defaults(task)
    if task == "reranker":
        cfg.global_batch = 8  # per-question document batch size
        cfg.lr = 2e-3
    else:
        cfg.global_batch = 4
        cfg.lr = 1.5e-3
        cfg.epochs = 12
    return cfg


def model_profile(name: str, vocab_size: int = 512) -> ModelConfig:
    """Construct a named model profile; 'base'/'large' mirror the published
    component table, 'desk' is the trainable small configuration."""
    if name == "base":
        return ModelConfig(
            vision=VisionConfig(patch_size=16, hidden_size=768, n_layers=12, n_heads=12, image_size=224),
            lm=LmConfig(hidden_size=768, n_enc_layers=12, n_dec_layers=12, n_heads=12,
                        vocab_size=vocab_size, max_len=512, dropout_rate=0.05),
            head_dropout=0.05,
        )
    if name == "large":
        return ModelConfig(
            vision=VisionConfig(patch_size=16, hidden_size=1024, n_layers=24, n_heads=16, image_size=224),
            lm=LmConfig(hidden_size=1024, n_enc_layers=24, n_dec_layers=24, n_heads=16,
                        vocab_size=vocab_size, max_len=512, dropout_rate=0.1),
            head_dropout=0.1,
        )
    if name == "desk":
        return ModelConfig(
            vision=VisionConfig(),
            lm=LmConfig(vocab_size=vocab_size),
            head_dropout=0.0,
        )
    raise ValueError(f"unknown profile {name!r} (expected base, large or desk)")


def config_to_dict(cfg: ModelConfig) -> dict:
    return dataclasses.asdict(cfg)


def _check_field(name: str, default, val):
    """Snapshot values keep their default's type; integer fields are sizes
    and counts, so they must be >= 1."""
    if isinstance(default, int):
        ok = isinstance(val, int) and not isinstance(val, bool) and val >= 1
        kind = "an integer >= 1"
    else:
        ok = isinstance(val, (int, float)) and not isinstance(val, bool) and math.isfinite(val)
        kind = "a finite number"
    if not ok:
        raise ValueError(f"config field {name} must be {kind}, got {val!r}")


def _section_from_dict(cls, d, section: str):
    if not isinstance(d, dict):
        raise ValueError(f"config section {section!r} must be an object, got {type(d).__name__}")
    defaults = {f.name: f.default for f in dataclasses.fields(cls)}
    unknown = sorted(set(d) - set(defaults))
    if unknown:
        raise ValueError(f"unknown {section} config fields {unknown}")
    for key, val in d.items():
        _check_field(f"{section}.{key}", defaults[key], val)
    return cls(**d)


def config_from_dict(d: dict) -> ModelConfig:
    """Inverse of ``config_to_dict``. Malformed input raises ValueError
    naming the offending section or field."""
    if not isinstance(d, dict):
        raise ValueError(f"config must be an object, got {type(d).__name__}")
    unknown = sorted(set(d) - {"vision", "lm", "head_dropout"})
    if unknown:
        raise ValueError(f"unknown config fields {unknown}")
    for section in ("vision", "lm"):
        if section not in d:
            raise ValueError(f"config has no {section!r} section")
    head_dropout = d.get("head_dropout", 0.0)
    _check_field("head_dropout", 0.0, head_dropout)
    return ModelConfig(
        vision=_section_from_dict(VisionConfig, d["vision"], "vision"),
        lm=_section_from_dict(LmConfig, d["lm"], "lm"),
        head_dropout=head_dropout,
    )
