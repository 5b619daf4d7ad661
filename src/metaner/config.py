"""Flat key=value run configuration.

One key per line, `#` comments, no sections; model hyperparameters use a
`model.` prefix. Unknown keys, bad values, input paths that are not regular
files and an `out` that is, or is under, a file are rejected with the file
name and line number. `render_config` writes every key back out explicitly,
defaults included, which is how runs record their resolved configuration next
to their artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .augment import AugConfig
from .corpus import SCHEMES
from .tagger import ModelConfig
from .textio import open_text
from .trainer import TrainerConfig

METHODS = ("baseline", "ts", "mixup", "both")


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    train: str | None = None
    dev: str | None = None
    test: str | None = None
    vectors: str | None = None
    stopwords: str | None = None
    out: str | None = None
    fraction: float = 1.0
    scheme: str = "BIOES"
    seed: int = 0
    method: str = "baseline"
    model: ModelConfig = field(default_factory=ModelConfig)
    aug: AugConfig = field(default_factory=AugConfig)
    trainer: TrainerConfig = field(default_factory=TrainerConfig)
    # The file this was parsed from and the line of each key set there, so
    # that errors found after parsing can still name the line.
    source: str | None = field(default=None, repr=False, compare=False)
    lines: dict[str, int] = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 < self.fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {self.fraction}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")

    def where(self, key: str) -> str:
        """`file:line` of `key` in the config file, or the file if it is unset there."""
        if key in self.lines:
            return f"{self.source}:{self.lines[key]}"
        return f"{self.source} (no {key} line)"

    @property
    def use_ts(self) -> bool:
        return self.method in ("ts", "both")

    @property
    def use_mixup(self) -> bool:
        return self.method in ("mixup", "both")


def _boolean(raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    raise ValueError(f"expected true or false, got {raw!r}")


# key -> (section, field, cast). Sections: run-level fields, the model
# dataclass, augmentation, and trainer; the flat file hides that split.
_KEYS: dict[str, tuple[str, str, object]] = {
    "train": ("run", "train", str),
    "dev": ("run", "dev", str),
    "test": ("run", "test", str),
    "vectors": ("run", "vectors", str),
    "stopwords": ("run", "stopwords", str),
    "out": ("run", "out", str),
    "fraction": ("run", "fraction", float),
    "scheme": ("run", "scheme", str),
    "seed": ("run", "seed", int),
    "method": ("run", "method", str),
    "model.emb_dim": ("model", "emb_dim", int),
    "model.hidden": ("model", "hidden", int),
    "model.dropout": ("model", "dropout", float),
    "model.lowercase": ("model", "lowercase", _boolean),
    "gamma": ("aug", "gamma", float),
    "p_sub": ("aug", "p_sub", float),
    "k": ("aug", "k", int),
    "times": ("aug", "times", int),
    "alpha": ("aug", "alpha", float),
    "mix_layer": ("aug", "mix_layer", str),
    "steps": ("trainer", "steps", int),
    "meta_batch": ("trainer", "m", int),
    "batch": ("trainer", "n", int),
    "lr": ("trainer", "lr", float),
    "beta": ("trainer", "beta", float),
    "delta": ("trainer", "delta", float),
    "weight_decay": ("trainer", "weight_decay", float),
    "beta1": ("trainer", "beta1", float),
    "beta2": ("trainer", "beta2", float),
    "clip": ("trainer", "clip", float),
    "eval_every": ("trainer", "eval_every", int),
    "meta_reweight": ("trainer", "meta_reweight", _boolean),
}

_PATH_KEYS = ("train", "dev", "test", "vectors", "stopwords")

# The dataclass that holds each section's fields and checks their values.
_SECTIONS = {
    "run": RunConfig,
    "model": ModelConfig,
    "aug": AugConfig,
    "trainer": TrainerConfig,
}


def parse_config(path: str | Path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    if not path.is_file():
        raise ConfigError(f"config file is not a regular file: {path}")
    sections: dict[str, dict] = {"run": {}, "model": {}, "aug": {}, "trainer": {}}
    lines: dict[str, int] = {}
    with open_text(path, ConfigError) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in _KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            if key in lines:
                raise ConfigError(
                    f"{path}:{lineno}: duplicate key {key!r} (first set on line {lines[key]})"
                )
            lines[key] = lineno
            section, attr, cast = _KEYS[key]
            try:
                sections[section][attr] = cast(value)
            except ValueError as exc:
                raise ConfigError(
                    f"{path}:{lineno}: invalid value for {key!r}: {exc}"
                ) from exc
            # Check the value on its own line: the fields set before it passed,
            # so an error here is this line's, and reports the file's values.
            try:
                _SECTIONS[section](**sections[section])
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from exc

    cfg = RunConfig(
        **sections["run"],
        model=ModelConfig(**sections["model"]),
        aug=AugConfig(**sections["aug"]),
        trainer=TrainerConfig(**sections["trainer"]),
        source=str(path),
        lines=lines,
    )
    for key in _PATH_KEYS:
        value = getattr(cfg, key)
        if value is not None:
            check_input_file(value, f"{path}:{lines.get(key, '?')}: {key}")
    if cfg.out is not None:
        check_out_dir(cfg.out, f"{path}:{lines['out']}: out")
    return cfg


def check_input_file(value: str, name: str) -> None:
    """`ConfigError` led by `name` unless `value` is a regular file."""
    if Path(value).is_file():
        return
    problem = "is not a regular file" if Path(value).exists() else "file does not exist"
    raise ConfigError(f"{name} {problem}: {value}")


def check_out_dir(out: str, name: str) -> None:
    """`ConfigError` led by `name` unless `out` and its missing parents can be made."""
    path = Path(out)
    found = next((p for p in (path, *path.parents) if p.exists()), path)
    if not found.is_dir():
        problem = "is not a directory" if found == path else f"is under {found}, a file"
        raise ConfigError(f"{name} {problem}: {out}")


def _format(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_config(cfg: RunConfig) -> str:
    """The fully resolved flat config, every key explicit."""
    out = []
    for key, (section, attr, _) in _KEYS.items():
        if section == "run":
            value = getattr(cfg, attr)
        else:
            value = getattr(getattr(cfg, section), attr)
        if value is None:
            continue  # unset paths and unset beta stay absent
        out.append(f"{key}={_format(value)}")
    return "\n".join(out) + "\n"
