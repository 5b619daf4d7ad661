"""Flat config parsing, validation diagnostics, and resolved-config rendering."""

import re
from pathlib import Path

import pytest

from metaner.config import _KEYS, ConfigError, RunConfig, parse_config, render_config

README = Path(__file__).resolve().parents[1] / "README.md"

# Three valid lines per config section.
VALID = {
    "run": ["seed=2", "fraction=0.5", "method=ts"],
    "model": ["model.hidden=4", "model.dropout=0.1", "model.emb_dim=6"],
    "aug": ["k=3", "gamma=0.5", "alpha=2.0"],
    "trainer": ["meta_batch=8", "steps=5", "lr=0.01"],
}


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestParseConfig:
    def test_empty_file_gives_defaults(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, ""))
        assert cfg == RunConfig()
        assert cfg.train is None and cfg.out is None
        assert cfg.aug.gamma == 0.2
        assert cfg.aug.alpha == 7.0
        assert cfg.aug.k == 5
        assert cfg.trainer.clip == 5.0
        assert cfg.model.dropout == 0.5

    def test_gamma_key_lands_in_aug_config(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, "gamma=0.2\n"))
        assert cfg.aug.gamma == 0.2

    def test_all_sections_addressable(self, tmp_path):
        text = (
            "fraction=0.5\n"
            "scheme=BIO\n"
            "seed=9\n"
            "method=both\n"
            "model.emb_dim=24\n"
            "model.hidden=12\n"
            "model.dropout=0.1\n"
            "model.lowercase=true\n"
            "p_sub=0.4\n"
            "times=3\n"
            "mix_layer=encoder\n"
            "steps=77\n"
            "meta_batch=4\n"
            "batch=8\n"
            "lr=0.01\n"
            "beta=0.02\n"
            "weight_decay=0.0\n"
            "eval_every=11\n"
            "meta_reweight=false\n"
        )
        cfg = parse_config(write_cfg(tmp_path, text))
        assert (cfg.fraction, cfg.scheme, cfg.seed, cfg.method) == (0.5, "BIO", 9, "both")
        assert (cfg.model.emb_dim, cfg.model.hidden) == (24, 12)
        assert cfg.model.lowercase is True
        assert (cfg.aug.p_sub, cfg.aug.times, cfg.aug.mix_layer) == (0.4, 3, "encoder")
        assert (cfg.trainer.steps, cfg.trainer.m, cfg.trainer.n) == (77, 4, 8)
        assert cfg.trainer.beta == 0.02
        assert cfg.trainer.inner_lr == 0.02
        assert cfg.trainer.meta_reweight is False
        assert cfg.use_ts and cfg.use_mixup

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        cfg = parse_config(
            write_cfg(tmp_path, "# header\n\nseed=3  # trailing comment\n")
        )
        assert cfg.seed == 3

    def test_unknown_key_names_line(self, tmp_path):
        path = write_cfg(tmp_path, "seed=1\nbogus=2\n")
        with pytest.raises(ConfigError, match=r"run\.cfg:2: unknown key 'bogus'"):
            parse_config(path)

    def test_type_error_names_key_and_line(self, tmp_path):
        path = write_cfg(tmp_path, "steps=soon\n")
        with pytest.raises(ConfigError, match=r"run\.cfg:1: invalid value for 'steps'"):
            parse_config(path)

    def test_negative_alpha_rejected_with_line(self, tmp_path):
        path = write_cfg(tmp_path, "seed=0\nalpha=-1\n")
        with pytest.raises(ConfigError, match=r"run\.cfg:2: alpha"):
            parse_config(path)

    def test_bad_batch_blames_its_own_line(self, tmp_path):
        path = write_cfg(tmp_path, "seed=1\nmeta_batch=8\nbatch=0\n", name="a.cfg")
        with pytest.raises(
            ConfigError, match=r"^[^:]*a\.cfg:3: batch sizes must be >= 1, got m=8, n=0$"
        ):
            parse_config(path)

    @pytest.mark.parametrize(
        "line",
        [
            "fraction=2.0",
            "seed=-1",
            "scheme=IOB2",
            "method=banana",
            "model.emb_dim=0",
            "model.hidden=0",
            "model.dropout=1.0",
            "gamma=1.5",
            "p_sub=-0.1",
            "k=0",
            "times=-1",
            "alpha=0",
            "mix_layer=crf",
            "steps=-1",
            "meta_batch=0",
            "batch=0",
            "lr=0",
            "beta=-1",
            "delta=0",
            "weight_decay=-1",
            "beta1=1.0",
            "beta2=1.0",
            "clip=0",
            "eval_every=0",
        ],
    )
    def test_bad_value_blames_the_line_that_sets_it(self, tmp_path, line):
        # Between two valid keys of its own section, on line 2.
        key = line.split("=")[0]
        neighbours = [n for n in VALID[_KEYS[key][0]] if n.split("=")[0] != key][:2]
        text = f"{neighbours[0]}\n{line}\n{neighbours[1]}\n"
        with pytest.raises(ConfigError, match=r"run\.cfg:2: "):
            parse_config(write_cfg(tmp_path, text))

    def test_duplicate_key_rejected(self, tmp_path):
        path = write_cfg(tmp_path, "seed=1\nseed=2\n")
        with pytest.raises(ConfigError, match="duplicate key 'seed'"):
            parse_config(path)

    def test_line_without_equals_rejected(self, tmp_path):
        path = write_cfg(tmp_path, "just some words\n")
        with pytest.raises(ConfigError, match="expected key=value"):
            parse_config(path)

    @pytest.mark.parametrize(
        "line",
        ["fraction=0.0", "fraction=1.5", "scheme=IOB2", "method=banana", "mix_layer=crf"],
    )
    def test_domain_violations_rejected(self, tmp_path, line):
        with pytest.raises(ConfigError):
            parse_config(write_cfg(tmp_path, line + "\n"))

    def test_boolean_is_case_insensitive_but_strict(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, "meta_reweight=FALSE\n"))
        assert cfg.trainer.meta_reweight is False
        with pytest.raises(ConfigError, match="true or false"):
            parse_config(write_cfg(tmp_path, "meta_reweight=2\n", name="b.cfg"))

    def test_missing_referenced_path_rejected(self, tmp_path):
        path = write_cfg(tmp_path, "train=/nonexistent/file.conll\n")
        with pytest.raises(ConfigError, match="train file does not exist"):
            parse_config(path)

    def test_out_dir_may_not_exist_yet(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, f"out={tmp_path}/not-created-yet\n"))
        assert cfg.out.endswith("not-created-yet")

    def test_missing_config_file_rejected(self):
        with pytest.raises(ConfigError, match="not found"):
            parse_config("/nonexistent/run.cfg")


class TestRenderConfig:
    def test_round_trip_preserves_everything(self, tmp_path):
        data = tmp_path / "train.conll"
        data.write_text("a O\n\n")
        text = f"train={data}\nseed=5\ngamma=0.35\nsteps=9\nbeta=0.007\nmethod=ts\n"
        cfg = parse_config(write_cfg(tmp_path, text))
        rendered = write_cfg(tmp_path, render_config(cfg), name="resolved.cfg")
        assert parse_config(rendered) == cfg

    def test_defaults_are_explicit(self, tmp_path):
        rendered = render_config(parse_config(write_cfg(tmp_path, "")))
        for expected in ("gamma=0.2", "alpha=7.0", "k=5", "clip=5.0", "model.dropout=0.5"):
            assert expected in rendered.split("\n")

    def test_unset_optionals_are_absent(self, tmp_path):
        rendered = render_config(parse_config(write_cfg(tmp_path, "")))
        keys = {line.split("=")[0] for line in rendered.strip().split("\n")}
        assert "train" not in keys
        assert "beta" not in keys


class TestReadme:
    def test_config_keys_table_lists_every_key(self):
        text = README.read_text(encoding="utf-8")
        table = text.split("## Config keys", 1)[1].split("\n## ", 1)[0]
        keys = []
        for row in re.findall(r"^\| (`.+?`(?: / `.+?`)*) \|", table, flags=re.M):
            keys.extend(cell.strip("`") for cell in row.split(" / "))
        assert sorted(keys) == sorted(_KEYS)
        assert len(keys) == len(set(keys))
