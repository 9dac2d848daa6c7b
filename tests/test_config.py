import json

import pytest

from balg.config import ConfigError, SUITE_NAMES, default_config, parse_config


def cfg_text(**overrides):
    base = {
        "algebras": [{"name": "A", "kind": "powerset", "atoms": 2}],
        "suites": ["core_axioms"],
    }
    base.update(overrides)
    return json.dumps(base)


class TestParse:
    def test_minimal(self):
        cfg = parse_config(cfg_text())
        assert cfg.algebras[0].atom_count == 2
        assert cfg.suites == ("core_axioms",)
        assert cfg.trials == 200 and cfg.seed == 0

    def test_full(self):
        cfg = parse_config(cfg_text(
            algebras=[{"name": "A", "kind": "powerset", "atoms": 3},
                      {"name": "N", "kind": "finite_cofinite"},
                      {"name": "T", "kind": "powerset", "trivial": True}],
            suites=["core_axioms", "completeness"],
            trials=50, seed=7, caps={"max_atoms": 8, "max_subset_enum": 3}))
        assert len(cfg.algebras) == 3
        assert cfg.algebras[2].is_trivial
        assert cfg.caps.max_atoms == 8

    def test_suite_algebra_selections(self):
        cfg = parse_config(cfg_text(
            algebras=[{"name": "T", "kind": "powerset", "trivial": True},
                      {"name": "B", "kind": "powerset", "atoms": 4},
                      {"name": "N", "kind": "finite_cofinite"},
                      {"name": "A", "kind": "powerset", "atoms": 2}],
            caps={"max_subset_enum": 3}))
        names = lambda algs: [a.name for a in algs]  # noqa: E731
        assert names(cfg.nontrivial) == ["B", "N", "A"]
        assert names(cfg.powersets) == ["B", "A"]
        assert names(cfg.fincofs) == ["N"]
        assert names(cfg.small_powersets) == ["A"]

    def test_default_config_valid(self):
        cfg = default_config()
        assert set(cfg.suites) == set(SUITE_NAMES)

    def test_echo_roundtrip(self):
        cfg = default_config()
        assert parse_config(json.dumps(cfg.echo())).echo() == cfg.echo()


class TestRejection:
    def test_atom_cap_exceeded(self):
        with pytest.raises(ConfigError, match="cap exceeded"):
            parse_config(cfg_text(
                algebras=[{"name": "A", "kind": "powerset", "atoms": 20}]))

    def test_cap_override_tightens(self):
        with pytest.raises(ConfigError, match="cap exceeded"):
            parse_config(cfg_text(
                algebras=[{"name": "A", "kind": "powerset", "atoms": 9}],
                caps={"max_atoms": 8}))

    def test_unknown_keys(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(cfg_text(extra=1))
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(cfg_text(
                algebras=[{"name": "A", "kind": "powerset", "atoms": 2, "x": 1}]))

    def test_unknown_suite(self):
        with pytest.raises(ConfigError, match="unknown suite"):
            parse_config(cfg_text(suites=["nope"]))

    def test_suite_requirements(self):
        # tensor checks need a powerset backend among the declared algebras
        with pytest.raises(ConfigError, match="tensor_iso"):
            parse_config(cfg_text(
                algebras=[{"name": "N", "kind": "finite_cofinite"}],
                suites=["tensor_iso"]))
        # completeness needs both a small powerset and a finite_cofinite
        with pytest.raises(ConfigError, match="completeness"):
            parse_config(cfg_text(suites=["completeness"]))
        with pytest.raises(ConfigError, match="completeness"):
            parse_config(cfg_text(
                algebras=[{"name": "N", "kind": "finite_cofinite"}],
                suites=["completeness"]))

    def test_bad_values(self):
        with pytest.raises(ConfigError):
            parse_config(cfg_text(trials=0))
        with pytest.raises(ConfigError):
            parse_config(cfg_text(seed=-1))
        with pytest.raises(ConfigError):
            parse_config(cfg_text(seed=1 << 64))
        with pytest.raises(ConfigError):
            parse_config(cfg_text(suites=[]))
        with pytest.raises(ConfigError):
            parse_config(cfg_text(algebras=[]))
        with pytest.raises(ConfigError):
            parse_config(cfg_text(
                algebras=[{"name": "A", "kind": "powerset"}]))
        with pytest.raises(ConfigError):
            parse_config(cfg_text(
                algebras=[{"name": "N", "kind": "finite_cofinite", "atoms": 3}]))
        with pytest.raises(ConfigError):
            parse_config(cfg_text(
                algebras=[{"name": "A", "kind": "measure"}]))

    def test_duplicate_names(self):
        with pytest.raises(ConfigError):
            parse_config(cfg_text(
                algebras=[{"name": "A", "kind": "powerset", "atoms": 2},
                          {"name": "A", "kind": "finite_cofinite"}]))

    def test_invalid_json(self):
        with pytest.raises(ConfigError, match="invalid JSON"):
            parse_config("{")

    def test_booleans_are_not_counts(self):
        with pytest.raises(ConfigError):
            parse_config(cfg_text(trials=True))
