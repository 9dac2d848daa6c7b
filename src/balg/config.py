"""Suite configuration: JSON parsing with strict validation.

Schema::

    {
      "algebras": [{"name": str, "kind": "powerset" | "finite_cofinite",
                    "atoms": int?, "trivial": bool?}, ...],
      "suites": [str, ...],
      "trials": int?,          # default 200
      "seed": int?,            # default 0, unsigned 64-bit
      "caps": {"max_atoms": int?, "max_subset_enum": int?}?
    }

Unknown keys are rejected anywhere.  Each requested suite must find the
backends it exercises among the declared algebras.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .algebra import (Algebra, FINITE_COFINITE, MAX_ATOMS, POWERSET,
                      finite_cofinite, powerset, trivial_algebra)

SUITE_NAMES = ("core_axioms", "homomorphisms", "free_product", "place_addition",
               "regularity", "tensor_iso", "universal_property", "bands",
               "completeness")


class ConfigError(ValueError):
    """Schema violation, with the offending field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


@dataclass(frozen=True)
class Caps:
    max_atoms: int = MAX_ATOMS
    max_subset_enum: int = 4


@dataclass(frozen=True)
class SuiteConfig:
    algebras: tuple[Algebra, ...]
    suites: tuple[str, ...]
    trials: int = 200
    seed: int = 0
    caps: Caps = field(default_factory=Caps)

    # the algebras the suites exercise, in declaration order; the small
    # powersets are those whose subsets completeness enumerates
    @property
    def nontrivial(self) -> tuple[Algebra, ...]:
        return tuple(a for a in self.algebras if not a.is_trivial)

    @property
    def powersets(self) -> tuple[Algebra, ...]:
        return tuple(a for a in self.nontrivial if a.kind == POWERSET)

    @property
    def fincofs(self) -> tuple[Algebra, ...]:
        return tuple(a for a in self.algebras if a.kind == FINITE_COFINITE)

    @property
    def small_powersets(self) -> tuple[Algebra, ...]:
        return tuple(a for a in self.powersets
                     if a.atom_count <= self.caps.max_subset_enum)

    def echo(self) -> dict:
        return {
            "algebras": [_algebra_dict(a) for a in self.algebras],
            "suites": list(self.suites),
            "trials": self.trials,
            "seed": self.seed,
            "caps": {"max_atoms": self.caps.max_atoms,
                     "max_subset_enum": self.caps.max_subset_enum},
        }


def _algebra_dict(a: Algebra) -> dict:
    out = {"name": a.name, "kind": a.kind}
    if a.is_trivial:
        out["trivial"] = True
    elif a.kind == POWERSET:
        out["atoms"] = a.atom_count
    return out


def _expect(obj, path: str, typ, what: str):
    if not isinstance(obj, typ) or isinstance(obj, bool) and typ is int:
        raise ConfigError(path, f"must be {what}")
    return obj


def _reject_unknown(obj: dict, path: str, allowed: set[str]) -> None:
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}", "unknown key")


def parse_config(text: str) -> SuiteConfig:
    """Parse and validate a JSON configuration."""
    try:
        data = json.loads(text)
    except ValueError as exc:
        # JSONDecodeError, or an integer past the interpreter's digit limit
        raise ConfigError("$", f"invalid JSON: {exc}") from None
    _expect(data, "$", dict, "an object")
    _reject_unknown(data, "$", {"algebras", "suites", "trials", "seed", "caps"})

    caps_raw = data.get("caps", {})
    _expect(caps_raw, "$.caps", dict, "an object")
    _reject_unknown(caps_raw, "$.caps", {"max_atoms", "max_subset_enum"})
    max_atoms = _expect(caps_raw.get("max_atoms", MAX_ATOMS), "$.caps.max_atoms",
                        int, "an integer")
    max_subset = _expect(caps_raw.get("max_subset_enum", 4), "$.caps.max_subset_enum",
                         int, "an integer")
    if not 1 <= max_atoms <= MAX_ATOMS:
        raise ConfigError("$.caps.max_atoms", f"must be 1..{MAX_ATOMS}")
    if not 1 <= max_subset <= 4:
        raise ConfigError("$.caps.max_subset_enum", "must be 1..4")
    caps = Caps(max_atoms, max_subset)

    raw_algs = _expect(data.get("algebras"), "$.algebras", list, "an array")
    if not raw_algs:
        raise ConfigError("$.algebras", "at least one algebra is required")
    algebras = []
    names = set()
    for i, entry in enumerate(raw_algs):
        path = f"$.algebras[{i}]"
        _expect(entry, path, dict, "an object")
        _reject_unknown(entry, path, {"name", "kind", "atoms", "trivial"})
        name = _expect(entry.get("name"), f"{path}.name", str, "a string")
        if not name or name in names:
            raise ConfigError(f"{path}.name", "must be a unique identifier")
        names.add(name)
        kind = _expect(entry.get("kind"), f"{path}.kind", str, "a string")
        trivial = entry.get("trivial", False)
        _expect(trivial, f"{path}.trivial", bool, "a boolean")
        if trivial:
            if kind != POWERSET:
                raise ConfigError(f"{path}.trivial", "only powerset algebras may be trivial")
            if "atoms" in entry:
                raise ConfigError(f"{path}.atoms", "a trivial algebra takes no atom count")
            algebras.append(trivial_algebra(name))
            continue
        if kind == POWERSET:
            atoms = _expect(entry.get("atoms"), f"{path}.atoms", int, "an integer")
            if not 1 <= atoms <= caps.max_atoms:
                raise ConfigError(f"{path}.atoms",
                                  f"cap exceeded: must be 1..{caps.max_atoms}")
            algebras.append(powerset(atoms, name))
        elif kind == FINITE_COFINITE:
            if "atoms" in entry:
                raise ConfigError(f"{path}.atoms", "finite_cofinite takes no atom count")
            algebras.append(finite_cofinite(name))
        else:
            raise ConfigError(f"{path}.kind",
                              "must be 'powerset' or 'finite_cofinite'")

    raw_suites = _expect(data.get("suites"), "$.suites", list, "an array")
    if not raw_suites:
        raise ConfigError("$.suites", "at least one suite is required")
    suites = []
    for i, s in enumerate(raw_suites):
        _expect(s, f"$.suites[{i}]", str, "a string")
        if s not in SUITE_NAMES:
            raise ConfigError(f"$.suites[{i}]",
                              f"unknown suite {s!r}; known: {', '.join(SUITE_NAMES)}")
        if s not in suites:
            suites.append(s)

    trials = _expect(data.get("trials", 200), "$.trials", int, "an integer")
    if trials < 1:
        raise ConfigError("$.trials", "must be a positive count")
    seed = _expect(data.get("seed", 0), "$.seed", int, "an integer")
    if not 0 <= seed < 1 << 64:
        raise ConfigError("$.seed", "must be unsigned 64-bit")

    cfg = SuiteConfig(tuple(algebras), tuple(suites), trials, seed, caps)
    _check_suite_requirements(cfg)
    return cfg


def _check_suite_requirements(cfg: SuiteConfig) -> None:
    """Every requested suite must reference declared algebras of the kinds
    it exercises."""
    def need(suite: str, ok: bool, what: str) -> None:
        if suite in cfg.suites and not ok:
            raise ConfigError("$.suites",
                              f"suite {suite!r} references no declared {what}")

    need("homomorphisms", bool(cfg.powersets), "nontrivial powerset algebra")
    need("free_product", bool(cfg.nontrivial), "nontrivial algebra")
    need("place_addition", bool(cfg.nontrivial), "nontrivial algebra")
    need("regularity", bool(cfg.nontrivial), "nontrivial algebra")
    need("tensor_iso", bool(cfg.powersets), "nontrivial powerset algebra")
    need("universal_property", bool(cfg.powersets), "nontrivial powerset algebra")
    need("completeness", bool(cfg.small_powersets),
         "powerset algebra within the subset-enumeration cap")
    need("completeness", bool(cfg.fincofs), "finite_cofinite algebra")


def default_config() -> SuiteConfig:
    """Two small powersets plus the finite-cofinite backend, all suites."""
    return parse_config(json.dumps(default_config_dict()))


def default_config_dict() -> dict:
    return {
        "algebras": [
            {"name": "A", "kind": "powerset", "atoms": 2},
            {"name": "B", "kind": "powerset", "atoms": 3},
            {"name": "N", "kind": "finite_cofinite"},
        ],
        "suites": list(SUITE_NAMES),
        "trials": 200,
        "seed": 0,
    }
