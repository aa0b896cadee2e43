"""Experiment configuration: a line-oriented key-value format with sections.

Grammar (documented in docs/config_format.md): blank lines and lines whose
first non-space character is '#' are ignored; '[name]' opens a section;
'key = value' assigns within the current section. Values are plain tokens,
space-separated lists, or ';'-separated matrix rows. Each key is declared
once, in _KEYS, and both the parser and the serializer walk that table. The
serializer emits a canonical form that parses back to an equal config (floats
via repr, so the round trip is a fixed point).
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields, replace

import numpy as np

from .downstream import BelgicParams, validate_params
from .env import BanditInstance, build_instance, random_instance, REWARD_MODELS
from .upstream import ucb_certificate

MODES = ("property", "no-property")
UPSTREAM_POLICIES = ("ucb", "best_response")
DOWNSTREAM_POLICIES = {
    "property": ("belgic", "oracle", "zero"),
    "no-property": ("naive", "best_response"),
}
TRAJECTORY_MODES = ("none", "full")

class ConfigError(ValueError):
    """Config problem; carries the 1-based line number when one applies."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


@dataclass(frozen=True)
class GameConfig:
    mode: str
    n_arms: int
    horizon: int
    seeds: tuple[int, ...]
    v_up: tuple[float, ...] | None = None
    v_down: tuple[tuple[float, ...], ...] | None = None
    reward_model: str = "gaussian"
    generate_seed: int | None = None
    require_misaligned: bool = False
    alpha: float = 0.75
    beta: float = 0.25
    upstream_policy: str = "ucb"
    c_mode: str = "theoretical"
    downstream_policy: str = ""  # filled with the mode default when blank
    output_dir: str = "runs"
    trajectory: str = "none"


def _number(kind, label: str):
    """Parser for one int or float token; errors name the key."""
    noun = "an integer" if kind is int else "a number"

    def parse(raw: str, line: int):
        try:
            return kind(raw)
        except ValueError:
            raise ConfigError(f"{label} must be {noun}, got {raw!r}", line) from None

    return parse


def _items(parse_item, sep: str | None = None):
    """Parser for a list of tokens split at sep (default: whitespace)."""
    return lambda raw, line: tuple(parse_item(tok, line) for tok in raw.split(sep))


def _choice(choices: tuple[str, ...], label: str):
    def parse(raw: str, line: int) -> str:
        if raw not in choices:
            raise ConfigError(f"{label} must be one of {choices}, got {raw!r}", line)
        return raw

    return parse


def _flag(label: str):
    words = {"yes": True, "true": True, "1": True, "no": False, "false": False, "0": False}

    def parse(raw: str, line: int) -> bool:
        try:
            return words[raw.lower()]
        except KeyError:
            raise ConfigError(f"{label} must be yes/no, got {raw!r}", line) from None

    return parse


def _parse_c_mode_text(raw: str, line: int) -> str:
    """The mode in canonical form, so every spelling of a scale is one config."""
    scale = _parse_c_mode(raw, line)
    return "theoretical" if scale is None else f"fixed:{scale!r}"


def _text(raw: str, line: int) -> str:
    return raw


def _join(render, sep: str = " "):
    return lambda values: sep.join(map(render, values))


# One entry per key, in canonical order: (section, key, GameConfig field,
# parse(raw, line), render(value)). A key is required exactly when its field
# has no default.
_KEYS = (
    ("game", "mode", "mode", _choice(MODES, "mode"), str),
    ("game", "arms", "n_arms", _number(int, "arms"), str),
    ("game", "horizon", "horizon", _number(int, "horizon"), str),
    ("game", "seeds", "seeds", _items(_number(int, "seed")), _join(str)),
    ("instance", "v_up", "v_up", _items(_number(float, "v_up entry")), _join(repr)),
    ("instance", "v_down", "v_down",
     _items(_items(_number(float, "v_down entry")), ";"), _join(_join(repr), " ; ")),
    ("instance", "generate_seed", "generate_seed", _number(int, "generate_seed"), str),
    ("instance", "require_misaligned", "require_misaligned",
     _flag("require_misaligned"), lambda flag: "yes" if flag else "no"),
    ("instance", "reward_model", "reward_model", _choice(REWARD_MODELS, "reward_model"), str),
    ("params", "alpha", "alpha", _number(float, "alpha"), repr),
    ("params", "beta", "beta", _number(float, "beta"), repr),
    ("upstream", "policy", "upstream_policy", _choice(UPSTREAM_POLICIES, "upstream policy"), str),
    ("upstream", "c_mode", "c_mode", _parse_c_mode_text, str),
    ("downstream", "policy", "downstream_policy", _text, str),
    ("output", "dir", "output_dir", _text, str),
    ("output", "trajectory", "trajectory", _choice(TRAJECTORY_MODES, "trajectory"), str),
)
_SECTIONS = {section: [k for s, k, *_ in _KEYS if s == section] for section, *_ in _KEYS}
_REQUIRED = {f.name for f in fields(GameConfig) if f.default is MISSING}


def parse_config(text: str) -> GameConfig:
    """Parse and semantically validate a config document."""
    values: dict[tuple[str, str], tuple[str, int]] = {}
    section: str | None = None
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                raise ConfigError(
                    f"unknown section [{section}]; expected one of "
                    + ", ".join(f"[{s}]" for s in _SECTIONS),
                    line_no,
                )
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value' or a [section] header, got {raw_line!r}", line_no)
        if section is None:
            raise ConfigError("assignment before any [section] header", line_no)
        key, _, raw_value = line.partition("=")
        key = key.strip()
        value = raw_value.strip()
        if key not in _SECTIONS[section]:
            raise ConfigError(
                f"unknown key {key!r} in [{section}]; expected one of {', '.join(_SECTIONS[section])}",
                line_no,
            )
        if (section, key) in values:
            raise ConfigError(f"duplicate key {key!r} in [{section}]", line_no)
        values[(section, key)] = (value, line_no)

    parsed = {}
    for section, key, field, parse, _ in _KEYS:
        got = values.get((section, key))
        if got is not None:
            parsed[field] = parse(*got)
        elif field in _REQUIRED:
            raise ConfigError(f"missing required key {key!r} in [{section}]")
    cfg = GameConfig(**parsed)
    if not cfg.downstream_policy:
        cfg = replace(
            cfg, downstream_policy="belgic" if cfg.mode == "property" else "naive"
        )
    validate_config(cfg)
    return cfg


def _parse_c_mode(raw: str, line: int | None) -> float | None:
    """Returns the fixed scale, or None for the theoretical mode."""
    if raw == "theoretical":
        return None
    if raw.startswith("fixed:"):
        try:
            scale = float(raw[len("fixed:") :])
        except ValueError:
            raise ConfigError(f"bad fixed scale in c_mode {raw!r}", line) from None
        if scale < 0.0:
            raise ConfigError(f"c_mode fixed scale must be >= 0, got {scale}", line)
        return scale
    raise ConfigError(f"c_mode must be 'theoretical' or 'fixed:<scale>', got {raw!r}", line)


def validate_config(cfg: GameConfig) -> None:
    """Semantic checks that need the whole config (no line numbers)."""
    if cfg.n_arms < 1:
        raise ConfigError(f"arms must be >= 1, got {cfg.n_arms}")
    if cfg.horizon < 1:
        raise ConfigError(f"horizon must be >= 1, got {cfg.horizon}")
    if not cfg.seeds:
        raise ConfigError("need at least one seed")
    if len(set(cfg.seeds)) != len(cfg.seeds):
        raise ConfigError(f"seeds must be pairwise distinct, got {cfg.seeds}")
    if any(s < 0 for s in cfg.seeds):
        raise ConfigError("seeds must be >= 0")
    explicit = cfg.v_up is not None or cfg.v_down is not None
    generated = cfg.generate_seed is not None
    if explicit and generated:
        raise ConfigError("give either explicit means or generate_seed, not both")
    if not explicit and not generated:
        raise ConfigError("instance needs v_up/v_down or generate_seed")
    if generated and cfg.generate_seed < 0:
        raise ConfigError("generate_seed must be >= 0")
    if cfg.require_misaligned and not generated:
        raise ConfigError("require_misaligned applies only with generate_seed")
    if cfg.require_misaligned and cfg.n_arms < 2:
        raise ConfigError(
            f"require_misaligned needs arms >= 2, got arms = {cfg.n_arms}: "
            "a one-arm instance is never misaligned"
        )
    _choice(REWARD_MODELS, "reward_model")(cfg.reward_model, None)
    if explicit:
        if cfg.v_up is None or cfg.v_down is None:
            raise ConfigError("explicit instances need both v_up and v_down")
        if len(cfg.v_up) != cfg.n_arms:
            raise ConfigError(f"v_up has {len(cfg.v_up)} entries but arms = {cfg.n_arms}")
        build_instance(cfg.v_up, cfg.v_down, cfg.reward_model)  # full mean/shape checks
    _choice(MODES, "mode")(cfg.mode, None)
    _choice(UPSTREAM_POLICIES, "upstream policy")(cfg.upstream_policy, None)
    _choice(TRAJECTORY_MODES, "trajectory")(cfg.trajectory, None)
    allowed = DOWNSTREAM_POLICIES[cfg.mode]
    if cfg.downstream_policy not in allowed:
        raise ConfigError(
            f"downstream policy {cfg.downstream_policy!r} not valid in {cfg.mode} mode; "
            f"expected one of {allowed}"
        )
    if cfg.upstream_policy == "ucb" and cfg.horizon < cfg.n_arms:
        raise ConfigError(
            f"horizon {cfg.horizon} cannot fit the forced exploration of {cfg.n_arms} arms"
        )
    canonical = _parse_c_mode_text(cfg.c_mode, None)
    if cfg.c_mode != canonical:
        raise ConfigError(f"c_mode must be in canonical form {canonical!r}, got {cfg.c_mode!r}")
    if cfg.mode == "property" and cfg.downstream_policy == "belgic":
        try:
            validate_params(belgic_params(cfg, cfg.horizon))
        except ValueError as exc:
            raise ConfigError(f"invalid search parameters: {exc}") from None


def resolve_certificate(cfg: GameConfig, horizon: int) -> float:
    """The certificate scale c_mode asks for at this horizon."""
    fixed = _parse_c_mode(cfg.c_mode, None)
    return ucb_certificate(cfg.n_arms, horizon) if fixed is None else fixed


def belgic_params(cfg: GameConfig, horizon: int) -> BelgicParams:
    return BelgicParams(
        n_arms=cfg.n_arms,
        horizon=horizon,
        alpha=cfg.alpha,
        beta=cfg.beta,
        scale=resolve_certificate(cfg, horizon),
    )


def config_instance(cfg: GameConfig) -> BanditInstance:
    """Materialize the instance: explicit means, or a seeded uniform draw."""
    if cfg.v_up is not None:
        return build_instance(cfg.v_up, cfg.v_down, cfg.reward_model)
    rng = np.random.default_rng(cfg.generate_seed)
    return random_instance(
        rng, cfg.n_arms, cfg.reward_model, require_misaligned=cfg.require_misaligned
    )


def serialize_config(cfg: GameConfig) -> str:
    """Canonical form; parse(serialize(cfg)) == cfg."""
    lines: list[str] = []
    current = None
    for section, key, field, _, render in _KEYS:
        value = getattr(cfg, field)
        if value is None:
            continue  # the instance source that was not given
        if field == "require_misaligned" and cfg.generate_seed is None:
            continue  # only generated instances carry the flag
        if section != current:
            lines += ["", f"[{section}]"] if lines else [f"[{section}]"]
            current = section
        lines.append(f"{key} = {render(value)}")
    return "\n".join(lines) + "\n"


def parse_config_file(path: str) -> GameConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
