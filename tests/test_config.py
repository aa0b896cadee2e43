"""Config grammar, semantic validation, and the canonical round trip."""

import glob
import math
import os
import re
from dataclasses import astuple, replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coase_bandits.config import (
    DOWNSTREAM_POLICIES,
    MODES,
    TRAJECTORY_MODES,
    UPSTREAM_POLICIES,
    ConfigError,
    GameConfig,
    belgic_params,
    config_instance,
    parse_config,
    parse_config_file,
    resolve_certificate,
    serialize_config,
    validate_config,
)
from coase_bandits.env import REWARD_MODELS, build_instance, compute_oracle
from coase_bandits.upstream import ucb_certificate

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

BASE_NO_PROPERTY = """\
[game]
mode = no-property
arms = 2
horizon = 64
seeds = 0 1

[instance]
v_up = 1.0 0.3
v_down = 0.0 0.0 ; 0.9 0.2
"""

BASE_PROPERTY = """\
[game]
mode = property
arms = 2
horizon = 4096
seeds = 7

[instance]
v_up = 0.9 0.5
v_down = 0.2 0.1 ; 0.8 0.3

[upstream]
c_mode = fixed:1.0
"""


class TestParsing:
    def test_minimal_no_property_defaults(self):
        cfg = parse_config(BASE_NO_PROPERTY)
        assert cfg.mode == "no-property"
        assert cfg.n_arms == 2
        assert cfg.horizon == 64
        assert cfg.seeds == (0, 1)
        assert cfg.v_up == (1.0, 0.3)
        assert cfg.v_down == ((0.0, 0.0), (0.9, 0.2))
        assert cfg.downstream_policy == "naive"  # mode default
        assert cfg.upstream_policy == "ucb"
        assert (cfg.alpha, cfg.beta) == (0.75, 0.25)
        assert cfg.c_mode == "theoretical"
        assert cfg.reward_model == "gaussian"
        assert cfg.output_dir == "runs"
        assert cfg.trajectory == "none"

    def test_property_defaults_to_belgic(self):
        cfg = parse_config(BASE_PROPERTY)
        assert cfg.downstream_policy == "belgic"
        assert cfg.c_mode == "fixed:1.0"

    def test_comments_and_blank_lines_ignored(self):
        text = "# leading comment\n\n" + BASE_NO_PROPERTY + "\n  # trailing\n"
        assert parse_config(text) == parse_config(BASE_NO_PROPERTY)

    def test_unknown_section_with_line_number(self):
        with pytest.raises(ConfigError, match="unknown section") as err:
            parse_config("[nonsense]\n")
        assert err.value.line == 1

    def test_unknown_key_with_line_number(self):
        text = BASE_NO_PROPERTY + "\n[game]\nflavor = spicy\n"
        with pytest.raises(ConfigError, match="unknown key 'flavor'") as err:
            parse_config(text)
        assert err.value.line == text.splitlines().index("flavor = spicy") + 1

    def test_duplicate_key_rejected(self):
        text = BASE_NO_PROPERTY.replace("horizon = 64", "horizon = 64\nhorizon = 65")
        with pytest.raises(ConfigError, match="duplicate key"):
            parse_config(text)

    def test_assignment_before_section(self):
        with pytest.raises(ConfigError, match="before any"):
            parse_config("mode = property\n")

    def test_missing_equals_sign(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config("[game]\nmode property\n")

    def test_missing_required_key(self):
        text = BASE_NO_PROPERTY.replace("horizon = 64\n", "")
        with pytest.raises(ConfigError, match="missing required key 'horizon'"):
            parse_config(text)

    def test_non_integer_horizon(self):
        text = BASE_NO_PROPERTY.replace("horizon = 64", "horizon = many")
        with pytest.raises(ConfigError, match="horizon must be an integer"):
            parse_config(text)

    def test_bernoulli_reward_model(self):
        text = BASE_NO_PROPERTY + "reward_model = bernoulli\n"
        assert parse_config(text).reward_model == "bernoulli"

    def test_unknown_reward_model(self):
        text = BASE_NO_PROPERTY + "reward_model = poisson\n"
        with pytest.raises(ConfigError, match="reward_model"):
            parse_config(text)

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "game.cfg"
        path.write_text(BASE_PROPERTY, encoding="utf-8")
        assert parse_config_file(str(path)) == parse_config(BASE_PROPERTY)


class TestValidation:
    def test_duplicate_seeds(self):
        text = BASE_NO_PROPERTY.replace("seeds = 0 1", "seeds = 3 3")
        with pytest.raises(ConfigError, match="distinct"):
            parse_config(text)

    def test_negative_seed(self):
        text = BASE_NO_PROPERTY.replace("seeds = 0 1", "seeds = -1")
        with pytest.raises(ConfigError, match=">= 0"):
            parse_config(text)

    def test_empty_seed_list(self):
        text = BASE_NO_PROPERTY.replace("seeds = 0 1", "seeds =")
        with pytest.raises(ConfigError, match="at least one seed"):
            parse_config(text)

    def test_explicit_and_generated_instance_conflict(self):
        text = BASE_NO_PROPERTY + "generate_seed = 4\n"
        with pytest.raises(ConfigError, match="not both"):
            parse_config(text)

    def test_instance_required(self):
        text = "\n".join(BASE_NO_PROPERTY.splitlines()[:6]) + "\n"
        with pytest.raises(ConfigError, match="v_up/v_down or generate_seed"):
            parse_config(text)

    def test_arm_count_mismatch(self):
        text = BASE_NO_PROPERTY.replace("arms = 2", "arms = 3")
        with pytest.raises(ConfigError, match="v_up has 2 entries but arms = 3"):
            parse_config(text)

    def test_v_down_shape_checked(self):
        text = BASE_NO_PROPERTY.replace("v_down = 0.0 0.0 ; 0.9 0.2", "v_down = 0.0 0.0")
        with pytest.raises(ValueError):
            parse_config(text)

    def test_mean_out_of_range(self):
        text = BASE_NO_PROPERTY.replace("v_up = 1.0 0.3", "v_up = 1.5 0.3")
        with pytest.raises(ValueError, match=r"v_up\[0\]"):
            parse_config(text)

    def test_horizon_below_forced_exploration(self):
        text = BASE_NO_PROPERTY.replace("horizon = 64", "horizon = 1")
        with pytest.raises(ConfigError, match="forced exploration"):
            parse_config(text)

    def test_downstream_policy_must_match_mode(self):
        text = BASE_PROPERTY + "\n[downstream]\npolicy = naive\n"
        with pytest.raises(ConfigError, match="not valid in property mode"):
            parse_config(text)

    def test_unknown_upstream_policy(self):
        text = BASE_NO_PROPERTY + "\n[upstream]\npolicy = greedy\n"
        with pytest.raises(ConfigError, match="upstream policy"):
            parse_config(text)

    def test_belgic_schedule_validated_in_property_mode(self):
        text = BASE_PROPERTY + "\n[params]\nalpha = 0.5\nbeta = 0.5\n"
        with pytest.raises(ConfigError, match="invalid search parameters"):
            parse_config(text)

    def test_theoretical_certificate_rejected_for_belgic_at_desk_scale(self):
        text = BASE_PROPERTY.replace("c_mode = fixed:1.0", "c_mode = theoretical")
        with pytest.raises(ConfigError, match="invalid search parameters"):
            parse_config(text)

    def test_require_misaligned_needs_generate_seed(self):
        text = BASE_NO_PROPERTY + "require_misaligned = yes\n"
        with pytest.raises(ConfigError, match="require_misaligned applies only with generate_seed"):
            parse_config(text)

    def test_require_misaligned_needs_two_arms(self):
        # A one-arm instance is never misaligned, so no draw could satisfy it.
        text = BASE_NO_PROPERTY.replace("arms = 2", "arms = 1").replace(
            "v_up = 1.0 0.3\nv_down = 0.0 0.0 ; 0.9 0.2",
            "generate_seed = 3\nrequire_misaligned = yes",
        )
        with pytest.raises(ConfigError, match="require_misaligned needs arms >= 2, got arms = 1"):
            parse_config(text)

    def test_belgic_at_horizon_one_rejected(self):
        # Each arm's search plays one batch, which a one-round game cannot fit.
        text = BASE_PROPERTY.replace("horizon = 4096", "horizon = 1").replace(
            "[upstream]\n", "[upstream]\npolicy = best_response\n"
        ).replace("fixed:1.0", "fixed:0.1")
        with pytest.raises(ConfigError, match="invalid search parameters: phase 1 cannot fit"):
            parse_config(text)

    def test_require_misaligned_no_is_accepted_with_explicit_means(self):
        text = BASE_NO_PROPERTY + "require_misaligned = no\n"
        assert parse_config(text) == parse_config(BASE_NO_PROPERTY)

    def test_negative_generate_seed_rejected(self):
        text = BASE_NO_PROPERTY.replace(
            "v_up = 1.0 0.3\nv_down = 0.0 0.0 ; 0.9 0.2", "generate_seed = -1"
        )
        with pytest.raises(ConfigError, match="^generate_seed must be >= 0$"):
            parse_config(text)

    def test_validate_config_direct_call(self):
        validate_config(parse_config(BASE_PROPERTY))

    def test_direct_config_with_unknown_reward_model_names_the_key(self):
        # A generated instance reaches no build_instance call here, and
        # runner.sweep builds its configs with replace(), not by parsing.
        cfg = replace(parse_config(BASE_NO_PROPERTY), v_up=None, v_down=None, generate_seed=1)
        validate_config(cfg)
        with pytest.raises(ConfigError, match="^reward_model must be one of .*'poisson'$"):
            validate_config(replace(cfg, reward_model="poisson"))

    def test_direct_config_with_unknown_trajectory_names_the_key(self):
        cfg = replace(parse_config(BASE_NO_PROPERTY), trajectory="bogus")
        with pytest.raises(ConfigError, match="^trajectory must be one of .*'bogus'$"):
            validate_config(cfg)


class TestCMode:
    def test_fixed_scale_parsed(self):
        cfg = parse_config(BASE_PROPERTY.replace("fixed:1.0", "fixed:0.5"))
        assert resolve_certificate(cfg, cfg.horizon) == 0.5

    def test_every_spelling_of_a_scale_is_one_config(self):
        canonical = parse_config(BASE_PROPERTY)
        for spelling in ("fixed:1", "fixed: 1.0", "fixed:1e0"):
            cfg = parse_config(BASE_PROPERTY.replace("fixed:1.0", spelling))
            assert cfg == canonical
            assert "\nc_mode = fixed:1.0\n" in serialize_config(cfg)

    @pytest.mark.parametrize("spelling", ["fixed:1", "fixed: 1.0", "fixed:1e0"])
    def test_built_config_needs_the_canonical_spelling(self, spelling):
        # A config built in code skips the parser, so validation refuses a
        # spelling that would echo as a different config.
        cfg = replace(parse_config(BASE_PROPERTY), c_mode=spelling)
        with pytest.raises(ConfigError, match=re.escape(f"canonical form 'fixed:1.0', got {spelling!r}")):
            validate_config(cfg)

    @settings(max_examples=100, deadline=None)
    @given(scale=st.floats(min_value=0.0), form=st.sampled_from(["{!r}", " {!r}", "+{!r}", "{:.17e}"]))
    def test_a_built_config_validates_only_in_its_parsed_form(self, scale, form):
        # Whatever the spelling, validation accepts a built config exactly
        # when its c_mode is the form the parser stores, so every built
        # config that validates echoes as itself.
        c_mode = "fixed:" + form.format(scale)
        parsed = parse_config(BASE_NO_PROPERTY + f"\n[upstream]\nc_mode = {c_mode}\n")
        assert parsed.c_mode == f"fixed:{scale!r}"
        built = replace(parsed, c_mode=c_mode)
        if c_mode == parsed.c_mode:
            validate_config(built)
            assert parse_config(serialize_config(built)) == built
        else:
            with pytest.raises(ConfigError, match="canonical form"):
                validate_config(built)

    def test_theoretical_matches_certificate_helper(self):
        cfg = parse_config(BASE_NO_PROPERTY)
        assert resolve_certificate(cfg, 4096) == ucb_certificate(2, 4096)

    def test_negative_fixed_scale_rejected(self):
        with pytest.raises(ConfigError, match=">= 0"):
            parse_config(BASE_PROPERTY.replace("fixed:1.0", "fixed:-2"))

    @pytest.mark.parametrize("scale", ["nan", "inf"])
    def test_nonfinite_fixed_scale_rejected_for_belgic(self, scale):
        with pytest.raises(ConfigError, match=f"^invalid search parameters: certificate scale .* got {scale}$"):
            parse_config(BASE_PROPERTY.replace("fixed:1.0", f"fixed:{scale}"))

    @pytest.mark.parametrize("scale", ["nan", "inf"])
    def test_nonfinite_fixed_scale_kept_without_belgic(self, scale):
        # Configs without Belgic keep any fixed scale: it is never read.
        cfg = parse_config(BASE_NO_PROPERTY + f"\n[upstream]\nc_mode = fixed:{scale}\n")
        assert cfg.c_mode == f"fixed:{scale}"

    def test_malformed_fixed_scale_rejected(self):
        with pytest.raises(ConfigError, match="bad fixed scale"):
            parse_config(BASE_PROPERTY.replace("fixed:1.0", "fixed:abc"))

    def test_unknown_c_mode_rejected(self):
        with pytest.raises(ConfigError, match="c_mode"):
            parse_config(BASE_PROPERTY.replace("fixed:1.0", "adaptive"))


AWKWARD_MEANS = (0.0, 1.0, 0.1, 1 / 3, 2 / 3, 5e-324, math.nextafter(1.0, 0.0), 2.0**-1074 * 3)


def means():
    return st.one_of(
        st.sampled_from(AWKWARD_MEANS),
        st.floats(0.0, 1.0, allow_subnormal=True),
    )


@st.composite
def game_configs(draw):
    """Valid GameConfigs over both instance forms, both modes, every policy
    pair, both c_mode forms and both trajectory values."""
    mode = draw(st.sampled_from(MODES))
    downstream = draw(st.sampled_from(DOWNSTREAM_POLICIES[mode]))
    upstream = draw(st.sampled_from(UPSTREAM_POLICIES))
    k = draw(st.integers(1, 4))
    belgic = downstream == "belgic"
    horizon = draw(st.integers(2**14, 2**20) if belgic else st.integers(k, 10**9))
    if belgic:
        # validate_params: alpha in (0, 1) and beta/alpha < 1/2.
        alpha = draw(st.floats(0.6, 0.8))
        beta = draw(st.floats(0.05, 0.15))
    else:  # unused outside Belgic, so any non-nan float must survive
        alpha = draw(st.floats(allow_nan=False))
        beta = draw(st.floats(allow_nan=False))
    scale = draw(st.floats(0.0, 1.0) if belgic else st.floats(0.0, allow_infinity=True))
    c_mode = draw(st.sampled_from(["theoretical", f"fixed:{scale!r}"]))
    if draw(st.booleans()):
        instance = dict(
            v_up=tuple(draw(st.lists(means(), min_size=k, max_size=k))),
            v_down=tuple(
                tuple(draw(st.lists(means(), min_size=k, max_size=k))) for _ in range(k)
            ),
        )
    else:
        instance = dict(
            generate_seed=draw(st.integers(0, 2**63)),
            require_misaligned=k > 1 and draw(st.booleans()),
        )
    cfg = GameConfig(
        mode=mode,
        n_arms=k,
        horizon=horizon,
        seeds=tuple(draw(st.lists(st.integers(0, 2**40), min_size=1, max_size=5, unique=True))),
        reward_model=draw(st.sampled_from(REWARD_MODELS)),
        alpha=alpha,
        beta=beta,
        upstream_policy=upstream,
        c_mode=c_mode,
        downstream_policy=downstream,
        output_dir=draw(st.from_regex(r"[A-Za-z0-9_./-]{1,20}", fullmatch=True)),
        trajectory=draw(st.sampled_from(TRAJECTORY_MODES)),
        **instance,
    )
    try:
        validate_config(cfg)
    except ConfigError:
        assume(False)  # only a Belgic schedule that does not fit gets here
    return cfg


def assert_round_trips(cfg):
    text = serialize_config(cfg)
    back = parse_config(text)
    assert back == cfg
    assert repr(back) == repr(cfg)  # bit for bit: repr tells -0.0 from 0.0
    assert serialize_config(back) == text


class TestRoundTrip:
    def test_explicit_instance_round_trip(self):
        cfg = parse_config(BASE_PROPERTY)
        assert parse_config(serialize_config(cfg)) == cfg

    def test_serialization_is_a_fixed_point(self):
        cfg = parse_config(BASE_NO_PROPERTY)
        once = serialize_config(cfg)
        assert serialize_config(parse_config(once)) == once

    def test_awkward_floats_survive(self):
        cfg = GameConfig(
            mode="property",
            n_arms=2,
            horizon=4096,
            seeds=(0,),
            v_up=(1 / 3, 0.1),
            v_down=((0.7, 1 / 7), (2 / 3, 0.0)),
            alpha=2 / 3,
            beta=2 / 9,
            c_mode="fixed:0.25",
            downstream_policy="belgic",
        )
        validate_config(cfg)
        back = parse_config(serialize_config(cfg))
        assert back == cfg
        assert back.v_up[0] == 1 / 3  # bit-exact, not approximately

    def test_generated_instance_round_trip(self):
        cfg = GameConfig(
            mode="no-property",
            n_arms=3,
            horizon=128,
            seeds=(0, 2, 5),
            generate_seed=9,
            require_misaligned=True,
            downstream_policy="naive",
        )
        assert parse_config(serialize_config(cfg)) == cfg

    @settings(max_examples=300, deadline=None)
    @given(game_configs())
    def test_parse_inverts_serialize(self, cfg):
        assert_round_trips(cfg)

    @pytest.mark.parametrize(
        "path",
        sorted(glob.glob(os.path.join(ROOT, "configs", "*.cfg")))
        + sorted(glob.glob(os.path.join(ROOT, "perfbench", "configs", "*.cfg"))),
        ids=lambda p: os.path.relpath(p, ROOT),
    )
    def test_shipped_configs_round_trip(self, path):
        assert_round_trips(parse_config_file(path))

    def test_documented_example_is_belgic_cfg(self):
        with open(os.path.join(ROOT, "docs", "config_format.md"), encoding="utf-8") as fh:
            doc = fh.read()
        section = doc[doc.index("## Complete example") :]
        example = section.split("```")[1]
        assert parse_config(example) == parse_config_file(os.path.join(ROOT, "configs", "belgic.cfg"))


class TestDerivedObjects:
    def test_belgic_params_wiring(self):
        cfg = parse_config(BASE_PROPERTY)
        assert astuple(belgic_params(cfg, cfg.horizon)) == (2, 4096, 0.75, 0.25, 1.0)

    def test_config_instance_explicit(self):
        cfg = parse_config(BASE_NO_PROPERTY)
        assert config_instance(cfg) == build_instance((1.0, 0.3), ((0.0, 0.0), (0.9, 0.2)))

    def test_config_instance_generated_deterministic(self):
        cfg = GameConfig(
            mode="no-property",
            n_arms=3,
            horizon=128,
            seeds=(0,),
            generate_seed=41,
            require_misaligned=True,
            downstream_policy="naive",
        )
        inst = config_instance(cfg)
        assert inst == config_instance(cfg)
        assert compute_oracle(inst).misaligned

