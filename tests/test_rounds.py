"""The noise stream, the reward columns, the kernels and the cached UCB
indices against the scalar reference of ``scalar_reference``.

``env.draw_noise``, ``env.RewardColumns`` (the one reward view every round
function reads) and the cached indices must reproduce the reference bit for
bit, in whole games, in ``run_phase1`` and in criterion 6's certificate run;
``test_engine`` checks the games' ledgers against its per-round fold.

The engine's kernels for the two learning pairs are also checked against its
generic round loop: the same games, columns and final policy state. The
offer stretch they and criterion 6 play through is checked against
IncentiveAwareUCB's own step and update. All three play their rounds in runs
of one arm, each opened by ``_run_start``, which is checked against its copy
version; the tie cases check, on indices that meet exactly, that a run goes
on or ends where the policies' own steps say.
"""

import copy
import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
from array import array

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scalar_reference import (
    NO_EXPLAIN,
    POLICY_PAIRS,
    assert_same_column,
    build_players,
    first_max,
    game_config,
    instances,
    learned_state,
    means,
    pair_table,
    ref_certificate_run,
    ref_phase1,
    ref_play,
    ref_run_start,
    reference_players,
    scalar_certificate_noise,
    scalar_noise,
    scalar_round,
    scratch_indices,
)

from coase_bandits.acceptance import CERT_CHECKPOINTS, CERT_RUNS, _certificate_noise, _certificate_run
from coase_bandits.config import belgic_params
from coase_bandits.downstream import CERT_EXPONENT, Belgic, BelgicParams, NaiveContextUCB
from coase_bandits.engine import (
    BLOCK,
    RegretLedger,
    _no_property_rounds,
    _property_rounds,
    _round_function,
    _run_start,
    _ucb_belgic_rounds,
    _ucb_naive_rounds,
    run_no_property,
    run_phase1,
    run_property,
    ucb_offer_stretch,
)
from coase_bandits.env import (
    RewardColumns,
    _fast_values,
    _scratch_generator,
    _slow,
    _wedges,
    _ziggurat,
    build_instance,
    draw_noise,
    sample_upstream,
)
from coase_bandits.upstream import IncentiveAwareUCB, IncentiveOffer

# ---------------------------------------------------------------- the gaussian replay's words


def words_between(before, after):
    """The raw words between two states of one PCG64 stream, counted one
    step at a time."""
    probe = np.random.PCG64(0)
    probe.state = before
    words = 0
    while probe.state["state"] != after["state"]:
        probe.advance(1)
        words += 1
    return words


def traced_scalar_round(rng):
    """One round of scalar_noise's gaussian draws, every slot traced: one
    (kind, word, used) per slot, kind "slot" for the two unread uniforms and
    "normal" for the two rewards, word the slot's raw word, and used the
    words a standard_normal() drawn there consumes (at an unread slot, the
    words it would consume). A normal that used more than one word left
    numpy's ziggurat fast path."""
    probe = np.random.Generator(np.random.PCG64(0))
    slots = []
    for slot in range(4):
        state = rng.bit_generator.state
        probe.bit_generator.state = state
        word = int(probe.bit_generator.random_raw())
        probe.bit_generator.state = state
        probe.standard_normal()
        used = words_between(state, probe.bit_generator.state)
        if slot < 2:
            rng.random()
            slots.append(("slot", word, used))
        else:
            rng.standard_normal()
            slots.append(("normal", word, used))
    return slots


def normal_took_slow_path(rng):
    """Draw one standard normal; True when it used more than one 64-bit word
    (the ziggurat's rejection path)."""
    before = rng.bit_generator.state
    rng.standard_normal()
    return words_between(before, rng.bit_generator.state) > 1


# ---------------------------------------------------------------- the reward columns


def _sampler_instance(model):
    return build_instance((0.2, 0.7, 0.5), ((0.1, 0.9, 0.4), (0.3, 0.3, 0.8), (0.6, 0.0, 1.0)), model)


class TestRewardColumns:
    @pytest.mark.parametrize("model", ["gaussian", "bernoulli"])
    def test_matches_four_scalar_draws(self, model):
        inst = _sampler_instance(model)
        arms = np.random.default_rng(99).integers(0, 3, size=(2000, 2)).tolist()
        for seed in range(5):
            fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
            rewards = RewardColumns(inst, draw_noise(inst, fast, len(arms)))
            got = [
                (rewards.up[a][i], rewards.down_column(a * 3 + b)[i]) for i, (a, b) in enumerate(arms)
            ]
            assert got == [scalar_round(inst, slow, a, b) for a, b in arms]
            assert fast.bit_generator.state == slow.bit_generator.state

    def test_rejection_path_normals_are_covered(self):
        # Seed 0 of the gaussian case above draws 4,000 normals in this order
        # (55 of them take the ziggurat's rejection path and consume extra
        # words, which the array fill must replay like the scalar call).
        rng = np.random.default_rng(0)
        slow = 0
        for _ in range(2000):
            rng.random(2)
            slow += normal_took_slow_path(rng) + normal_took_slow_path(rng)
        assert slow > 0

    def test_rejection_path_normals_in_certificate_layout(self):
        # Criterion 6's column for seed 0, its 2,048 rows read two rounds to
        # a row: rounds of both parities, the rows' upstream and downstream
        # normals, take the rejection path, so test_certificate_run_*
        # replays slow normals in both of a row's normal slots.
        rng = np.random.default_rng(0)
        slow = set()
        for _ in range(max(CERT_CHECKPOINTS) // 2):
            rng.random(2)
            for parity in (0, 1):
                if normal_took_slow_path(rng):
                    slow.add(parity)
        assert slow == {0, 1}

    @pytest.mark.parametrize("model", ["gaussian", "bernoulli"])
    def test_upstream_only_shape(self, model):
        # Criterion 6's (2n, 1) column: every round is an upstream reward,
        # round 2i + 1 drawn in row i's upstream slot and round 2i + 2 in
        # its downstream slot, each the sample_upstream call at that place.
        inst = build_instance((0.2, 0.7), ((0.0, 0.0), (0.0, 0.0)), model)
        arms = np.random.default_rng(7).integers(0, 2, size=1000).tolist()
        fast, slow = np.random.default_rng(3), np.random.default_rng(3)
        noise = _certificate_noise(inst, fast, len(arms) // 2)
        assert noise.shape == (len(arms), 1)
        up = RewardColumns(inst, noise).up
        expected = []
        for i, a in enumerate(arms):
            if i % 2 == 0:
                slow.random(2)  # the row's two unread slots
            expected.append(sample_upstream(inst, a, slow))
        assert [up[a][i] for i, a in enumerate(arms)] == expected
        assert fast.bit_generator.state == slow.bit_generator.state


#: The two reads of the noise stream, each with its scalar reference: the
#: game's (n, 2) rows, and criterion 6's column of 2n rounds.
READS = {
    "game": (draw_noise, scalar_noise),
    "certificate": (_certificate_noise, scalar_certificate_noise),
}


class TestNoiseStream:
    """``draw_noise`` is the one statement of the draw order: its rows and the
    generator state it leaves equal the scalar reference's, and a draw split
    in two, or cut short, is the same stream. Each case runs on both reads of
    the stream (``READS``), the game's and criterion 6's."""

    @pytest.mark.parametrize("read", ["game", "certificate"])
    @pytest.mark.parametrize("model", ["gaussian", "bernoulli"])
    def test_rows_match_scalar_draws(self, model, read):
        # Seeds 0..4 over 2,000 rows include normals that take the
        # ziggurat's rejection path (test_rejection_path_normals_are_covered).
        draw, scalar = READS[read]
        inst = _sampler_instance(model)
        for seed in range(5):
            fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
            noise = draw(inst, fast, 2000)
            assert noise.shape == ((2000, 2) if read == "game" else (4000, 1))
            assert noise.tolist() == scalar(inst, slow, 2000)
            assert fast.bit_generator.state == slow.bit_generator.state

    @pytest.mark.parametrize("read", ["game", "certificate"])
    @pytest.mark.parametrize("model", ["gaussian", "bernoulli"])
    @pytest.mark.parametrize("a,b", [(0, 7), (1, 1), (1000, 999), (BLOCK, 3)])
    def test_split_draw_is_one_draw(self, model, read, a, b):
        draw = READS[read][0]
        inst = _sampler_instance(model)
        split, joint = np.random.default_rng(0), np.random.default_rng(0)
        rows = np.concatenate([draw(inst, split, a), draw(inst, split, b)])
        assert rows.tolist() == draw(inst, joint, a + b).tolist()
        assert split.bit_generator.state == joint.bit_generator.state

    @pytest.mark.parametrize("model", ["gaussian", "bernoulli"])
    @pytest.mark.parametrize("horizon", [1, 17, BLOCK - 1, BLOCK + 1])
    def test_horizon_reads_a_prefix(self, model, horizon):
        inst = _sampler_instance(model)
        short = draw_noise(inst, np.random.default_rng(0), horizon)
        long = draw_noise(inst, np.random.default_rng(0), 2 * horizon)
        assert short.tolist() == long[:horizon].tolist()

    @pytest.mark.parametrize("read", ["game", "certificate"])
    def test_interleaved_seeds_share_one_scratch_generator(self, read):
        # Two seeds drawn by turns in calls of many lengths, as Belgic's
        # search batches are, every other one a 50-row call around one of
        # TAIL_ROWS. A tail normal is numpy's own draw, so each of those calls
        # places the one scratch generator on its own stream, after the other
        # seed's call has placed it on that seed's. Each seed still reads the
        # rows and leaves the state that a fresh generator's scalar draws do.
        draw, scalar = READS[read]
        inst = _sampler_instance("gaussian")
        calls = {}
        for seed, tails in TAIL_ROWS.items():
            for at in tails:
                traced = np.random.default_rng(seed)
                scalar_noise(inst, traced, at)
                assert REPLAY_CASES["tail normal"](traced_scalar_round(traced))
            cuts = [0] + [at + d for at in tails for d in (-20, 30)]
            calls[seed] = np.diff(cuts).tolist()
        rngs = {seed: np.random.default_rng(seed) for seed in TAIL_ROWS}
        rows = {seed: [] for seed in rngs}
        before = _scratch_generator.cache_info()
        for turn in range(len(calls[0])):
            for seed, rng in rngs.items():
                rows[seed] += draw(inst, rng, calls[seed][turn]).tolist()
        placed = sum(_scratch_generator.cache_info()[:2]) - sum(before[:2])
        assert placed >= sum(len(tails) for tails in TAIL_ROWS.values())
        for seed, rng in rngs.items():
            fresh = np.random.default_rng(seed)
            assert rows[seed] == scalar(inst, fresh, sum(calls[seed]))
            assert rng.bit_generator.state == fresh.bit_generator.state


#: Each way the gaussian replay departs from one word per slot, pinned: in
#: the scalar draws of ``rounds`` rounds from default_rng(seed), round ``at``
#: shows the case. A normal off numpy's ziggurat fast path uses more than one
#: word; index 0 is the ziggurat's tail, any other index a wedge, where a
#: third word means the wedge test rejected and the draw started again two
#: words on. A fresh start on a fast word ends there, after 3 words; more
#: mean the restart word was slow again, which the replay leaves to numpy.
REPLAY_CASES = {
    "slow word in an unread slot": lambda r: any(k == "slot" and u > 1 for k, _, u in r),
    "both normals slow": lambda r: all(u > 1 for k, _, u in r if k == "normal"),
    "slow normal": lambda r: any(k == "normal" and u > 1 for k, _, u in r),
    "tail normal": lambda r: any(k == "normal" and u > 1 and w & 0xFF == 0 for k, w, u in r),
    "wedge restart": lambda r: any(k == "normal" and u > 2 and w & 0xFF for k, w, u in r),
    "restart on a slow word": lambda r: any(k == "normal" and u > 3 and w & 0xFF for k, w, u in r),
}
REPLAY_PINS = [
    # (case, seed, rounds, at); a pin's id also names the 2 normals a round draws
    ("slow word in an unread slot", 0, 100, 51),
    ("both normals slow", 0, 2700, 2679),
    ("slow normal", 0, 19, 18),  # in the last round of the call
    ("slow normal", 48, BLOCK + 5, BLOCK - 1),  # in the last round of a pass
    ("tail normal", 1, 2400, 2315),
    ("wedge restart", 0, 100, 18),
    ("restart on a slow word", 1, 8700, 8692),  # 4 words: the restart's wedge accepted
]

#: Rows of seeds 0 and 1 whose normal is a tail, which numpy draws itself:
#: the first two of each seed (1's first is the "tail normal" pin).
TAIL_ROWS = {0: (3368, 3770), 1: (2315, 2658)}

#: PCG64's LCG multiplier (O'Neill's 128-bit default); a stream is placed by
#: stepping its 128-bit state back from the one that emits a chosen word.
PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def stream_with_word(word, position):
    """A PCG64 generator whose raw word number ``position`` (from 0) is
    ``word``. XSL-RR outputs a stepped state below 2**64 as it is, so that
    state emits ``word``; the generator starts ``position + 1`` steps
    before it."""
    rng = np.random.Generator(np.random.PCG64(0))
    state = rng.bit_generator.state
    inc, unstep = state["state"]["inc"], pow(PCG64_MULT, -1, 1 << 128)
    s = word
    for _ in range(position + 1):
        s = (s - inc) * unstep % (1 << 128)
    state["state"]["state"] = s
    rng.bit_generator.state = state
    probe = np.random.PCG64(0)
    probe.state = state
    assert int(probe.random_raw(position + 1)[-1]) == word
    return rng


def words_of_normal(word):
    """The words numpy's standard_normal() uses on a stream whose next word
    is ``word``."""
    rng = stream_with_word(word, 0)
    state = rng.bit_generator.state
    rng.standard_normal()
    return words_between(state, rng.bit_generator.state)


def assert_replays(seed, rounds):
    """draw_noise's rounds rows from default_rng(seed) are scalar_noise's, bit
    for bit, and leave the same generator state."""
    inst = _sampler_instance("gaussian")
    fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
    noise = draw_noise(inst, fast, rounds)
    assert noise.shape == (rounds, 2)
    expected = np.array(scalar_noise(inst, slow, rounds)).reshape(rounds, 2)
    assert noise.tobytes() == expected.tobytes()
    assert fast.bit_generator.state == slow.bit_generator.state


#: Wedge-test margins at which the replay must still be exact: at inf numpy
#: draws every slow normal, at 0.0 only the tails and the restarts on a slow
#: word (and draws that run past a pass's words).
MARGINS = {"all-to-numpy": math.inf, "tails-to-numpy": 0.0}
PIN_IDS = [f"{c}-{s}-2-{r}-{a}" for c, s, r, a in REPLAY_PINS]


class TestGaussianReplay:
    """``draw_noise`` replays numpy's ziggurat on raw words: each case where a
    draw takes more than one word per slot, at a pinned place that is shown
    to have it, against the scalar reference, final state included."""

    @pytest.mark.parametrize("case,seed,rounds,at", REPLAY_PINS, ids=PIN_IDS)
    def test_pinned_case(self, case, seed, rounds, at):
        inst = _sampler_instance("gaussian")
        traced = np.random.default_rng(seed)
        scalar_noise(inst, traced, at)
        assert REPLAY_CASES[case](traced_scalar_round(traced))
        assert_replays(seed, rounds)

    @pytest.mark.parametrize("margin", MARGINS.values(), ids=MARGINS)
    @pytest.mark.parametrize("case,seed,rounds,at", REPLAY_PINS, ids=PIN_IDS)
    def test_pinned_case_at_either_margin(self, monkeypatch, margin, case, seed, rounds, at):
        monkeypatch.setattr("coase_bandits.env._WEDGE_MARGIN", margin)
        assert_replays(seed, rounds)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rounds=st.integers(0, 3 * BLOCK))
    def test_matches_scalar_draws(self, seed, rounds):
        assert_replays(seed, rounds)

    @pytest.mark.parametrize("margin", MARGINS.values(), ids=MARGINS)
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rounds=st.integers(0, 3 * BLOCK))
    def test_matches_scalar_draws_at_either_margin(self, margin, seed, rounds):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("coase_bandits.env._WEDGE_MARGIN", margin)
            assert_replays(seed, rounds)

    def test_values_are_bit_identical(self):
        # tolist() equality cannot tell -0.0 from 0.0; the bytes can.
        inst = _sampler_instance("gaussian")
        fast, slow = np.random.default_rng(5), np.random.default_rng(5)
        noise = draw_noise(inst, fast, 3000)
        assert noise.tobytes() == np.array(scalar_noise(inst, slow, 3000)).tobytes()

    def test_tables_are_numpys_on_random_words(self):
        # 20,000 normals drawn by numpy, each with its first three words and
        # the words it used: the tables give the same fast/slow class, the
        # same value on the fast path, and on every slow word the words
        # decide (_wedges) the same draw: an accepted wedge uses 2 words and
        # is the word's own fast value, a rejection onto a fast word uses 3
        # and is that word's. Only the tails and the restarts on a slow word
        # are left to numpy.
        wi, ki, fi, _ = _ziggurat()
        rng, probe = np.random.default_rng(20_000), np.random.PCG64(0)
        words, values, used = [], [], []
        for _ in range(20_000):
            state = rng.bit_generator.state
            probe.state = state
            words.append(probe.random_raw(3))
            values.append(rng.standard_normal())
            used.append(words_between(state, rng.bit_generator.state))
        words, values, used = np.concatenate(words), np.array(values), np.array(used)
        first = words[::3]
        fast = ~_slow(first, ki)
        assert fast.tolist() == (used == 1).tolist()
        assert 0 < (~fast).sum() < 1000
        assert _fast_values(first[fast], wi).tobytes() == values[fast].tobytes()
        slow = np.flatnonzero(~fast)
        wedge_values, wedge_used = _wedges(words, 3 * slow, wi, ki, fi)
        decided = wedge_used > 0
        assert wedge_used[decided].tolist() == used[slow][decided].tolist()
        assert wedge_values[decided].tobytes() == values[slow][decided].tobytes()
        assert set(wedge_used.tolist()) == {0, 2, 3}
        tails = first[slow] & 0xFF == 0
        assert (~decided).tolist() == (tails | (used[slow] > 3)).tolist()

    def test_fast_path_bound_is_exact(self):
        # The last fast and the first slow magnitude of every index, placed
        # in the first normal's slot (word 2): numpy classifies them as the
        # tables do, and the replay matches the scalar draw, rows and final
        # state.
        wi, ki, _, _ = _ziggurat()
        inst = _sampler_instance("gaussian")
        for idx in range(256):
            for rabs, fast in ((int(ki[idx]) - 1, True), (int(ki[idx]), False)):
                if not 0 <= rabs < 2**52:
                    continue
                for sign in (0, 1):
                    word = idx | sign << 8 | rabs << 9
                    assert (words_of_normal(word) == 1) is fast
                    replay, scalar = stream_with_word(word, 2), stream_with_word(word, 2)
                    rows = draw_noise(inst, replay, 2)
                    expected = scalar_noise(inst, scalar, 2)
                    assert rows.tobytes() == np.array(expected).tobytes()
                    assert replay.bit_generator.state == scalar.bit_generator.state

    @pytest.mark.parametrize("bit_generator", [np.random.PCG64DXSM, np.random.MT19937, np.random.Philox])
    def test_other_bit_generators_are_refused(self, bit_generator):
        inst = _sampler_instance("gaussian")
        with pytest.raises(TypeError, match="PCG64"):
            draw_noise(inst, np.random.Generator(bit_generator(0)), 5)

    def test_tables_are_read_at_the_first_gaussian_draw(self):
        # In a fresh process: importing the CLI and playing a bernoulli game
        # derive no table, the wedge heights included, and leave no array in
        # env; the first gaussian draw derives them all.
        code = (
            "import numpy as np\n"
            "import coase_bandits.cli\n"
            "from coase_bandits import env\n"
            "from coase_bandits.downstream import BestResponseDownstream\n"
            "from coase_bandits.engine import run_no_property\n"
            "from coase_bandits.upstream import IncentiveAwareUCB\n"
            "def underived():\n"
            "    arrays = [v for v in vars(env).values() if isinstance(v, np.ndarray)]\n"
            "    return env._ziggurat.cache_info().currsize == 0 and not arrays\n"
            "assert underived()\n"
            "inst = env.build_instance((0.2, 0.7), ((0.1, 0.9), (0.3, 0.3)), 'bernoulli')\n"
            "run_no_property(inst, IncentiveAwareUCB(2, 50), BestResponseDownstream(inst), 50, 1)\n"
            "assert underived()\n"
            "env.draw_noise(env.build_instance((0.5,), ((0.5,),)), np.random.default_rng(0), 3)\n"
            "assert env._ziggurat.cache_info().currsize == 1\n"
            "fi = env._ziggurat()[2]\n"
            "assert fi.shape == (256,) and fi[0] == 1.0 and (np.diff(fi) < 0).all()\n"
        )
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src), check=True)

    def test_memory_is_bounded_by_the_rows(self):
        # The replay holds at most BLOCK rounds of words at once: a long draw
        # peaks at its 16 bytes per round plus a fixed allowance.
        inst = _sampler_instance("gaussian")
        rng = np.random.default_rng(0)
        draw_noise(inst, rng, 1)  # the tables and the scratch generator's first use
        tracemalloc.start()
        try:
            draw_noise(inst, rng, 2**18)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**18 + 2 * 2**20


# ---------------------------------------------------------------- the games

SMALL_SCHEDULE = (0.5, 0.2, 0.5)


HORIZONS = (5, 17, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3)


class TestGamesMatchScalarReference:
    """Whole games, Belgic's search and criterion 6's certificate run against
    the scalar reference; the ledger and gaps of a game's columns are
    ``test_engine``'s TestBlockFold."""

    @pytest.mark.parametrize("horizon", HORIZONS)
    @pytest.mark.parametrize("kind", POLICY_PAIRS, ids="-".join)
    @settings(max_examples=2, deadline=None, phases=NO_EXPLAIN)
    @given(instance=instances(), seed=st.integers(0, 2**32 - 1))
    def test_engine(self, kind, horizon, instance, seed):
        # The engine's game and the reference policies' game on scalar draws
        # play the same rounds and end with the same learned state.
        cfg = game_config(kind, instance.n_arms, horizon)
        try:
            players = build_players(cfg, instance)
        except ValueError:
            assume(False)  # phase 1 cannot fit K arms into this horizon
        property_mode = cfg.mode == "property"
        run = run_property if property_mode else run_no_property
        result = run(instance, *players, horizon, seed, record_trajectory=True)
        ref_players = reference_players(cfg, instance)
        columns = ref_play(instance, *ref_players, horizon, seed, property_mode)

        records = result.records
        for name, column in zip(("up_arm", "down_arm", "offered_arm", "tau"), columns):
            assert_same_column(name, getattr(records, name), column)
        for mine, theirs in zip(players, ref_players):
            assert learned_state(mine) == learned_state(theirs)
        if cfg.downstream_policy == "belgic":
            assert result.phase1_batches == (ref_players[1].diagnostics or None)
            assert result.tau_hat == ref_players[1].tau_hat

    @pytest.mark.parametrize("up_kind", ["ucb", "best_response"])
    @settings(max_examples=15, deadline=None, phases=NO_EXPLAIN)
    @given(
        instance=instances(),
        horizon=st.sampled_from((256, 1024, BLOCK, 2 * BLOCK + 3)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_run_phase1(self, up_kind, instance, horizon, seed):
        cfg = game_config(("property", up_kind, "belgic"), instance.n_arms, horizon)
        try:
            up = build_players(cfg, instance)[0]
        except ValueError:
            assume(False)  # phase 1 cannot fit K arms into this horizon
        ref_up = reference_players(cfg, instance)[0]
        params = belgic_params(cfg, horizon)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        assert run_phase1(instance, up, params, rng) == ref_phase1(instance, ref_up, params, ref_rng)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert learned_state(up) == learned_state(ref_up)

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_certificate_run_prefixes(self, seed):
        assert _certificate_run(seed) == ref_certificate_run(seed)

    @pytest.mark.parametrize("seed", range(CERT_RUNS)[:20])
    def test_certificate_run_pinned_seeds(self, seed):
        # Criterion 6's own seeds: the regrets summed by one cumsum over the
        # stretches' arms are the reference's running sums.
        assert _certificate_run(seed) == ref_certificate_run(seed)


# ---------------------------------------------------------------- the kernels


class GenericUCB(IncentiveAwareUCB):
    """The same policy; as a subclass it is played by the generic loop."""


#: (K, batch length, batches per arm) of the Belgic kernel cases. Each arm's
#: search plays one batch, and then more up to the count unless one returns
#: early.
KERNEL_SCHEDULES = [
    (5, BLOCK, 1),  # every batch, and the search, ends on a block boundary
    (2, BLOCK // 2, 2),  # the 2nd batch closes on a block boundary
    (5, 1000, 1),  # the 5th batch straddles a block boundary, the search ends mid-block
    (3, 1365, 1),  # the search ends one round before a block boundary
    (4, 91, 2),  # the whole search inside the first block
    (1, 1000, 3),
]


def _schedule(k, batch_length, n_batches, extra):
    """(horizon, BelgicParams) for K arms whose search plays n_batches batches
    of batch_length rounds per arm, leaving extra rounds of play."""
    horizon = k * batch_length * n_batches + extra
    alpha = math.log(batch_length - 0.5) / math.log(horizon)
    beta = (n_batches - 0.5) / math.log2(horizon)
    params = BelgicParams(k, horizon, alpha, beta, 0.5)
    assert (params.batch_length, params.n_batches) == (batch_length, n_batches)
    return horizon, params


def _edge_schedules():
    """(K, batch length, batches per arm) whose full search, K * length *
    batches rounds, ends one round before, on, or one round after a BLOCK
    boundary, for every K and batch count where some boundary up to
    4 * BLOCK allows it."""
    schedules = []
    for k in range(1, 6):
        for n_batches in (1, 2, 3):
            for delta in (-1, 0, 1):
                ends = [m * BLOCK + delta for m in range(1, 5) if (m * BLOCK + delta) % (k * n_batches) == 0]
                if ends:
                    schedules.append((k, ends[0] // (k * n_batches), n_batches))
    return schedules


def _edge_params(k, batch_length, n_batches):
    """(horizon, BelgicParams) at two of ``validate_params``' limits at once:
    phase 1 fills all but the last round of the horizon, and the mismatch
    threshold is the largest under half a batch (the certificate scale is
    stepped down from where it meets it). The kernel reads the batch length,
    the batch count and the threshold, so the beta/alpha cap does not reach
    it; ``TestValidation`` holds that cap."""
    horizon, params = _schedule(k, batch_length, n_batches, 1)
    scale = batch_length / 2.0 / batch_length ** (CERT_EXPONENT + params.beta / params.alpha)
    while True:
        params = dataclasses.replace(params, scale=scale)
        if params.threshold < batch_length / 2.0:
            return horizon, params
        scale = math.nextafter(scale, -math.inf)


def _assert_same_game(run, instance, players, generic_players, horizon, seed, noise=None):
    """Play one game on each pair of players and assert they are the same
    game: its columns, ledger, search outcome and final policy state. Returns
    the first pair's result."""
    result, generic = (
        run(instance, *pair, horizon, seed, record_trajectory=True, noise=noise)
        for pair in (players, generic_players)
    )
    for column in ("up_arm", "down_arm", "gap_sw", "gap_up", "gap_down", "offered_arm", "tau"):
        mine, theirs = getattr(result.records, column), getattr(generic.records, column)
        assert (mine is None) == (theirs is None)
        if mine is not None:
            assert_same_column(column, mine, theirs)
    for field in dataclasses.fields(RegretLedger):
        assert getattr(result.ledger, field.name) == getattr(generic.ledger, field.name), field.name
    for field in ("tau_hat", "phase1_rounds", "phase1_batches", "breakdown_bound"):
        assert getattr(result, field) == getattr(generic, field), field
    for mine, theirs in zip(players, generic_players):
        assert learned_state(mine) == learned_state(theirs)
    return result


class TestKernelsMatchGenericLoop:
    """The (IncentiveAwareUCB, Belgic) and (IncentiveAwareUCB, NaiveContextUCB)
    kernels against the generic round loop, which plays a subclass."""

    @pytest.mark.parametrize("k,batch_length,n_batches", KERNEL_SCHEDULES)
    @settings(max_examples=8, deadline=None, phases=NO_EXPLAIN)
    @given(data=st.data(), extra=st.sampled_from((1, 100, BLOCK + 7)), seed=st.integers(0, 2**32 - 1))
    def test_ucb_belgic(self, k, batch_length, n_batches, data, extra, seed):
        instance = data.draw(instances(k))
        horizon, params = _schedule(k, batch_length, n_batches, extra)
        players = IncentiveAwareUCB(k, horizon), Belgic(params)
        generic_players = GenericUCB(k, horizon), Belgic(params)
        assert _round_function(True, *players) is _ucb_belgic_rounds
        assert _round_function(True, *generic_players) is _property_rounds
        result = _assert_same_game(run_property, instance, players, generic_players, horizon, seed)
        if batch_length == BLOCK:
            assert result.phase1_rounds == k * BLOCK

    @settings(max_examples=20, deadline=None, phases=NO_EXPLAIN)
    @given(schedule=st.sampled_from(_edge_schedules()), data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_ucb_belgic_at_the_validation_edges(self, schedule, data, seed):
        # The schedules the validation only just admits: a search of all
        # but the last round that ends at a block boundary, give or take
        # one round, and a mismatch threshold that leaves a batch with
        # exactly half its rounds refused as the only early return.
        k, batch_length, n_batches = schedule
        instance = data.draw(instances(k))
        horizon, params = _edge_params(*schedule)
        assert params.phase1_max_rounds == horizon - 1
        assert (horizon - 1) % BLOCK in (BLOCK - 1, 0, 1)
        players = IncentiveAwareUCB(k, horizon), Belgic(params)
        generic_players = GenericUCB(k, horizon), Belgic(params)
        _assert_same_game(run_property, instance, players, generic_players, horizon, seed)

    @settings(max_examples=30, deadline=None, phases=NO_EXPLAIN)
    @given(
        instance=instances(),
        horizon=st.sampled_from((5, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_ucb_naive(self, instance, horizon, seed):
        k = instance.n_arms
        players = IncentiveAwareUCB(k, horizon), NaiveContextUCB(k, horizon)
        generic_players = GenericUCB(k, horizon), NaiveContextUCB(k, horizon)
        assert _round_function(False, *players) is _ucb_naive_rounds
        assert _round_function(False, *generic_players) is _no_property_rounds
        _assert_same_game(run_no_property, instance, players, generic_players, horizon, seed)

    @pytest.mark.parametrize("mode", ["property", "no-property"])
    @settings(max_examples=10, deadline=None, phases=NO_EXPLAIN)
    @given(k=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
    def test_exact_ties_in_a_game(self, mode, k, seed):
        # TestRuns' tie cases as whole games through run_property and
        # run_no_property: zero means, the game's noise rows from
        # _DYADIC_REWARDS, and every log_term at 0.0, so indices meet exactly
        # in every game and the arm numbers decide who plays. The property
        # game's horizon is 2^16 with beta 1/4 and no certificate pad, so the
        # search offers and the estimates are dyadic; each game crosses block
        # boundaries.
        instance = _zero_means(k)
        if mode == "property":
            horizon, run = 2**16, run_property
            params = BelgicParams(k, horizon, 0.6, 0.25, 0.0)
            players = IncentiveAwareUCB(k, horizon), Belgic(params)
            generic_players = GenericUCB(k, horizon), Belgic(params)
            for up, down in (players, generic_players):
                _no_exploration_bonus(up, down.pair_ucb)
        else:
            horizon, run = 2 * BLOCK + 3, run_no_property
            players = IncentiveAwareUCB(k, horizon), NaiveContextUCB(k, horizon)
            generic_players = GenericUCB(k, horizon), NaiveContextUCB(k, horizon)
            for up, down in (players, generic_players):
                _no_exploration_bonus(up, *down.contexts)
        noise = _dyadic_noise(seed, horizon)
        result = _assert_same_game(run, instance, players, generic_players, horizon, seed, noise)
        if mode == "property":
            assert all((tau * 2**10).is_integer() for tau in result.tau_hat)

    @pytest.mark.parametrize("mode", ["property", "no-property", "belgic-subclass"])
    def test_subclasses_are_played_by_the_generic_loop(self, mode):
        # A subclass of either policy of a learning pair, the upstream's or
        # Belgic's, is played one step() per round.
        class CountingUCB(IncentiveAwareUCB):
            steps = 0

            def step(self, offer):
                self.steps += 1
                return super().step(offer)

        class CountingBelgic(Belgic):
            steps = 0

            def step(self):
                self.steps += 1
                return super().step()

        instance = build_instance((0.9, 0.5), ((0.2, 0.1), (0.8, 0.3)))
        horizon = BLOCK + 1
        params = BelgicParams(2, horizon, *SMALL_SCHEDULE)
        if mode == "property":
            run, upstream, downstream = run_property, CountingUCB(2, horizon), Belgic(params)
        elif mode == "no-property":
            run, upstream, downstream = run_no_property, CountingUCB(2, horizon), NaiveContextUCB(2, horizon)
        else:
            run, upstream, downstream = run_property, IncentiveAwareUCB(2, horizon), CountingBelgic(params)
        run(instance, upstream, downstream, horizon, 0)
        counted = downstream if mode == "belgic-subclass" else upstream
        assert counted.steps == horizon

    @pytest.mark.parametrize("upstream_class", [IncentiveAwareUCB, GenericUCB])
    def test_spent_or_stepped_belgic_is_refused(self, upstream_class):
        instance = build_instance((0.9, 0.5), ((0.2, 0.1), (0.8, 0.3)))
        horizon = BLOCK
        params = BelgicParams(2, horizon, *SMALL_SCHEDULE)
        spent, stepped = Belgic(params), Belgic(params)
        run_property(instance, upstream_class(2, horizon), spent, horizon, 0)
        with pytest.raises(ValueError, match=f"^round {horizon + 1} exceeds horizon {horizon}$"):
            run_property(instance, upstream_class(2, horizon), spent, horizon, 0)
        stepped.step()
        with pytest.raises(RuntimeError, match=r"^step\(\) called twice without observe\(\)$"):
            run_property(instance, upstream_class(2, horizon), stepped, horizon, 0)


# ---------------------------------------------------------------- the offer stretch

#: Index values and amounts on a dyadic grid, so that index[arm] + amount
#: lands exactly on another entry: the ties are exact, not rounded.
_dyadic_indices = st.sampled_from((-0.5, 0.0, 0.25, 0.5, 0.75, 1.0, 1.5, math.inf))
_dyadic_amounts = st.sampled_from((0.0, 0.25, 0.5, 0.75, 1.0, 1.5))
_rewards = st.floats(-4.0, 4.0, allow_nan=False)


def _trained(ucb, data, rewards=_rewards):
    """ucb after random updates: arms never updated keep their +inf index."""
    updates = st.tuples(st.integers(0, ucb.n_arms - 1), rewards)
    for arm, reward in data.draw(st.lists(updates, max_size=30)):
        ucb.update(arm, reward)
    return ucb


def _stretch(ucb, arm, amount, rewards, start, stop):
    """(played arms, refusals) of one ``ucb_offer_stretch``: its runs
    expanded round by round, and the rounds of the runs that refused, as
    the Belgic kernel counts them. Every run plays at least one round."""
    runs = ucb_offer_stretch(ucb, arm, amount, rewards, start, stop)
    assert all(m >= 1 for m, _ in runs)
    played = [a for m, a in runs for _ in range(m)]
    return played, sum(m for m, a in runs if a != arm)


class TestOfferStretch:
    """``ucb_offer_stretch`` against IncentiveAwareUCB's own step/update."""

    @settings(max_examples=300, deadline=None)
    @given(
        k=st.integers(1, 5),
        data=st.data(),
        amount=st.one_of(_dyadic_amounts, st.floats(0.0, 3.0, allow_nan=False)),
    )
    def test_arm_choice_is_step(self, k, data, amount):
        ucb = IncentiveAwareUCB(k, 4096)
        ucb.index = data.draw(st.lists(_dyadic_indices, min_size=k, max_size=k))
        arm = data.draw(st.integers(-1, k))
        want = ucb.step(IncentiveOffer(arm, amount))
        played, refusals = _stretch(copy.deepcopy(ucb), arm, amount, [[0.0]] * k, 0, 1)
        assert played == [want]
        assert refusals == (want != arm)

    def test_arm_choice_cases_are_reached(self):
        # The cases the property above is meant to cover, each pinned once:
        # (index, arm, amount, the arm step() plays).
        cases = [
            ([1.0, math.inf, 0.5], 2, 0.5, 1),  # +inf beats any finite boost
            ([math.inf, math.inf], 1, 0.5, 0),  # +inf tie: the lower number
            ([0.5, 1.0, 0.5], 0, 0.5, 0),  # exact tie from a lower number
            ([1.0, 0.5], 1, 0.5, 0),  # exact tie from a higher number
            ([0.5, 1.0], 0, 0.0, 1),  # amount 0 changes nothing
            ([1.0, 1.0], 1, 0.0, 0),
            ([0.5, 1.0], -1, 1.0, 1),  # arms outside range(K) change nothing
            ([1.0, 0.5], 2, 1.0, 0),
        ]
        for index, arm, amount, want in cases:
            ucb = IncentiveAwareUCB(len(index), 4096)
            ucb.index = list(index)
            assert ucb.step(IncentiveOffer(arm, amount)) == want
            played, _ = _stretch(ucb, arm, amount, [[0.0]] * len(index), 0, 1)
            assert played == [want]

    @pytest.mark.parametrize(
        "source, examples",
        [("gaussian", 100), ("bernoulli", 100), ("dyadic", 300)],
        ids=["gaussian", "bernoulli", "dyadic"],
    )
    def test_stretch_is_steps_and_updates(self, source, examples):
        # The gaussian and bernoulli sources read a game's reward columns
        # (the noise stream on random means) after random updates; the
        # dyadic one reads rewards from _DYADIC_REWARDS with log_term 0.0, so
        # the indices meet exactly in mid-run (TestRuns), and takes more
        # examples to reach the tie orders.
        @settings(max_examples=examples, deadline=None)
        @given(k=st.integers(1, 5), data=st.data(), m=st.integers(0, 60), seed=st.integers(0, 2**32 - 1))
        def check(k, data, m, seed):
            arm = data.draw(st.integers(-1, k))
            ucb = IncentiveAwareUCB(k, 4096)
            if source == "dyadic":
                amount, start = data.draw(st.sampled_from((0.0, 0.5, 1.0))), 0
                _no_exploration_bonus(ucb)
                _trained(ucb, data, st.sampled_from(_DYADIC_REWARDS))
                rewards = _dyadic_rewards(seed, k, m)
            else:
                amount = data.draw(st.one_of(_dyadic_amounts, st.floats(0.0, 3.0, allow_nan=False)))
                start = data.draw(st.integers(0, 3))
                v_up = data.draw(st.lists(means, min_size=k, max_size=k))
                instance = build_instance(v_up, [[0.0] * k] * k, source)
                _trained(ucb, data)
                noise = draw_noise(instance, np.random.default_rng(seed), start + m)
                rewards = RewardColumns(instance, noise).up
            ref = copy.deepcopy(ucb)
            played, refusals = _stretch(ucb, arm, amount, rewards, start, start + m)
            offer = IncentiveOffer(arm, amount)
            ref_played = []
            for i in range(start, start + m):
                a = ref.step(offer)
                ref.update(a, rewards[a][i])
                ref_played.append(a)
            assert played == ref_played
            assert refusals == sum(a != arm for a in ref_played)
            assert learned_state(ucb) == learned_state(ref)

        check()


# ---------------------------------------------------------------- runs

#: _run_start's index entries: the dyadic grid (+inf included), whose boosted
#: entries tie exactly, and arbitrary floats.
_run_start_entries = st.one_of(_dyadic_indices, st.floats(-4.0, 4.0, allow_nan=False))


class TestRunStart:
    """``_run_start``'s one scan against ``ref_run_start``, which boosts a
    copy of the index and scans it twice."""

    @settings(max_examples=500, deadline=None)
    @given(
        k=st.integers(1, 5),
        data=st.data(),
        amount=st.one_of(st.just(0.0), _dyadic_amounts, st.floats(0.0, 3.0, allow_nan=False)),
    )
    def test_is_the_copy_version(self, k, data, amount):
        index = data.draw(st.lists(_run_start_entries, min_size=k, max_size=k))
        arm = data.draw(st.integers(-1, k))
        before = list(index)
        a, bar = _run_start(index, arm, amount)
        want_a, want_bar = ref_run_start(index, arm, amount)
        assert a == want_a
        assert bar.hex() == want_bar.hex()
        assert index == before

    def test_tie_cases_are_reached(self):
        # (index, arm, amount, a, bar), each case pinned once.
        below = math.nextafter
        cases = [
            ([0.5], -1, 0.0, 0, -math.inf),  # no rival
            ([0.5, 1.0, 0.5], -1, 0.0, 1, 0.5),  # the rival is numbered below a
            ([1.0, 0.5, 1.0], -1, 0.0, 0, below(1.0, -math.inf)),  # a wins the tie at top
            ([0.5, 0.5], 1, 0.5, 1, 0.5),  # a boosted arm above an arm numbered below
            ([1.0, 0.5], 1, 0.5, 0, below(1.0, -math.inf)),  # the boost only ties a
            ([math.inf, math.inf], 0, 1.0, 0, below(math.inf, -math.inf)),  # +inf ties too
            ([0.5, 1.0], 2, 1.0, 1, 0.5),  # an arm outside the table adds nothing
        ]
        for index, arm, amount, a, bar in cases:
            assert _run_start(index, arm, amount) == (a, bar)
            assert ref_run_start(index, arm, amount) == (a, bar)


#: The rewards of the tie cases. With every log_term at 0.0 an index is its
#: arm's running mean, so means of these rewards, offers on the dyadic grid
#: added, meet each other exactly: a run's played arm often ties its
#: threshold, and only the arm numbers decide who plays next.
_DYADIC_REWARDS = (0.0, 0.5, 1.0)


def _dyadic_rewards(seed, k, n):
    """k columns of n rewards from _DYADIC_REWARDS: RewardColumns.up's layout."""
    return np.random.default_rng(seed).choice(_DYADIC_REWARDS, size=(k, n)).tolist()


def _dyadic_noise(seed, n):
    """n noise rows that a gaussian instance with zero means turns into
    rewards from _DYADIC_REWARDS."""
    return np.random.default_rng(seed).choice(_DYADIC_REWARDS, size=(n, 2))


def _zero_means(k):
    return build_instance([0.0] * k, [[0.0] * k] * k)


def _no_exploration_bonus(*tables):
    """Set each table's log term to 0.0 and give it a bonus table of zeros
    (+inf at count 0, as ucb_bonuses has it), so that an index is its arm's
    running mean. The shared bonus table is replaced, not written to."""
    for table in tables:
        table.log_term = 0.0
        table.bonus = array("d", [math.inf]) + array("d", [0.0]) * (len(table.bonus) - 1)


def _play_in_pieces(play, players, instance, noise, cuts):
    """Play noise's rows in pieces split at cuts, each piece's rewards one
    RewardColumns; the columns joined. A cut past the last row cuts nothing,
    and no piece is empty: the engine hands a round function at least one
    row."""
    bounds = [0, *sorted(min(cut, len(noise)) for cut in cuts), len(noise)]
    pieces = [
        play(*players, RewardColumns(instance, noise[a:b]))
        for a, b in zip(bounds, bounds[1:])
        if a < b
    ]
    return [np.concatenate(column) for column in zip(*pieces)]


def _assert_same_pieces(kernel, loop, players, generic_players, instance, noise, cuts):
    """Play the same pieces with the kernel on players and with the generic
    loop on generic_players, and assert the same columns, named as they are
    returned ((up_arm, down_arm), then (offered_arm, amount) in the property
    mode), and the same final policy state."""
    columns = _play_in_pieces(kernel, players, instance, noise, cuts)
    generic = _play_in_pieces(loop, generic_players, instance, noise, cuts)
    assert len(columns) == len(generic)
    for name, mine, theirs in zip(("up_arm", "down_arm", "offered_arm", "amount"), columns, generic):
        assert_same_column(name, mine, theirs)
    for mine, theirs in zip(players, generic_players):
        assert learned_state(mine) == learned_state(theirs)


class TestRuns:
    """The kernels and the stretch play runs of one arm. On tables whose
    indices tie exactly in mid-run they must match the policies' own
    step/update/observe: a run ends where a tie goes to a lower-numbered
    arm, and goes on where the played arm wins it (the stretch's own cases
    are TestOfferStretch's dyadic source). Fresh tables open with their arms
    at +inf. A run that a stretch's stop cuts must resume exactly.
    """

    @settings(max_examples=150, deadline=None, phases=NO_EXPLAIN)
    @given(
        k=st.integers(1, 5),
        n=st.integers(1, 300),
        cuts=st.lists(st.integers(0, 300), max_size=2),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_ucb_naive(self, k, n, cuts, seed):
        instance, noise = _zero_means(k), _dyadic_noise(seed, n)
        players = IncentiveAwareUCB(k, 4096), NaiveContextUCB(k, 4096)
        generic_players = GenericUCB(k, 4096), NaiveContextUCB(k, 4096)
        for up, down in (players, generic_players):
            _no_exploration_bonus(up, *down.contexts)
        _assert_same_pieces(_ucb_naive_rounds, _no_property_rounds, players, generic_players, instance, noise, cuts)
        up = players[0]
        assert up.index == [mean if count else math.inf for mean, count in zip(up.means, up.counts)]

    @settings(max_examples=40, deadline=None, phases=NO_EXPLAIN)
    @given(
        k=st.integers(1, 5),
        cuts=st.lists(st.integers(0, 4096), max_size=2),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_ucb_belgic(self, k, cuts, seed):
        # T = 4096 with alpha 0.6 and beta 1/4: 148-round batches, 3 per
        # arm, precision 1/8 and no certificate pad, so the search offers
        # and the estimates tau_hat are all on the dyadic grid.
        horizon = 4096
        params = BelgicParams(k, horizon, 0.6, 0.25, 0.0)
        instance, noise = _zero_means(k), _dyadic_noise(seed, horizon)
        players = IncentiveAwareUCB(k, horizon), Belgic(params)
        generic_players = GenericUCB(k, horizon), Belgic(params)
        for up, down in (players, generic_players):
            _no_exploration_bonus(up, down.pair_ucb)
        _assert_same_pieces(_ucb_belgic_rounds, _property_rounds, players, generic_players, instance, noise, cuts)
        assert all((tau * 2**10).is_integer() for tau in players[1].tau_hat)

    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(1, 5),
        data=st.data(),
        amount=_dyadic_amounts,
        start=st.integers(0, 3),
        lengths=st.tuples(st.integers(0, 40), st.integers(0, 40)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_cut_stretch_resumes_exactly(self, k, data, amount, start, lengths, seed):
        # A run that stop cuts in two is picked up again from the tables.
        arm = data.draw(st.integers(-1, k))
        ucb = _trained(IncentiveAwareUCB(k, 4096), data)
        whole = copy.deepcopy(ucb)
        cut, stop = start + lengths[0], start + sum(lengths)
        rewards = _dyadic_rewards(seed, k, stop)
        played, refusals = _stretch(ucb, arm, amount, rewards, start, cut)
        rest, rest_refusals = _stretch(ucb, arm, amount, rewards, cut, stop)
        played, refusals = played + rest, refusals + rest_refusals
        whole_played, whole_refusals = _stretch(whole, arm, amount, rewards, start, stop)
        assert played == whole_played
        assert refusals == whole_refusals
        assert learned_state(ucb) == learned_state(whole)


# ---------------------------------------------------------------- cached indices


#: Each UCB table kind: (the largest K drawn, its UCBIndex tables for K arms
#: and a horizon).
INDEX_TABLES = {
    "upstream": (5, lambda k, horizon: [IncentiveAwareUCB(k, horizon)]),
    "pair": (3, lambda k, horizon: [pair_table(k, horizon)]),
    "context": (4, lambda k, horizon: NaiveContextUCB(k, horizon).contexts),
}


class TestCachedIndices:
    @pytest.mark.parametrize("kind", list(INDEX_TABLES))
    @settings(max_examples=60, deadline=None)
    @given(horizon=st.integers(5, 10**6), data=st.data())
    def test_index_is_the_formula(self, kind, horizon, data):
        # After every record(), each entry of each table is +inf until
        # sampled and the UCB formula on its count and mean after.
        largest_k, build = INDEX_TABLES[kind]
        tables = build(data.draw(st.integers(1, largest_k)), horizon)
        n = len(tables[0].counts)
        moves = st.tuples(st.integers(0, len(tables) - 1), st.integers(0, n - 1), _rewards)
        # A table counts at most horizon samples per entry.
        for t, entry, reward in data.draw(st.lists(moves, max_size=min(40, horizon))):
            tables[t].record(entry, reward)
            for table in tables:
                assert table.index == scratch_indices(table)

    def test_stretch_past_the_horizon_raises(self):
        # 20 rounds on 2 arms take some count past a horizon of 8.
        ucb = IncentiveAwareUCB(2, 8)
        with pytest.raises(ValueError, match="^count 9 is past the UCB table's horizon 8$"):
            ucb_offer_stretch(ucb, 0, 0.5, [[0.5] * 20, [0.25] * 20], 0, 20)

    @pytest.mark.parametrize("up_horizon,down_horizon", [(8, 100), (100, 8)])
    def test_game_past_a_table_horizon_raises(self, up_horizon, down_horizon):
        # The no-property kernel's joint runs, on either table: 40 rounds
        # take an upstream count, or one of a context's, past 8.
        instance = build_instance((0.9, 0.5), ((0.2, 0.1), (0.8, 0.3)))
        upstream, downstream = IncentiveAwareUCB(2, up_horizon), NaiveContextUCB(2, down_horizon)
        assert _round_function(False, upstream, downstream) is _ucb_naive_rounds
        with pytest.raises(ValueError, match="^count 9 is past the UCB table's horizon 8$"):
            run_no_property(instance, upstream, downstream, 40, 0)


# ---------------------------------------------------------------- the exploration rule


def _upstream_probes(k, data):
    """An IncentiveAwareUCB after random updates, probed under random offers
    (arms outside range(K) included) with their from-scratch indices."""
    ucb = _trained(IncentiveAwareUCB(k, 4096), data)
    offers = st.builds(IncentiveOffer, st.integers(-2, k + 1), st.floats(0.0, 3.0, allow_nan=False))
    probes = []
    for offer in data.draw(st.lists(offers, min_size=1, max_size=30)):
        probes.append(((offer,), [x + offer.bonus(a) for a, x in enumerate(scratch_indices(ucb))]))
    return ucb, ucb.step, probes


def _pair_probes(k, data):
    ucb = pair_table(k, 4096)
    n = k * k
    for pair, reward in data.draw(st.lists(st.tuples(st.integers(0, n - 1), _rewards), max_size=30)):
        ucb.record(pair, reward)
    return ucb, ucb.best, [((), scratch_indices(ucb))]


def _context_probes(k, data):
    ucb = NaiveContextUCB(k, 4096)
    arms = st.integers(0, k - 1)
    for context, arm, reward in data.draw(st.lists(st.tuples(arms, arms, _rewards), max_size=30)):
        ucb.update(context, arm, reward)
    return ucb, ucb.step, [((c,), scratch_indices(table)) for c, table in enumerate(ucb.contexts)]


class TestExplorationRule:
    """Every UCB explores by one rule: an arm or pair without a sample has
    index +inf, and step() (best() for the pair table) returns the
    lowest-numbered maximum and changes no state."""

    @pytest.mark.parametrize(
        "probes", [_upstream_probes, _pair_probes, _context_probes], ids=["upstream", "pair", "context"]
    )
    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(1, 5), data=st.data())
    def test_step_is_the_pure_first_maximum(self, probes, k, data):
        ucb, pick, cases = probes(k, data)
        for args, scratch in cases:
            before = copy.deepcopy(learned_state(ucb))
            arm = pick(*args)
            assert learned_state(ucb) == before
            assert pick(*args) == arm
            assert learned_state(ucb) == before
            assert arm == first_max(scratch)
