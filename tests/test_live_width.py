"""Live-width beam stepping: the beam size is a cap, not a shape.

A request owns at most as many hypotheses as the trie offers, so the one
shared stepper carries ``G`` hypotheses per request — the largest live
count of any in-flight request that still has a level to go — through the
model, the head, the trie and the K/V reorder, never ``beam_size`` slots
padded with ``-inf`` filler.  Pinned here, on tries whose widths are ragged
(collapsed codebooks like the perf ledger's 1 → 1 → 7 → N fixture, wide →
thin → wide, single-item, random):

* rankings identical to the single-request oracles
  (``beam_search_items_single``, ``TIGER.recommend``) and scores equal to
  float rounding, for one cohort and for arrivals spread over the levels of
  a live cohort, which the continuous loop decodes as later cohorts;
* the invariants, asserted around every prefill / step / finish by
  :class:`Watched`: a state is a closed cohort (every row at one depth,
  prefill to finish), finite scores are a prefix of every request's
  slots, the width is exactly the live width, every hypothesis's trie
  node sits at the cohort's depth and every live one maps back to its
  token prefix, no forward, head gather or trie lookup receives more than
  ``B*G`` rows, and the K/V and step scratch are gone after the finish;
* the exact traffic, as ``DecodeState.beam_rows``, and that a closed
  batch gathers no K/V after its last level.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import TIGER, TIGERConfig
from repro.core.indexer import build_random_index_set
from repro.llm import (
    LMConfig,
    TinyLlama,
    backfill_items,
    beam_search_items_single,
    decode_finish,
    decode_prefill,
    decode_step,
)
from repro.quantization import IndexTrie, ItemIndexSet
from repro.serving import (
    RecommendRequest,
    RequestQueue,
    TIGEREngine,
    TrieDecoderEngine,
)
from repro.serving import engine as engine_module
from repro.tensor import BeamKVCache

FIXTURE = (1, 1, 7, 3)  # the ledger's LC-Rec trie, 1 -> 1 -> 7 -> N, in small
PROMPTS = [[1, 2, 3], [4, 5], [6], [2, 2, 6, 7], [3, 3, 3]]


def make_model(vocab=120, seed=7):
    model = TinyLlama(LMConfig(vocab_size=vocab, dim=16, num_layers=2, num_heads=2,
                               ffn_hidden=24, max_seq_len=64, seed=seed))
    model.eval()
    return model


def level_codes(branching):
    """Every code tuple of a trie whose level ``l`` offers ``branching[l]`` codes."""
    return list(itertools.product(*(range(width) for width in branching)))


def make_trie(codes, first_token=10):
    """Code tuples as an ``IndexTrie`` with a disjoint token range per level."""
    sizes = [max(code[level] for code in codes) + 1 for level in range(len(codes[0]))]
    offsets = first_token + np.concatenate([[0], np.cumsum(sizes[:-1])])
    return IndexTrie({item: tuple(int(o + c) for o, c in zip(offsets, code))
                      for item, code in enumerate(codes)})


class Watched:
    """The stepper's entry points, with the live-width invariants around each.

    ``install`` puts them where the engines look the stepper up, so a real
    engine's ``decode`` can be driven under the same checks.  ``patch`` is how
    models and tries are instrumented: pass ``monkeypatch.setattr`` for
    objects that outlive the test.
    """

    def __init__(self, patch=setattr):
        self.patch = patch
        self.watching = set()
        self.bound = None  # most rows a model or trie call may get; None outside a step
        self.widths = []  # the width every step ran at

    def install(self, monkeypatch):
        for name in ("prefill", "step", "finish"):
            monkeypatch.setattr(engine_module, f"decode_{name}", getattr(self, name))

    def _watch(self, owner, name):
        if (id(owner), name) in self.watching:
            return
        self.watching.add((id(owner), name))
        original = getattr(owner, name)

        def watched(rows, *args, **kwargs):
            assert self.bound is None or len(rows) <= self.bound, (name, len(rows), self.bound)
            return original(rows, *args, **kwargs)

        self.patch(owner, name, watched)

    def check(self, state):
        finite = np.isfinite(state.beam_scores)
        assert (finite[:, :-1] >= finite[:, 1:]).all()  # finite scores: a prefix of the slots
        ordered = np.where(finite, state.beam_scores, -np.inf)
        assert (ordered[:, :-1] >= ordered[:, 1:]).all()  # best first: finish reads them so
        depths = state.row_depths()
        assert len(set(depths.tolist())) <= 1  # a closed cohort: one depth, prefill to finish
        self.check_nodes(state, finite, depths)
        if state.done:
            return  # a finished cohort is only harvested: nothing reads its width again
        assert state.width == max(1, int(finite.sum(axis=1).max()))
        assert 1 <= state.width <= state.num_beams
        assert state.pending.shape[0] == state.num_rows * state.width
        for cache in state.caches:
            assert cache.fanned and cache.beams == state.width
            assert cache.prompt.batch_size == state.num_rows
            if cache.suffix.keys is not None:
                assert cache.suffix.batch_size == state.num_rows * state.width

    @staticmethod
    def check_nodes(state, finite, depths):
        """Every slot sits at the cohort's depth; every live node is a real
        prefix and every -inf slot the depth's dead node."""
        trie = state.trie
        assert state.beam_nodes.shape == state.beam_scores.shape
        assert (trie.depth[state.beam_nodes] == depths[:, None]).all()
        dead = trie.num_real + depths[:, None]
        assert (finite | (state.beam_nodes == dead)).all()
        for node in state.beam_nodes[finite].tolist():
            prefix = trie.prefix(node)
            assert prefix is not None and trie.contains_prefix(prefix)
            assert trie.node_of(prefix) == node

    def prefill(self, model, prompts, trie, **kwargs):
        for owner, name in ((model, "hidden_states"), (model, "lm_head_gather"),
                            (trie, "allowed_token_ids")):
            self._watch(owner, name)
        state = decode_prefill(model, prompts, trie, **kwargs)
        self.check(state)
        return state

    def _bounded(self, call, state, *args):
        self.bound = state.num_rows * state.width
        try:
            call(state, *args)
        finally:
            self.bound = None
        self.check(state)
        return state

    def step(self, state):
        self.widths.append(state.width)
        return self._bounded(decode_step, state)

    def finish(self, state):
        results = decode_finish(state)
        self.check(state)
        assert state.caches == [] and state.workspace.nbytes == 0  # released with the harvest
        return results

    def decode(self, model, trie, admissions, beam_size, narrow=None):
        """Cohorts over ticks: ``admissions[tick]`` prompts arrive before that
        tick, a live cohort steps one level a tick, and a tick with none live
        prefills all that have arrived as the next cohort.

        ``narrow`` maps each prompt (as a tuple) to its candidate items or
        ``None``.
        """
        state, cohort, results, queued, tick = None, [], {}, [], 0
        while state is not None or queued or tick <= max(admissions):
            queued = queued + admissions.get(tick, [])
            if state is None and queued:
                cohort, queued = [tuple(p) for p in queued], []
                rows = None if narrow is None else [narrow[prompt] for prompt in cohort]
                state = self.prefill(model, [list(p) for p in cohort], trie,
                                     beam_size=beam_size, narrow=rows)
            if state is not None:
                if not state.done:  # a one-level trie finishes in prefill
                    self.step(state)
                if state.done:
                    results.update(zip(cohort, self.finish(state)))
                    state = None
            tick += 1
        return results


def assert_same_hypotheses(got, expected):
    assert [h.token_ids for h in got] == [h.token_ids for h in expected]
    assert [h.item_id for h in got] == [h.item_id for h in expected]
    np.testing.assert_allclose([h.score for h in got], [h.score for h in expected],
                               rtol=1e-5, atol=2e-6)


def narrowed_recommend(engine, histories, candidates, top_k):
    """Rankings of ``histories`` decoded narrowed to ``candidates``, through
    requests stamped with ``narrow_items`` as the hybrid lane builds them."""
    requests = [RecommendRequest(prompt_ids=engine.encode_history(list(history)), top_k=top_k,
                                 beam_size=engine.request_beam_size(top_k),
                                 narrow_items=tuple(candidates)) for history in histories]
    return engine.finalize(requests, engine.decode(requests))


def assert_matches_oracle(results, model, trie, beam_size):
    for prompt, hypotheses in results.items():
        assert_same_hypotheses(
            hypotheses, beam_search_items_single(model, list(prompt), trie, beam_size=beam_size))


# ----------------------------------------------------------------------
# Closed batches on ragged tries
# ----------------------------------------------------------------------
class TestRaggedTries:
    @pytest.mark.parametrize("beam_size", [1, 5, 20, 64])
    @pytest.mark.parametrize("branching", [FIXTURE, (6, 1, 4), (1, 1, 1), (3,), (1, 9), (9, 1)],
                             ids=lambda b: "x".join(map(str, b)))
    def test_closed_batch_matches_single_request_oracle(self, branching, beam_size):
        model, trie = make_model(), make_trie(level_codes(branching))
        watched = Watched()
        results = watched.decode(model, trie, {0: PROMPTS}, beam_size)
        assert len(results) == len(PROMPTS)
        assert_matches_oracle(results, model, trie, beam_size)
        # The widths are the trie's, capped: nothing steps at beam_size
        # unless that many prefixes exist.
        prefixes = np.cumprod(branching)
        assert max(watched.widths, default=1) <= min(beam_size, prefixes[-1])

    def test_ragged_branches_keep_per_request_live_counts(self):
        # One first code leads to a single item, the other to twelve: the
        # requests' beams grow at different rates inside one batch.
        codes = [(0, 0, 0)] + [(1, b, c) for b in range(3) for c in range(4)]
        model, trie = make_model(), make_trie(codes)
        results = Watched().decode(model, trie, {0: PROMPTS}, 8)
        assert_matches_oracle(results, model, trie, 8)

    def test_narrowing_that_leaves_fewer_paths_than_beams(self):
        model, trie = make_model(), make_trie(level_codes(FIXTURE))
        candidates = [2, 9, 10, 20]
        watched = Watched()
        results = watched.decode(model, trie, {0: PROMPTS[:3], 1: PROMPTS[3:]}, 20,
                                 narrow={tuple(prompt): candidates for prompt in PROMPTS})
        assert max(watched.widths) <= len(candidates)
        for prompt, hypotheses in results.items():
            full = beam_search_items_single(model, list(prompt), trie, beam_size=trie.num_items)
            assert_same_hypotheses(hypotheses, [h for h in full if h.item_id in candidates])


# ----------------------------------------------------------------------
# Widths on the ledger's trie shape
# ----------------------------------------------------------------------
class TestWidthsMeet:
    """On a 1 -> 1 -> 7 -> N trie a request steps at widths 1, 1 and 7.

    Cohorts never meet: a later arrival waits for the live cohort to finish
    and then steps at its own widths from the root.
    """

    def run(self, branching, admissions):
        model, trie = make_model(), make_trie(level_codes(branching))
        watched = Watched()
        results = watched.decode(model, trie, admissions, 20)
        assert len(results) == sum(map(len, admissions.values()))
        assert_matches_oracle(results, model, trie, 20)
        return watched.widths

    def test_alone(self):
        assert self.run(FIXTURE, {0: PROMPTS[:2]}) == [1, 1, 7]

    def test_a_later_arrival_steps_at_its_own_widths(self):
        # Arriving while the first cohort is at width 7, the late request
        # waits for it to finish and is then a cohort of width 1, 1, 7.
        assert self.run(FIXTURE, {0: PROMPTS[:2], 2: PROMPTS[2:3]}) == [1, 1, 7, 1, 1, 7]


# ----------------------------------------------------------------------
# The real drivers under the same checks
# ----------------------------------------------------------------------
def request(prompt, beam_size=20, top_k=5):
    return RecommendRequest(prompt_ids=list(prompt), top_k=top_k, beam_size=beam_size)


class TestSchedulerAndEngines:
    def test_scheduler_arrivals_at_every_level(self, monkeypatch):
        model, trie = make_model(), make_trie(level_codes(FIXTURE))
        watched = Watched()
        watched.install(monkeypatch)
        engine = TrieDecoderEngine(model, trie)
        queue, delivered, arrivals = RequestQueue(), [], iter(PROMPTS)
        step = engine.step

        def arriving(state):  # one arrival per level of a live cohort
            if (prompt := next(arrivals, None)) is not None:
                assert queue.try_push(request(prompt))
            step(state)

        monkeypatch.setattr(engine, "step", arriving)
        assert queue.try_push(request(next(arrivals)))
        cohorts = 0
        while queue:  # the continuous loop's body: the head of one width is the next cohort
            cohort = queue.pop_front(8, lambda r: engine.effective_beams(r.beam_size))
            delivered.extend(zip(cohort, engine.decode(cohort)))
            cohorts += 1
        assert len(delivered) == len(PROMPTS) and cohorts < len(PROMPTS)
        assert sorted(set(watched.widths)) == [1, 7]
        for served, hypotheses in delivered:
            assert_same_hypotheses(
                hypotheses, beam_search_items_single(model, served.prompt_ids, trie, beam_size=20))

    @pytest.fixture(scope="class")
    def tiger(self):
        # Untrained weights rank as well as any for parity; 21 items on the
        # fixture's shape, so every level but the last is thinner than a beam.
        codes = np.array(level_codes(FIXTURE))
        model = TIGER(ItemIndexSet(codes, list(FIXTURE)), TIGERConfig(dim=16, max_history=3))
        model.eval()
        return model

    @pytest.mark.parametrize("top_k", [3, 10, 21, 30])  # 30: the beam exceeds the catalog
    def test_tiger_matches_recommend(self, tiger, top_k, monkeypatch):
        watched = Watched(monkeypatch.setattr)
        watched.install(monkeypatch)
        histories = [[3], [9, 4], [20, 1, 7], [5, 5]]
        got = TIGEREngine(tiger).recommend_many(histories, top_k=top_k)
        assert got == [tiger.recommend(history, top_k=top_k) for history in histories]
        assert watched.widths == [1, 1, min(7, max(tiger.config.beam_size, top_k))]

    def test_tiger_widen_to_catalog_retry_on_a_narrowed_decode(self, tiger, monkeypatch):
        # Three candidate paths, five results wanted: the first decode comes
        # up short, the retry asks for a catalog-wide beam (21) and still
        # steps at the three hypotheses that exist; the rest is backfill.
        watched = Watched(monkeypatch.setattr)
        watched.install(monkeypatch)
        candidates, histories = [2, 9, 20], [[3], [9, 4]]
        got = narrowed_recommend(TIGEREngine(tiger), histories, candidates, top_k=5)
        for history, ranking in zip(histories, got):
            full = tiger.recommend(history, top_k=tiger.trie.num_items)
            assert ranking == backfill_items([i for i in full if i in candidates], 5, 21)
        assert max(watched.widths) == 3 and len(watched.widths) == 6  # two decodes


class TestTigerBatchShape:
    """The perf ledger's ``tiger_batch`` shape: 16 requests x 20 beams over
    3 x 256 random codes, i.e. 320 hypotheses a step, every one a node id."""

    @pytest.fixture(scope="class")
    def tiger(self):
        model = TIGER(build_random_index_set(400, 3, 256, np.random.default_rng(5)),
                      TIGERConfig(dim=16, max_history=3, beam_size=20, seed=2))
        rng = np.random.default_rng(9)
        for param in model.parameters():  # untrained, but no two rows tie
            param.data += (rng.standard_normal(param.shape) * 0.3).astype(np.float32)
        model.eval()
        return model

    @pytest.fixture(scope="class")
    def histories(self, tiger):
        rng = np.random.default_rng(4)
        return [list(rng.integers(0, tiger.trie.num_items, size=rng.integers(1, 4)))
                for _ in range(16)]

    def test_matches_recommend(self, tiger, histories, monkeypatch):
        watched = Watched(monkeypatch.setattr)
        watched.install(monkeypatch)
        got = TIGEREngine(tiger).recommend_many(histories, top_k=20)
        assert got == [tiger.recommend(history, top_k=20) for history in histories]
        assert watched.widths == [20, 20]

    def test_one_trie_gather_per_step_and_no_prefix_walks(self, tiger, histories, monkeypatch):
        trie, engine = tiger.trie, TIGEREngine(tiger)
        gathered = []
        gather = trie.allowed_token_ids

        def counting(nodes):
            gathered.append(len(nodes))
            return gather(nodes)

        def per_prefix(*args):
            raise AssertionError("the stepper walked a token prefix")

        monkeypatch.setattr(trie, "allowed_token_ids", counting)
        for name in ("allowed_tokens", "item_at", "contains_prefix"):
            monkeypatch.setattr(trie, name, per_prefix)
        state = decode_prefill(tiger, [engine.encode_history(h) for h in histories], trie,
                               beam_size=20)
        assert gathered == [16]  # level 0 is a step from each row's root
        while not state.done:
            calls = len(gathered)
            decode_step(state)  # one gather, whether it forwards or finds every beam forced
            assert len(gathered) == calls + 1
        assert gathered == [16, 16 * 20, 16 * 20]
        hypotheses = decode_finish(state)
        assert [len(row) for row in hypotheses] == [20] * 16


# ----------------------------------------------------------------------
# Exact counts
# ----------------------------------------------------------------------
class TestForwardedRows:
    def decode(self, branching, prompts, beam_size=20):
        model, trie = make_model(vocab=400), make_trie(level_codes(branching))
        state = decode_prefill(model, prompts, trie, beam_size=beam_size)
        while not state.done:
            decode_step(state)
        return state

    def test_collapsed_trie_forwards_the_hypotheses_that_exist(self):
        # 1 -> 1 -> 7 -> N at K = 20: level 1 is forced, so level 2 flushes
        # T = 2 tokens on the one live row, then level 3 forwards 7 rows.
        # Twenty slots per request would have forwarded 20*2 + 20 = 60.
        state = self.decode(FIXTURE, PROMPTS[:1])
        assert (state.beam_rows, state.forwards) == (1 * 2 + 7, 3)
        assert self.decode(FIXTURE, PROMPTS[:4]).beam_rows == 4 * 9

    def test_a_trie_wider_than_the_beam_forwards_the_beam(self):
        state = self.decode((64, 2, 2), PROMPTS[:3])
        assert state.width == 20
        assert state.beam_rows == 3 * 20 * 2  # two steps of B*K rows, T = 1 each

    def test_a_closed_batch_gathers_no_kv_after_its_last_level(self, monkeypatch):
        reorders = []
        original = BeamKVCache.reorder

        def counting(cache, beam_indices, beams=None):
            if cache.suffix.length:  # level 0 only sets the width: no K/V to gather yet
                reorders.append(len(beam_indices))
            return original(cache, beam_indices, beams)

        monkeypatch.setattr(BeamKVCache, "reorder", counting)
        state = self.decode((3, 3, 3), PROMPTS[:2], beam_size=4)
        layers = len(state.caches)
        # Two steps, one gather per layer after the first (onto width 4), none after the last.
        assert state.forwards == 3 and reorders == [2 * 4] * layers


# ----------------------------------------------------------------------
# Random tries x random admission orders
# ----------------------------------------------------------------------
@st.composite
def ragged_tries(draw):
    """2-4 levels, 1-4 codes a level (one-code levels included), items dropped at random."""
    branching = draw(st.lists(st.integers(1, 4), min_size=2, max_size=4))
    codes = level_codes(branching)
    kept = draw(st.lists(st.sampled_from(codes), min_size=1, max_size=len(codes), unique=True))
    return sorted(kept)


class TestProperty:
    @settings(max_examples=30, deadline=None)
    @given(codes=ragged_tries(), beam_size=st.integers(1, 9),
           ticks=st.lists(st.integers(0, 5), min_size=1, max_size=len(PROMPTS)))
    def test_any_trie_any_admission_order(self, codes, beam_size, ticks):
        model, trie = make_model(), make_trie(codes)
        admissions = {}
        for prompt, tick in zip(PROMPTS, ticks):
            admissions.setdefault(tick, []).append(prompt)
        results = Watched().decode(model, trie, admissions, beam_size)
        assert len(results) == len(ticks)
        assert_matches_oracle(results, model, trie, beam_size)

    @settings(max_examples=30, deadline=None)
    @given(codes=ragged_tries(), data=st.data(),
           ticks=st.lists(st.integers(0, 5), min_size=1, max_size=len(PROMPTS)))
    def test_any_candidate_set_per_row(self, codes, data, ticks):
        # Narrowing is per row: whatever each request is narrowed to (or not
        # at all) and whenever it arrives, it gets the exhaustive decode
        # filtered to its own candidates.
        model, trie = make_model(), make_trie(codes)
        items = list(range(trie.num_items))
        subsets = st.none() | st.lists(st.sampled_from(items), min_size=1, unique=True)
        admissions, candidates = {}, {}
        for prompt, tick in zip(PROMPTS, ticks):
            admissions.setdefault(tick, []).append(prompt)
            candidates[tuple(prompt)] = data.draw(subsets)
        results = Watched().decode(model, trie, admissions, len(items), narrow=candidates)
        assert len(results) == len(ticks)
        for prompt, hypotheses in results.items():
            full = beam_search_items_single(model, list(prompt), trie, beam_size=len(items))
            chosen = candidates[prompt]
            assert_same_hypotheses(
                hypotheses, [h for h in full if chosen is None or h.item_id in chosen])
