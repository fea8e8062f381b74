"""A greedy run decodes as the rows of one batch (search.greedy_decode_batch,
reached through evaluate.decode_lemmas), against per-word greedy_decode.

The contract between the two greedy paths is rounding-level: the same ids
and truncation flags, log-probs within 1e-12, since rows step
lstm.rows_step and row products where a single model steps one state. It
holds for every variant, stacked and mixed ensembles, with no LM, with an LM
and at lambda 0, and whatever the lemma order and the batch size."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import randomize_params
from morphogen import evaluate as ev
from morphogen import lstm
from morphogen import model as mod
from morphogen import search as se
from morphogen.charlm import train_lm
from morphogen.errors import DataError
from morphogen.model import VARIANTS, DecodeSession, init_model
from morphogen.vocab import EOS, CharVocab

VOCAB = CharVocab("abcd")
LM = train_lm(["abca", "bacab", "cab", "ab", "cca", "dab", "adda"], order=3)
TOL = 1e-12
# lengths 1 to 9, "z" is no character of the vocabulary (UNK)
LEMMAS = ["a", "z", "bd", "cza", "abcd", "dcbaz", "bbadc", "azcdab", "cabdabc", "dzbacdba",
          "abcdabcda", "c", "dd", "bacz"]


def _model(variant, seed, hidden=4):
    m = randomize_params(init_model(VOCAB, variant, hidden=hidden, embed_dim=3, seed=0), seed)
    m.out_b.value[EOS] += 1.5     # so that some words end before max_len and some do not
    return m


ENSEMBLES = {
    **{v: [_model(v, 1)] for v in VARIANTS},
    "stack": [_model("full", seed) for seed in (2, 3, 4)],
    # a stack of two between two single models of other configurations
    "mixed": [_model("attention", 5), _model("no-encoder", 6, hidden=5),
              _model("no-encoder", 7, hidden=5), _model("full", 8, hidden=3)],
}
LMS = {"no-lm": (None, None), "lm": (LM, 0.7), "lambda-0": (LM, 0.0)}


def _assert_rounding_level(got, want):
    assert [(r.ids, r.truncated) for r in got] == [(r.ids, r.truncated) for r in want]
    assert all(type(r.logprob) is float and all(type(i) is int for i in r.ids) for r in got)
    assert max(abs(g.logprob - w.logprob) for g, w in zip(got, want)) <= TOL


@pytest.mark.parametrize("lm_kind", LMS)
@pytest.mark.parametrize("name", ENSEMBLES)
def test_decode_lemmas_greedy_equals_per_word_greedy(name, lm_kind):
    models, (lm, lam) = ENSEMBLES[name], LMS[lm_kind]
    for slack in (0, 10):
        got = ev.decode_lemmas(models, LEMMAS, lm=lm, lam=lam, max_len_slack=slack)
        assert all(len(nbest) == 1 for nbest in got)
        want = [se.greedy_decode(models, VOCAB.encode(lemma), len(lemma) + slack, lm=lm, lam=lam)
                for lemma in LEMMAS]
        _assert_rounding_level([r for r, in got], want)


def test_the_runs_end_both_ways():
    """The cases above retire rows at EOS and at their own max_len."""
    flags = {r.truncated for models in ENSEMBLES.values() for slack in (0, 10)
             for r, in ev.decode_lemmas(models, LEMMAS, max_len_slack=slack)}
    assert flags == {False, True}


@settings(deadline=None, max_examples=40)
@given(lemmas=st.lists(st.text(alphabet="abcdz", min_size=1, max_size=9), min_size=1,
                       max_size=10),
       order_seed=st.integers(0, 2**16), batch=st.sampled_from((1, 3, None)),
       name=st.sampled_from(sorted(ENSEMBLES)), lm_kind=st.sampled_from(sorted(LMS)))
def test_results_depend_neither_on_lemma_order_nor_on_batch_size(lemmas, order_seed, batch,
                                                                 name, lm_kind):
    models, (lm, lam) = ENSEMBLES[name], LMS[lm_kind]
    want = ev.decode_lemmas(models, lemmas, lm=lm, lam=lam)
    order = np.random.default_rng(order_seed).permutation(len(lemmas))
    with pytest.MonkeyPatch.context() as mp:
        if batch is not None:
            mp.setattr(se, "BATCH_SOURCES", batch)
        got = ev.decode_lemmas(models, [lemmas[i] for i in order], lm=lm, lam=lam)
    _assert_rounding_level([got[j][0] for j in np.argsort(order)], [r for r, in want])


@pytest.mark.parametrize("name", ("full", "stack"))
def test_an_empty_lemma_in_a_run_raises_the_per_word_error(name):
    models = ENSEMBLES[name]
    with pytest.raises(DataError) as per_word:
        se.greedy_decode(models, VOCAB.encode(""), 10)
    with pytest.raises(DataError) as run:
        ev.decode_lemmas(models, ["ab", "", "c"])
    assert str(run.value) == str(per_word.value) == "empty input sequence"


def test_a_run_stacks_its_members_once(monkeypatch):
    """A stack is built once per decode_lemmas call, however many batches."""
    stacks = []
    real = se._stack

    def spy(models):
        stacks.append(len(models))
        return real(models)

    monkeypatch.setattr(se, "_stack", spy)
    monkeypatch.setattr(se, "BATCH_SOURCES", 3)
    ev.decode_lemmas(ENSEMBLES["mixed"], LEMMAS)
    assert stacks == [2]


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("members", (1, 3))
def test_a_batch_session_row_is_its_source_alone(variant, members):
    """Padding changes no row: each row of a batch session's initial state
    and steps equals a session over that source alone, to rounding."""
    models = [_model(variant, seed) for seed in range(1, members + 1)]
    params = models[0] if members == 1 else mod._stack(models)
    sources = [VOCAB.encode(w) for w in ("abcdab", "a", "zcd")]
    batch = DecodeSession(params, sources=sources)
    H, C = batch.initial_state()
    rng = np.random.default_rng(0)
    H, C = H + rng.normal(size=H.shape), C + rng.normal(size=C.shape)
    y = rng.integers(0, len(VOCAB), size=len(sources))
    alone = [DecodeSession(params, x_ids) for x_ids in sources]
    for r, session in enumerate(alone):
        np.testing.assert_allclose(batch.initial_state()[0][..., r:r + 1, :],
                                   session.initial_state()[0][..., None, :],   # as a row of one
                                   rtol=0, atol=TOL)
    for t in (0, 2, 7):    # t = 7 is past every source's end
        outs = batch.step(H, C, y, t)
        for r, session in enumerate(alone):
            want = session.step(H[..., r:r + 1, :], C[..., r:r + 1, :], y[r:r + 1], t)
            for got, w in zip(outs, want):
                np.testing.assert_allclose(got[..., r:r + 1, :], w, rtol=0, atol=TOL)
    # select keeps rows 2 and 0, in that order
    keep = [2, 0]
    batch.select(keep)
    kept = batch.step(H[..., keep, :], C[..., keep, :], y[keep], 1)
    for row, r in enumerate(keep):
        want = alone[r].step(H[..., r:r + 1, :], C[..., r:r + 1, :], y[r:r + 1], 1)
        for got, w in zip(kept, want):
            np.testing.assert_allclose(got[..., row:row + 1, :], w, rtol=0, atol=TOL)


def test_masked_encoder_rows_equal_each_source_alone():
    m = _model("attention", 9, hidden=3)
    sources = [np.random.default_rng(s).normal(size=(length, 3)) for s, length in
               enumerate((4, 1, 6))]
    T = 6
    xs = [np.array([x[t] if t < len(x) else np.full(3, 99.0) for x in sources])
          for t in range(T)]
    mask = (np.arange(T)[:, None] < [len(x) for x in sources])[..., None]
    fwd_hs, bwd_hs = lstm.encode_bidirectional(m.enc_fwd, m.enc_bwd, xs, mask)[:2]
    for r, x in enumerate(sources):
        fwd_one, bwd_one = lstm.encode_bidirectional(m.enc_fwd, m.enc_bwd, list(x))[:2]
        for t in range(len(x)):
            np.testing.assert_allclose(fwd_hs[t][r], fwd_one[t], rtol=0, atol=TOL)
            np.testing.assert_allclose(bwd_hs[t][r], bwd_one[t], rtol=0, atol=TOL)
        # the final states: the forward pass's at the end, the backward pass's at 0
        np.testing.assert_allclose(fwd_hs[-1][r], fwd_one[-1], rtol=0, atol=TOL)
        np.testing.assert_allclose(bwd_hs[0][r], bwd_one[0], rtol=0, atol=TOL)
