import importlib
from pathlib import Path

import numpy as np
import pytest

import legacy_ops
from advnav import instruct as ins
from advnav import world as w


@pytest.fixture(scope="module")
def vocab():
    return ins.build_vocabulary()


@pytest.fixture(scope="module")
def setup():
    g = w.generate_world(w.WorldConfig(seed=0))
    ep = w.make_episode(g, 0, g.n_nodes - 1)
    return g, ep


def toks(vocab, text):
    return tuple(vocab.id_of(x) for x in text.split())


def test_vocabulary_classes_disjoint(vocab):
    assert len(vocab.words) == len(set(vocab.words))
    for t in range(len(vocab)):
        assert vocab.classes[t] in ("object", "location", "direction", "filler")
    assert vocab.word(vocab.id_of("stop")) == "stop"
    assert vocab.words[:2] == ("<pad>", "<start>")


def test_target_set_string_match(vocab):
    tokens = toks(vocab, "walk past the table into the kitchen")
    targets = ins.build_target_set(tokens, vocab)
    assert [vocab.word(tokens[i]) for i in targets] == ["table", "kitchen"]


def test_target_set_empty_for_fillers(vocab):
    tokens = toks(vocab, "walk past the then go forward")
    assert ins.build_target_set(tokens, vocab) == ()


def test_candidates_are_remaining_targets(vocab):
    tokens = toks(vocab, "go to the table in the kitchen with the sofa")
    instr = ins.make_instruction(tokens, vocab)
    names = [vocab.word(tokens[i]) for i in instr.target_set]
    assert names == ["table", "kitchen", "sofa"]
    assert [names[i] for i in np.flatnonzero(instr.valid[0])] == ["kitchen", "sofa"]
    for j, i in instr.valid_actions():
        assert tokens[instr.target_set[i]] != tokens[instr.target_set[j]]


def test_two_targets_one_candidate_each(vocab):
    tokens = toks(vocab, "walk past the table into the kitchen")
    instr = ins.make_instruction(tokens, vocab)
    assert instr.valid.tolist() == [[False, True], [True, False]]


def test_duplicate_targets_deduplicated(vocab):
    tokens = toks(vocab, "go to the table then the kitchen then the table")
    instr = ins.make_instruction(tokens, vocab)
    assert instr.n_targets == 3
    # the "kitchen" target sees "table" once despite two occurrences: in the
    # first table's column
    assert np.flatnonzero(instr.valid[1]).tolist() == [0]
    # the two tables offer each other nothing
    assert not instr.valid[0, 2] and not instr.valid[2, 0]


def test_apply_perturbation_single_substitution(vocab):
    tokens = toks(vocab, "walk past the table into the kitchen")
    instr = ins.make_instruction(tokens, vocab)
    pert = ins.apply_perturbation(instr, ins.AttackAction(0, 1), timestep=0)
    changed = [i for i, (a, b) in enumerate(zip(instr.tokens, pert.tokens)) if a != b]
    assert changed == [instr.target_set[0]]
    assert vocab.word(pert.tokens[changed[0]]) == "kitchen"


def test_perturbations_never_compound(vocab):
    tokens = toks(vocab, "go to the table in the kitchen with the sofa")
    instr = ins.make_instruction(tokens, vocab)
    p0 = ins.apply_perturbation(instr, ins.AttackAction(0, 1), timestep=0)
    p1 = ins.apply_perturbation(instr, ins.AttackAction(2, 1), timestep=1)
    for p in (p0, p1):
        diff = sum(a != b for a, b in zip(instr.tokens, p.tokens))
        assert diff == 1


def test_all_valid_actions_have_hamming_distance_one(vocab):
    tokens = toks(vocab, "go to the table in the kitchen with the sofa")
    instr = ins.make_instruction(tokens, vocab)
    for action in instr.valid_actions():
        pert = ins.apply_perturbation(instr, action, timestep=0)
        assert sum(a != b for a, b in zip(instr.tokens, pert.tokens)) == 1
        assert instr.target_set[action.target_index] == pert.position


def test_substitutes_preserve_landmark_class(vocab, setup):
    g, ep = setup
    instr = ins.generate_instruction(g, ep, seed=3)
    for action in instr.valid_actions():
        pert = ins.apply_perturbation(instr, action, timestep=0)
        assert vocab.is_landmark(pert.token)


def test_invalid_action_rejected(vocab):
    tokens = toks(vocab, "walk past the table into the kitchen")
    instr = ins.make_instruction(tokens, vocab)
    dup = ins.make_instruction(
        toks(vocab, "go to the table then the kitchen then the table"), vocab)
    # out of range, a target onto itself, and off-grid cells (the same word,
    # and a repeated word's second column)
    for bad, action in [(instr, (5, 0)), (instr, (0, 3)), (instr, (-1, 0)),
                        (instr, (0, -1)), (instr, (0, 0)), (instr, (1, 1)),
                        (dup, (0, 2)), (dup, (1, 2))]:
        with pytest.raises(ValueError):
            ins.apply_perturbation(bad, ins.AttackAction(*action), 0)


def test_valid_grid_is_read_only_and_left_out_of_equality(vocab):
    tokens = toks(vocab, "walk past the table into the kitchen")
    instr = ins.make_instruction(tokens, vocab)
    with pytest.raises(ValueError):
        instr.valid[0, 0] = True
    again = ins.make_instruction(tokens, vocab)
    assert instr == again and hash(instr) == hash(again)


@pytest.mark.parametrize("spec", ["SHORT_EVAL", "LONG"])
def test_grid_matches_the_candidate_lists_on_bench_items(spec, monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    bench = importlib.import_module("bench")
    for seed in (1, 2, 3):
        for item in bench.make_items(getattr(bench, spec), seed):
            instr = item.instruction
            cands = legacy_ops.build_candidate_sets(instr.tokens, instr.target_set)
            assert instr.valid_actions() == legacy_ops.candidate_cells(instr)
            assert instr.attackable == (instr.n_targets >= 2 and all(cands))


def test_generate_instruction_deterministic(setup):
    g, ep = setup
    a = ins.generate_instruction(g, ep, seed=7)
    b = ins.generate_instruction(g, ep, seed=7)
    assert a.tokens == b.tokens
    assert a.target_set == b.target_set


def test_generated_landmarks_come_from_path(vocab, setup):
    g, ep = setup
    instr = ins.generate_instruction(g, ep, seed=1)
    path_words = set()
    for node in ep.ground_truth_path:
        path_words.update(g.landmarks[node])
    for pos in instr.target_set:
        assert vocab.word(instr.tokens[pos]) in path_words


def test_generated_landmarks_in_path_order(vocab, setup):
    g, ep = setup
    instr = ins.generate_instruction(g, ep, seed=2)
    assert instr.n_targets >= 3
    per_node = {}
    for i, node in enumerate(ep.ground_truth_path):
        for word in g.landmarks[node]:
            per_node.setdefault(word, i)
    ranks = [per_node[vocab.word(instr.tokens[p])] for p in instr.target_set]
    # goal landmarks repeat at the end; order must be non-decreasing until then
    assert ranks[:-2] == sorted(ranks[:-2])


def test_short_path_still_attackable(setup):
    g, _ = setup
    ep = w.make_episode(g, 0, 0)
    instr = ins.generate_instruction(g, ep, seed=0)
    assert instr.attackable
    assert instr.n_targets == 2


def test_corpus_is_pure_function_of_inputs(setup):
    g, ep = setup
    seqs = {ins.generate_instruction(g, ep, seed=s).tokens for s in range(4)}
    assert len(seqs) >= 2  # different seeds vary the templates
