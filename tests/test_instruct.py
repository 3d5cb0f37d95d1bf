import hashlib

import numpy as np
import pytest

import bench
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
    for cell in instr.valid_actions():
        j, i = divmod(cell, instr.n_targets)
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
    pert = ins.apply_perturbation(instr, 1, timestep=0)     # cell (0, 1)
    changed = [i for i, (a, b) in enumerate(zip(instr.tokens, pert.tokens)) if a != b]
    assert changed == [instr.target_set[0]]
    assert vocab.word(pert.tokens[changed[0]]) == "kitchen"


def test_perturbations_never_compound(vocab):
    tokens = toks(vocab, "go to the table in the kitchen with the sofa")
    instr = ins.make_instruction(tokens, vocab)
    p0 = ins.apply_perturbation(instr, 1, timestep=0)       # cell (0, 1)
    p1 = ins.apply_perturbation(instr, 7, timestep=1)       # cell (2, 1)
    for p in (p0, p1):
        diff = sum(a != b for a, b in zip(instr.tokens, p.tokens))
        assert diff == 1


def test_all_valid_actions_have_hamming_distance_one(vocab):
    tokens = toks(vocab, "go to the table in the kitchen with the sofa")
    instr = ins.make_instruction(tokens, vocab)
    for action in instr.valid_actions():
        pert = ins.apply_perturbation(instr, action, timestep=0)
        assert sum(a != b for a, b in zip(instr.tokens, pert.tokens)) == 1
        assert instr.target_set[action // instr.n_targets] == pert.position


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
    for bad, cell in [(instr, 10), (instr, 4), (instr, -1), (instr, 0), (instr, 3),
                      (dup, 2), (dup, 5)]:
        with pytest.raises(ValueError):
            ins.apply_perturbation(bad, cell, 0)


def test_valid_grid_is_read_only_and_left_out_of_equality(vocab):
    tokens = toks(vocab, "walk past the table into the kitchen")
    instr = ins.make_instruction(tokens, vocab)
    with pytest.raises(ValueError):
        instr.valid[0, 0] = True
    again = ins.make_instruction(tokens, vocab)
    assert instr == again and hash(instr) == hash(again)


@pytest.mark.parametrize("spec", ["SHORT_EVAL", "LONG"])
def test_grid_matches_the_candidate_lists_on_bench_items(spec):
    for seed in (1, 2, 3):
        for item in bench.make_items(getattr(bench, spec), seed):
            instr = item.instruction
            cands = legacy_ops.build_candidate_sets(instr.tokens, instr.target_set)
            assert instr.valid_actions() == legacy_ops.candidate_cells(instr)
            # every bench item was built, so no legacy list may be empty
            assert instr.n_targets >= 2 and all(cands)


def _bench_items_digest(items, seed):
    """Hash of the items' worlds, routes and instructions, and of the
    teacher actions, rewards and success along a seeded walk from each."""
    h = hashlib.sha256()
    rng = np.random.default_rng(seed)
    for world, ep, instr in items:
        # the edge list and the node -> landmarks dict the pins were taken over
        h.update(repr((list(world.edges), dict(enumerate(world.landmarks)), ep.goal,
                       ep.ground_truth_path, instr.tokens, instr.target_set)).encode())
        h.update(world.coords.tobytes())
        for node in range(world.n_nodes):
            h.update(world.candidate_views(node).tobytes())
        walk = []
        while not ep.done:
            n_moves = len(world.neighbors[ep.current])
            action = w.STOP_ACTION if rng.random() < 0.1 else int(rng.integers(1, n_moves + 1))
            teacher = w.teacher_action(ep)
            ep, reward = w.step(ep, action)
            walk.append((teacher, action, reward))
        h.update(repr((walk, bool(ep.success))).encode())
    return h.hexdigest()[:16]


BENCH_ITEM_DIGESTS = {
    ("SHORT_EVAL", 1): "e362149fb88b7ed7",
    ("SHORT_EVAL", 2): "980453acfaa0e990",
    ("SHORT_EVAL", 3): "913db0cc4481659d",
    ("LONG", 1): "f4e64d405c58a73a",
    ("LONG", 2): "ab7291ee728e8af6",
    ("LONG", 3): "f86d1ead367e686e",
}


@pytest.mark.parametrize("spec, seed", sorted(BENCH_ITEM_DIGESTS))
def test_bench_items_reproduce_pinned_digests(spec, seed):
    # pins the worlds' float facts too: a change to how distances are
    # computed must keep every route, teacher action, reward and success
    items = bench.make_items(getattr(bench, spec), seed)
    assert _bench_items_digest(items, seed) == BENCH_ITEM_DIGESTS[spec, seed]


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
    # a start-at-goal episode names only the goal's two landmarks, which
    # differ, so each target has the other as its substitute
    g, _ = setup
    ep = w.make_episode(g, 0, 0)
    instr = ins.generate_instruction(g, ep, seed=0)
    assert instr.n_targets == 2
    assert instr.valid.tolist() == [[False, True], [True, False]]


def test_instruction_refuses_tokens_or_targets_that_are_not_tuples(vocab):
    # a list field would leave the frozen instruction unhashable
    base = ins.make_instruction(toks(vocab, "walk past the table into the kitchen"), vocab)
    for tokens, targets in ((list(base.tokens), base.target_set),
                            (base.tokens, list(base.target_set)),
                            (np.array(base.tokens), base.target_set)):
        with pytest.raises(ValueError, match="tuples"):
            ins.Instruction(tokens=tokens, target_set=targets, valid=base.valid)
    assert hash(ins.Instruction(tokens=base.tokens, target_set=base.target_set,
                                valid=base.valid)) == hash(base)


def test_instruction_refuses_too_few_targets_or_a_misshapen_grid(vocab):
    # an empty grid row is refused too (test_non_attackable_instruction_rejected)
    base = ins.make_instruction(toks(vocab, "walk past the table into the kitchen"), vocab)
    for text in ("walk past the then go forward", "walk past the table"):
        with pytest.raises(ValueError, match="^[01] targets"):
            ins.make_instruction(toks(vocab, text), vocab)
    with pytest.raises(ValueError, match="^1 targets"):
        ins.Instruction(tokens=base.tokens, target_set=base.target_set[:1],
                        valid=np.ones((1, 1), dtype=bool))
    for valid in (np.ones((2, 3), dtype=bool), np.ones(2, dtype=bool), None):
        with pytest.raises(ValueError, match="L'×L' grid"):
            ins.Instruction(tokens=base.tokens, target_set=base.target_set, valid=valid)


def test_instruction_refuses_misplaced_targets_or_same_word_cells(vocab):
    base = ins.make_instruction(toks(vocab, "walk past the table into the kitchen"), vocab)
    first, second = base.target_set
    for targets in ((first, 99), (second, first), (first, first)):
        with pytest.raises(ValueError, match="do not increase"):
            ins.Instruction(tokens=base.tokens, target_set=targets, valid=base.valid)
    # (0, 1) would put "table" at a "table": no perturbation at all
    valid = ~np.eye(3, dtype=bool)
    with pytest.raises(ValueError, match="same word"):
        ins.Instruction(tokens=toks(vocab, "table table kitchen"), target_set=(0, 1, 2),
                        valid=valid)


def test_tokens_and_targets_must_be_non_negative_integers(vocab):
    # -1 would index the vocabulary's last word, and a float is no word id
    base = ins.make_instruction(toks(vocab, "walk past the table into the kitchen"), vocab)
    for tokens in ((-1,) + base.tokens, (len(vocab),) + base.tokens,
                   tuple(float(t) for t in base.tokens)):
        with pytest.raises(ValueError, match="token ids"):
            ins.make_instruction(tokens, vocab)
    first, second = base.target_set
    for tokens, targets in (((-1,) + base.tokens[1:], base.target_set),
                            (tuple(float(t) for t in base.tokens), base.target_set),
                            (base.tokens, (float(first), float(second))),
                            (base.tokens, (-1, second))):
        with pytest.raises(ValueError, match="non-negative integers"):
            ins.Instruction(tokens=tokens, target_set=targets, valid=base.valid)
    assert ins.make_instruction(tuple(np.int64(t) for t in base.tokens), vocab) == base


def test_directly_built_grid_is_a_read_only_copy(vocab):
    base = ins.make_instruction(toks(vocab, "walk past the table into the kitchen"), vocab)
    valid = base.valid.copy()
    instr = ins.Instruction(tokens=base.tokens, target_set=base.target_set, valid=valid)
    with pytest.raises(ValueError):
        instr.valid[0, 1] = False
    valid[0, 1] = False       # the caller's array stays writable and apart
    assert instr.valid.tolist() == [[False, True], [True, False]]


def test_corpus_is_pure_function_of_inputs(setup):
    g, ep = setup
    seqs = {ins.generate_instruction(g, ep, seed=s).tokens for s in range(4)}
    assert len(seqs) >= 2  # different seeds vary the templates
