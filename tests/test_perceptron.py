"""Averaged perceptron: hand-traced averaging, tie rule, closed-form averages,
and the packed rows that training scores on."""

import random
from fractions import Fraction

import pytest
from oracles import SnapshotPerceptron

from udbridge.errors import DataError
from udbridge.perceptron import AveragedPerceptron, predict_with, score_with

A, B = 0, 1  # the indices of "A" and "B" in AveragedPerceptron(["A", "B"])


def test_three_updates_average_is_mean_of_snapshots():
    p = AveragedPerceptron(["A", "B"])
    for _ in range(3):
        p.update(A, B, ["f"])
    # post-update weights for (f, A) were 1, 2, 3
    assert p.weights["f"][A] == 3.0
    assert p.averaged()["f"]["A"] == pytest.approx(2.0)
    assert p.averaged()["f"]["B"] == pytest.approx(-2.0)


def test_correct_guesses_still_advance_the_clock():
    p = AveragedPerceptron(["A", "B"])
    p.update(A, B, ["f"])  # w -> 1
    p.update(A, A, ["f"])  # correct, no change, snapshot stays 1
    p.update(A, B, ["f"])  # w -> 2
    # snapshots 1, 1, 2
    assert p.averaged()["f"]["A"] == pytest.approx(4 / 3)


def test_averaged_is_nondestructive_and_training_continues():
    p = AveragedPerceptron(["A", "B"])
    p.update(A, B, ["f"])
    first = p.averaged()
    assert p.averaged() == first
    p.update(A, B, ["f"])
    assert p.weights["f"][A] == 2.0
    assert p.averaged()["f"]["A"] == pytest.approx(1.5)


def test_cancelled_weights_are_dropped_from_average():
    p = AveragedPerceptron(["A", "B"])
    p.update(A, B, ["f", "g"])
    p.update(B, A, ["f"])  # f weights return to zero
    avg = p.averaged()
    assert avg["f"]["A"] == pytest.approx(0.5)  # snapshots 1, 0
    assert avg["g"]["A"] == pytest.approx(1.0)  # untouched since tick 1


def test_prediction_tie_goes_to_smallest_class():
    p = AveragedPerceptron(["a", "b", "c"])
    p.weights = {"f": {1: 2, 0: 2, 2: 1}}
    assert p.predict(["f"], [0, 1, 2]) == 0
    assert p.predict(["unseen"], [0, 1, 2]) == 0
    assert predict_with({"f": {"b": 1.0, "a": 1.0, "c": 0.5}}, ["f"], ["a", "b", "c"]) == "a"


def test_higher_score_beats_tie_rule():
    p = AveragedPerceptron(["a", "b"])
    p.weights = {"f": {1: 2.0, 0: 1.0}}
    assert p.predict(["f"], [0, 1]) == 1
    assert predict_with({"f": {"b": 2.0, "a": 1.0}}, ["f", "f2"], ["a", "b"]) == "b"


def test_untrained_averaged_returns_current_weights():
    p = AveragedPerceptron(["a"])
    p.weights = {"f": {0: 2.0}}
    assert p.averaged() == {"f": {"a": 2.0}}


def test_score_sums_over_features():
    weights = {"f1": {"a": 1.0}, "f2": {"a": 0.5, "b": 3.0}}
    scores = score_with(weights, ["f1", "f2", "missing"])
    assert scores == {"a": 1.5, "b": 3.0}


def test_index_gives_new_classes_the_next_index():
    p = AveragedPerceptron(["a", "b"])
    assert [p.index("b"), p.index("a")] == [1, 0]
    assert p.index("right:root") == 2
    assert p.index("right:root") == 2
    assert p.classes == ["a", "b", "right:root"]


def test_weights_for_a_new_class_stay_in_the_average():
    classes = ["a", "b"]
    p = AveragedPerceptron(classes)
    p.update(p.index("right:root"), 0, ["f"])
    assert p.averaged() == {"f": {"right:root": 1.0, "a": -1.0}}
    assert classes == ["a", "b"]  # the caller's list is not extended


def test_random_updates_match_the_snapshot_reference():
    """Random update sequences (ties, classes outside the initial list,
    repeated features, correct guesses): averaged() equals a perceptron
    that sums every snapshot, and predict() agrees with predict_with on
    the live weights. The last case is one long run of 3,000 updates that
    also adds a class through index() every 400 updates."""
    rng = random.Random(1302)
    for case in range(61):
        long_run = case == 60
        classes = sorted(f"c{i}" for i in rng.sample(range(20), rng.randint(1, 6)))
        extra = [f"new{i}" for i in range(rng.randint(0, 2))]
        p = AveragedPerceptron(classes)
        ref = SnapshotPerceptron()
        assert p.averaged() == ref.averaged() == {}
        feature_pool = [f"f{i}" for i in range(rng.randint(1, 8))]
        steps = 3000 if long_run else rng.randint(1, 80)
        for step in range(1, steps + 1):
            if long_run and step % 400 == 0:
                extra.append(f"grown{step}")
                p.index(extra[-1])
            feats = [rng.choice(feature_pool) for _ in range(rng.randint(0, 6))]
            known = p.classes[:]  # the classes that have an index so far
            cands = sorted(rng.sample(range(len(known)), rng.randint(1, len(known))))
            guess = p.predict(feats, cands)
            assert known[guess] == predict_with(ref.weights, feats, [known[i] for i in cands])
            truth = rng.choice(classes + extra)
            if rng.random() < 0.3:
                guess = rng.randrange(len(known))
            p.update(p.index(truth), guess, feats)
            ref.update(truth, known[guess], feats)
            if not long_run or step % 250 == 0:
                assert p.averaged() == ref.averaged()
    assert len(p.classes) >= len(classes) + 7


def test_averaged_is_exact_past_float_precision():
    """Weight x tick products past 2**53, where float totals would round:
    averaged() is the exact mean of the snapshots, rounded once."""
    rng = random.Random(1905)
    classes = ["A", "B", "C"]
    p = AveragedPerceptron(classes)
    # updates with long runs of correct guesses (ticks) in between
    events = []  # (tick, feature, class index, delta)
    for _ in range(300):
        feats = rng.sample(["f", "g", "h", "k"], rng.randint(1, 4))
        truth, guess = rng.randrange(3), rng.randrange(3)
        p.update(truth, guess, feats)
        if truth != guess:
            for feat in feats:
                events += [(p.ticks, feat, truth, 1), (p.ticks, feat, guess, -1)]
        p.ticks += rng.choice([0, 1, 7, 2**51 + 3])
    ticks = p.ticks
    sums: dict[tuple[str, int], int] = {}
    for tick, feat, cls, delta in events:
        # a delta made at `tick` is in force for snapshots tick..ticks
        sums[feat, cls] = sums.get((feat, cls), 0) + delta * (ticks - tick + 1)
    want: dict[str, dict[str, float]] = {}
    for (feat, cls), total in sums.items():
        if total:
            want.setdefault(feat, {})[classes[cls]] = float(Fraction(total, ticks))
    assert any(float(total) != total for total in sums.values())
    assert p.averaged() == want


# ------------------------------------------------------------ packed rows

BOUND = 2**63 - 1  # the largest score a 64-bit lane holds in either sign


def test_lane_sums_at_the_bound_keep_their_order():
    half = 2**62
    p = AveragedPerceptron(["a", "b", "c", "d"])
    # class scores: a 2**63 - 1, b -(2**63 - 1), c 2**63 - 2, d 2**63 - 1
    p.weights = {
        "f": {0: half, 1: -half, 2: half - 1, 3: half},
        "g": {0: half - 1, 1: -(half - 1), 2: half - 1, 3: half - 1},
    }
    feats = ["f", "g"]
    assert p.predict(feats, [0, 1, 2, 3]) == 0  # a tie with d at the bound
    assert p.predict(feats, [1, 2, 3]) == 3
    assert p.predict(feats, [1, 2]) == 2
    p.weights = {feat: {i: -w for i, w in row.items()} for feat, row in p.weights.items()}
    assert p.predict(feats, [0, 1, 2, 3]) == 1
    assert p.predict(feats, [0, 2, 3]) == 2
    assert p.predict(feats, [0, 3]) == 0
    p.weights = {"f": {0: BOUND, 1: -BOUND, 2: BOUND, 3: -BOUND}}
    assert p.predict(["f"], [1, 2, 3]) == 2
    assert p.predict(["f"], [1, 3]) == 1


def test_negative_only_and_all_zero_rows():
    p = AveragedPerceptron(["a", "b", "c"])
    table = {"neg": {0: -3, 1: -1, 2: -2}, "zero": {0: 0, 1: 0, 2: 0}}
    p.weights = table
    named = {feat: {p.classes[i]: float(w) for i, w in row.items()} for feat, row in table.items()}
    for feats in (["neg"], ["neg", "neg"], ["zero"], ["zero", "neg"], ["zero", "unseen"]):
        for cands in ([0, 1, 2], [0, 2], [1, 2]):
            want = predict_with(named, feats, [p.classes[i] for i in cands])
            assert p.classes[p.predict(feats, cands)] == want
    assert p.predict(["neg"], [0, 1, 2]) == 1
    assert p.predict(["zero"], [1, 2]) == 1
    q = AveragedPerceptron(["a", "b"])
    q.update(A, B, ["f"])
    q.update(B, A, ["f"])  # the row cancels to zero
    assert q.weights == {"f": {A: 0, B: 0}}
    assert q.predict(["f"], [0, 1]) == 0


def test_a_class_added_after_packing_goes_on_to_win():
    p = AveragedPerceptron(["a", "b"])
    p.update(A, B, ["f"])
    c = p.index("c")
    assert c == 2
    assert p.predict(["f"], [0, 1, 2]) == 0
    p.update(c, A, ["f"])
    p.update(c, A, ["f"])
    assert p.weights == {"f": {A: -1, B: -1, c: 2}}
    assert p.predict(["f"], [0, 1, 2]) == c
    assert p.predict(["f", "unseen"], [1, 2]) == c


@pytest.mark.parametrize("weight", [0.5, "1", True, 2**63, float("inf")])
def test_weights_setter_refuses_non_integers(weight):
    p = AveragedPerceptron(["a", "b"])
    with pytest.raises(DataError):
        p.weights = {"f": {0: weight}}


def test_weights_setter_refuses_class_indices_out_of_range():
    p = AveragedPerceptron(["a", "b"])
    for index in (2, -1, "a"):
        with pytest.raises(DataError):
            p.weights = {"f": {index: 1}}


def test_weights_read_back_what_update_made():
    """The decoded rows equal the snapshot reference's live weights, with
    the same keys in the same order, also for negative and zero weights."""
    rng = random.Random(2301)
    classes = ["a", "b", "c", "d"]
    p = AveragedPerceptron(classes)
    ref = SnapshotPerceptron()
    steps = [
        (rng.randrange(4), rng.randrange(4), [rng.choice("fghk") for _ in range(rng.randint(0, 4))])
        for _ in range(400)
    ]
    steps += [(0, 3, ["z"]), (3, 0, ["z"])]  # "z" cancels to zero
    for truth, guess, feats in steps:
        p.update(truth, guess, feats)
        ref.update(classes[truth], classes[guess], feats)
    got = {feat: [(classes[i], w) for i, w in row.items()] for feat, row in p.weights.items()}
    assert got == {feat: list(row.items()) for feat, row in ref.weights.items()}
    assert p.weights["z"] == {0: 0, 3: 0}
    assert min(min(row.values()) for row in p.weights.values()) < 0


def test_prefix_and_other_candidates_take_the_reference_argmax():
    """predict reads a prefix of the classes (every class, or all but the
    last, as the parser's arc moves) as one list of lanes, and any other
    candidates lane by lane; both give predict_with's class, the earliest
    on ties."""
    rng = random.Random(29)
    for _ in range(300):
        n = rng.randint(1, 7)
        p = AveragedPerceptron([f"c{i}" for i in range(n)])
        # few values, most of them negative or zero, so ties are common
        table = {
            f"f{k}": {i: rng.choice((-3, -2, -1, 0, 1))
                      for i in rng.sample(range(n), rng.randint(1, n))}
            for k in range(5)
        }
        p.weights = table
        named = {feat: {p.classes[i]: float(w) for i, w in row.items()}
                 for feat, row in table.items()}
        for _ in range(10):
            feats = [f"f{rng.randrange(6)}" for _ in range(rng.randint(0, 6))]  # f5 has no row
            every = list(range(n))
            subsets = [every, every[:-1], every[1:], [rng.randrange(n)],
                       sorted(rng.sample(every, rng.randint(1, n)))]
            for cands in filter(None, subsets):
                want = predict_with(named, feats, [p.classes[i] for i in cands])
                assert p.classes[p.predict(feats, cands)] == want, (table, feats, cands)
