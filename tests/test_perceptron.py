"""Averaged perceptron: hand-traced averaging, tie rule, closed-form averages,
and the packed rows that training scores on."""

import random
from fractions import Fraction

import pytest
from oracles import SnapshotPerceptron, live_weights, set_weights

from udbridge.perceptron import AveragedPerceptron, predict_with, score_with

A, B = 0, 1  # the indices of "A" and "B" in AveragedPerceptron(["A", "B"])


def test_three_updates_average_is_mean_of_snapshots():
    p = AveragedPerceptron(["A", "B"])
    for _ in range(3):
        p.update(A, B, ["f"])
    # post-update weights for (f, A) were 1, 2, 3
    assert live_weights(p)["f"][A] == 3
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
    assert live_weights(p)["f"][A] == 2
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
    set_weights(p, {"f": {1: 2, 0: 2, 2: 1}})
    assert p.predict(["f"], 3) == 0
    assert p.predict(["unseen"], 3) == 0
    assert predict_with({"f": {"b": 1.0, "a": 1.0, "c": 0.5}}, ["f"], ["a", "b", "c"]) == "a"


def test_higher_score_beats_tie_rule():
    p = AveragedPerceptron(["a", "b"])
    set_weights(p, {"f": {1: 2, 0: 1}})
    assert p.predict(["f"], 2) == 1
    assert predict_with({"f": {"b": 2.0, "a": 1.0}}, ["f", "f2"], ["a", "b"]) == "b"


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
            k = rng.randint(1, len(known))
            guess = p.predict(feats, k)
            assert known[guess] == predict_with(ref.weights, feats, known[:k])
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


def _best(order: str, table: dict[str, dict[str, int]], feats: list[str], k: int) -> str:
    """The class predict() picks from the first k of `order`, with the
    weights of `table`, feature -> {class: weight}."""
    p = AveragedPerceptron(list(order))
    set_weights(p, {feat: {order.index(c): w for c, w in row.items()}
                    for feat, row in table.items()})
    return order[p.predict(feats, k)]


def test_lane_sums_at_the_bound_keep_their_order():
    """Scores at the lane bounds, with the candidates as a prefix of
    classes put in the order that makes them one."""
    half = 2**62
    # class scores: a 2**63 - 1, b -(2**63 - 1), c 2**63 - 2, d 2**63 - 1
    table = {
        "f": {"a": half, "b": -half, "c": half - 1, "d": half},
        "g": {"a": half - 1, "b": -(half - 1), "c": half - 1, "d": half - 1},
    }
    feats = ["f", "g"]
    assert _best("abcd", table, feats, 4) == "a"  # a tie with d at the bound
    assert _best("bcda", table, feats, 3) == "d"
    assert _best("bcda", table, feats, 2) == "c"
    table = {feat: {c: -w for c, w in row.items()} for feat, row in table.items()}
    assert _best("abcd", table, feats, 4) == "b"
    assert _best("acdb", table, feats, 3) == "c"
    assert _best("adbc", table, feats, 2) == "a"
    table = {"f": {"a": BOUND, "b": -BOUND, "c": BOUND, "d": -BOUND}}
    assert _best("bcda", table, ["f"], 3) == "c"
    assert _best("bdac", table, ["f"], 2) == "b"


def test_negative_only_and_all_zero_rows():
    table = {"neg": {"a": -3, "b": -1, "c": -2}, "zero": {"a": 0, "b": 0, "c": 0}}
    for feats in (["neg"], ["neg", "neg"], ["zero"], ["zero", "neg"], ["zero", "unseen"]):
        for order in ("abc", "acb", "bca"):
            for k in (1, 2, 3):
                want = predict_with(table, feats, list(order[:k]))
                assert _best(order, table, feats, k) == want
    assert _best("abc", table, ["neg"], 3) == "b"
    assert _best("bca", table, ["zero"], 2) == "b"
    q = AveragedPerceptron(["a", "b"])
    q.update(A, B, ["f"])
    q.update(B, A, ["f"])  # the row cancels to zero
    assert live_weights(q) == {"f": {A: 0, B: 0}}
    assert q.predict(["f"], 2) == 0


def test_a_class_added_after_packing_goes_on_to_win():
    p = AveragedPerceptron(["a", "b"])
    p.update(A, B, ["f"])
    c = p.index("c")
    assert c == 2
    assert p.predict(["f"], 3) == 0
    p.update(c, A, ["f"])
    p.update(c, A, ["f"])
    assert live_weights(p) == {"f": {A: -1, B: -1, c: 2}}
    assert p.predict(["f"], 3) == c
    assert p.predict(["f", "unseen"], 3) == c
    assert p.predict(["f"], 2) == A  # the tie of a and b, without c


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
    weights = live_weights(p)
    got = {feat: [(classes[i], w) for i, w in row.items()] for feat, row in weights.items()}
    assert got == {feat: list(row.items()) for feat, row in ref.weights.items()}
    assert weights["z"] == {0: 0, 3: 0}
    assert min(min(row.values()) for row in weights.values()) < 0


def test_prefix_and_other_candidates_take_the_reference_argmax():
    """predict reads a prefix of the classes (every class, or all but the
    last, as the parser's arc moves) as one list of lanes, and gives
    predict_with's class, the earliest on ties."""
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
        set_weights(p, table)
        named = {feat: {p.classes[i]: float(w) for i, w in row.items()}
                 for feat, row in table.items()}
        for _ in range(10):
            feats = [f"f{rng.randrange(6)}" for _ in range(rng.randint(0, 6))]  # f5 has no row
            for k in filter(None, (n, n - 1)):
                want = predict_with(named, feats, p.classes[:k])
                assert p.classes[p.predict(feats, k)] == want, (table, feats, k)
