import math
import os
import random
import subprocess
import sys
import unicodedata
from pathlib import Path

import pytest
import scipy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from newsreuse import swilk
from newsreuse.errors import DataError
from newsreuse.headlines import (
    FEATURE_NAMES,
    SHIFT_MIN_SAMPLES,
    TitleFeatures,
    anova_f,
    changed_fraction,
    extract_features,
    flesch_kincaid_grade,
    normality_test,
    rank_changers,
    significant_shifts,
    title_distance,
    title_features,
    write_shifts_csv,
    write_title_pairs_csv,
)
from newsreuse.similarity import tokenize

from helpers import make_pair
from oracles import dense_tfidf_matrix

LEXICONS = {
    "bias": frozenset({"corruption", "propaganda", "best"}),
    "positive": frozenset({"accomplished", "honest", "improved"}),
    "negative": frozenset({"lies", "disrespectful", "crying"}),
}
STOPWORDS = frozenset({"the", "a", "of", "for", "and", "to", "in"})


def _title_pairs(titles):
    """Build matched pairs carrying (original_title, copy_title) tuples."""
    pairs = []
    for i, (original, copy) in enumerate(titles):
        pairs.append(
            make_pair(
                "orig", "copier", earlier_id=f"o{i}", later_id=f"c{i}",
                earlier_title=original, later_title=copy,
            )
        )
    return title_distance(pairs)


def test_identical_titles_distance_zero():
    [tp] = _title_pairs([("Senate passes budget bill", "Senate passes budget bill")])
    assert tp.eligible
    assert tp.distance == 0.0
    assert not tp.changed(0.10)


def test_disjoint_titles_distance_one():
    [tp] = _title_pairs([("alpha beta gamma", "delta epsilon zeta")])
    assert tp.distance == 1.0
    assert tp.changed(0.10)


def test_known_rewritten_headline_detected_as_changed():
    [tp] = _title_pairs(
        [(
            "EPA Chief Scott Pruitt Calls for Exit of Paris Climate Agreement",
            "BREAKING Trumps EPA Chief Makes Dramatic Announcement Liberals Crying",
        )]
    )
    assert tp.distance > 0.10
    assert tp.changed(0.10)


def test_empty_title_ineligible():
    [tp] = _title_pairs([("", "Some headline")])
    assert not tp.eligible
    assert not tp.changed(0.10)


def test_distance_symmetric_and_bounded():
    forward = _title_pairs([("alpha beta shared", "shared gamma delta")])
    backward = _title_pairs([("shared gamma delta", "alpha beta shared")])
    assert forward[0].distance == backward[0].distance
    assert 0.0 <= forward[0].distance <= 1.0


_TITLES = st.lists(
    st.sampled_from(["senate", "budget", "vote", "storm", "city", "!!"]), max_size=5
).map(" ".join)


@given(st.lists(st.tuples(_TITLES, _TITLES), min_size=1, max_size=12))
@example(
    # Empty titles on either side, a title repeated across pairs, identical
    # earlier and later titles.
    [("", "senate vote"), ("senate vote", "budget vote"), ("!!", ""),
     ("storm city", "storm city"), ("budget vote", "senate vote"), ("city", "!!")]
)
@settings(max_examples=200, deadline=None)
def test_title_distance_fits_distinct_nonempty_titles_only(titles):
    tps = _title_pairs(titles)
    fitted = sorted({t for pair in titles for t in pair if tokenize(t)})
    matrix, _ = dense_tfidf_matrix([tokenize(t) for t in fitted])
    row = {t: i for i, t in enumerate(fitted)}
    for (original, copy), tp in zip(titles, tps):
        assert tp.eligible == (original in row and copy in row)
        if not tp.eligible:
            assert tp.distance == 0.0
            continue
        want = min(1.0, max(0.0, 1.0 - float(matrix[row[original]] @ matrix[row[copy]])))
        assert abs(tp.distance - want) <= 1e-12
    # An empty title is in no fitted row, so pairs of new empty titles
    # change no other pair's distance.
    more = _title_pairs(titles + [("?? --", ""), ("!!", "?? --")])
    assert [tp.distance for tp in more[: len(tps)]] == [tp.distance for tp in tps]


def test_changed_fraction_crafted_fixture():
    same = ("steady headline text", "steady headline text")
    diff = ("alpha beta gamma", "delta epsilon zeta")
    tps = _title_pairs([diff] * 7 + [same] * 5)
    assert changed_fraction(tps, 0.10) == 7 / 12


def test_changed_fraction_all_identical():
    tps = _title_pairs([("same title", "same title")] * 3)
    assert changed_fraction(tps, 0.10) == 0.0


def test_changed_fraction_no_eligible_errors():
    tps = _title_pairs([("", "")])
    with pytest.raises(DataError):
        changed_fraction(tps, 0.10)


def test_changed_fraction_monotone_in_threshold():
    rng = random.Random(2)
    words = ["w%d" % i for i in range(30)]
    titles = []
    for _ in range(40):
        original = " ".join(rng.sample(words, 6))
        kept = original.split()[: rng.randint(0, 6)]
        copy = " ".join(kept + rng.sample(words, 6 - len(kept))) or "x"
        titles.append((original, copy))
    tps = _title_pairs(titles)
    fractions = [
        changed_fraction(tps, threshold)
        for threshold in [0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    ]
    assert all(a >= b for a, b in zip(fractions, fractions[1:]))


def test_rank_changers():
    diff = [("one two three", "four five six")]
    pairs = []
    for i in range(5):
        pairs.append(make_pair("orig", "busy", earlier_id=f"bo{i}", later_id=f"bc{i}",
                               earlier_title=f"unique title {i} aa bb",
                               later_title=f"rewritten {i} cc dd ee"))
    for i in range(3):
        pairs.append(make_pair("orig", "quiet", earlier_id=f"qo{i}", later_id=f"qc{i}",
                               earlier_title=f"original {i} ff gg hh",
                               later_title=f"different {i} ii jj kk"))
    # one source with a single total rewrite, another with many mild edits
    pairs.append(make_pair("orig", "total", earlier_id="to", later_id="tc",
                           earlier_title="aaa bbb ccc ddd",
                           later_title="eee fff ggg hhh"))
    tps = title_distance(pairs)
    most, magnitude = rank_changers(tps, 0.10)
    assert most[0][0] == "busy"
    assert most[0][1] == 5
    assert dict(most)["quiet"] == 3
    assert magnitude[0][0] == "total"
    assert magnitude[0][1] == pytest.approx(1.0)


def test_extract_features_lexicon_hits():
    feats = extract_features("Senator lies about corruption", LEXICONS, STOPWORDS)
    assert feats.neg_opinion_frac > 0
    assert feats.bias_frac > 0
    assert feats.pos_opinion_frac == 0.0
    assert feats.token_count == 4


def test_extract_features_fractions_and_counts():
    feats = extract_features('The "best" plan, honest!', LEXICONS, STOPWORDS)
    assert feats.quote_count == 2.0
    # two quotes, comma, exclamation mark
    assert feats.punctuation_count == 4.0
    assert 0.0 <= feats.stopword_frac <= 1.0
    assert feats.stopword_frac == 1 / 4
    assert feats.bias_frac == 1 / 4
    assert feats.pos_opinion_frac == 1 / 4


def test_extract_features_empty_title():
    feats = extract_features("", LEXICONS, STOPWORDS)
    assert feats == TitleFeatures(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0)


def test_ascii_punctuation_count_equals_category_count():
    # Each ASCII character once in an ASCII title and once in a non-ASCII one.
    for ch in map(chr, range(128)):
        for title in (f"x{ch}", f"x{ch}\u00e9"):
            expected = sum(unicodedata.category(c).startswith("P") for c in title)
            features = extract_features(title, LEXICONS, STOPWORDS)
            assert features.punctuation_count == expected, repr(title)


def test_extract_features_pure():
    title = "The honest senator exposed corruption lies"
    assert extract_features(title, LEXICONS, STOPWORDS) == extract_features(
        title, LEXICONS, STOPWORDS
    )


def test_flesch_kincaid_on_tokens():
    # 4 words, one syllable each: 0.39*4 + 11.8*1 - 15.59
    assert flesch_kincaid_grade(["cat", "dog", "sun", "hat"]) == pytest.approx(
        0.39 * 4 + 11.8 - 15.59
    )
    assert flesch_kincaid_grade([]) == 0.0


def test_normality_constant_fails():
    assert normality_test([3.0] * 10) is False


def test_normality_requires_three_samples():
    with pytest.raises(ValueError):
        normality_test([1.0, 2.0])


def test_normality_gaussian_fixture_passes():
    rng = random.Random(7)  # seed pre-checked against scipy.stats.shapiro
    samples = [rng.gauss(0.0, 1.0) for _ in range(50)]
    assert normality_test(samples) is True


def test_normality_bimodal_fails():
    assert normality_test([0.0] * 20 + [10.0] * 20) is False


@st.composite
def _shapiro_samples(draw):
    """Samples of 3-400 values: continuous, tied, or constant but one."""
    n = draw(st.integers(3, 400))
    kind = draw(st.sampled_from(["gauss", "exponential", "ties", "ratios", "one_off"]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if kind == "gauss":
        values = [rng.gauss(0.0, 1.0) for _ in range(n)]
    elif kind == "exponential":
        values = [rng.expovariate(1.0) for _ in range(n)]
    elif kind == "ties":
        values = [float(rng.randint(0, 3)) for _ in range(n)]
    elif kind == "ratios":
        values = [rng.randint(1, 5) / rng.randint(1, 5) for _ in range(n)]
    else:
        values = [0.0] * n
        values[rng.randrange(n)] = 1.0
    scale = 10.0 ** draw(st.integers(-6, 6))
    offset = draw(st.sampled_from([0.0, 1.0, -1e3, 1e6])) * scale
    return [offset + v * scale for v in values]


@pytest.mark.skipif(
    tuple(int(part) for part in scipy.__version__.split(".")[:2]) < (1, 17),
    reason="compares W and p with the installed scipy.stats.shapiro, "
    "which swilk.py was checked against on scipy 1.17.1 only",
)
@given(samples=_shapiro_samples())
@settings(max_examples=300, deadline=None)
def test_shapiro_matches_scipy(samples):
    assume(max(samples) != min(samples))
    w, p = swilk.shapiro(samples)
    ref_w, ref_p = scipy_stats.shapiro(samples)
    assert abs(w - ref_w) <= 1e-12
    assert abs(p - ref_p) <= 1e-10
    if abs(ref_p - 0.05) >= 1e-10:
        assert normality_test(samples) == (ref_p > 0.05)


# (sample, W, p) from scipy.stats.shapiro 1.17.1.
_SHAPIRO_LITERALS = [
    ([2.0, 7.5, 3.25], 0.9097744360902253, 0.41732765990798726),
    ([0.0, 0.0, 0.0, 1.0], 0.629776264554299, 0.0012407259151036264),
    ([1.0, 2.0, 2.0, 3.0, 8.0], 0.7775850442577392, 0.052542584921361275),
    ([0.5, 1.5, 1.5, 2.0, 2.5, 3.5], 0.975244784642012, 0.9256279848137756),
    ([0.0] * 6 + [1.0], 0.4529709881264229, 4.1356120884447944e-06),
    ([3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0], 0.92772417971473, 0.4955969128634897),
    ([10.0, 12.0, 11.0, 15.0, 9.0, 13.0, 12.0, 30.0, 11.0],
     0.6466671876487076, 0.0003373585445654763),
    ([0.1, 0.2, 0.2, 0.3, 0.3, 0.3, 0.4, 0.4, 0.5, 0.6],
     0.9662390622608711, 0.8539548329946732),
    ([0.0] * 10 + [1.0], 0.34499120525171123, 2.2434019096637374e-08),
    ([float((i * 37) % 101) for i in range(12)], 0.9512575641909096, 0.6554376887416837),
    ([float((i * i) % 23) for i in range(50)], 0.9192182198191728, 0.002209656019016659),
    ([float((i * 37) % 101) for i in range(120)],
     0.9546624289200645, 0.00048284676775072426),
    ([0.0, 1e-20, 5e-20, 0.0], 1.0, 1.0),
]


@pytest.mark.parametrize(
    "samples, w, p", _SHAPIRO_LITERALS, ids=[f"n{len(s)}" for s, _, _ in _SHAPIRO_LITERALS]
)
def test_shapiro_pinned_values(samples, w, p):
    got_w, got_p = swilk.shapiro(samples)
    assert got_w == pytest.approx(w, rel=1e-14, abs=1e-16)
    assert got_p == pytest.approx(p, rel=1e-12, abs=1e-16)


@pytest.mark.parametrize("n", range(4, 12))
def test_shapiro_small_sample_cutoff_is_out_of_reach(n):
    # W >= n a1^2 / (n - 1), reached by a sample that is constant but one, so
    # log(1 - W) stays below gamma(n) and the p = 1e-19 cutoff never applies.
    w, p = swilk.shapiro([0.0] * (n - 1) + [1.0])
    a1 = swilk._coefficients_for(n)[0]
    assert w == pytest.approx(n * a1 * a1 / (n - 1), rel=1e-12)
    assert math.log(1.0 - w) < -2.273 + 0.459 * n
    assert p > 1e-19


def test_shapiro_three_samples_w_is_at_least_three_quarters():
    # Rounding can put the computed W a hair under 3/4, its exact minimum.
    assert swilk.shapiro([1.0, 1.0 + 2.0**-52, 1.0]) == (0.75, 0.0)


def test_shapiro_requires_three_samples():
    with pytest.raises(ValueError):
        swilk.shapiro([1.0, 2.0])


def test_anova_identical_groups():
    f_stat, p = anova_f([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert f_stat == 0.0
    assert p == 1.0


def test_anova_degenerate_zero_variance():
    with pytest.raises(ValueError, match="zero within-group variance"):
        anova_f([0.0, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0])


def test_scipy_special_loads_with_the_first_anova_only():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, newsreuse.headlines as h; "
         "print('scipy.special' in sys.modules); "
         "h.anova_f([1.0, 2.0], [3.0, 5.0]); "
         "print('scipy.special' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert result.stdout.split() == ["False", "True"]


def test_anova_two_group_example():
    # MS_between = 8, MS_within = 5/3: F = 4.8 (checked against f_oneway).
    f_stat, p = anova_f([1.0, 2.0, 3.0, 4.0], [3.0, 4.0, 5.0, 6.0])
    assert f_stat == pytest.approx(4.8, abs=1e-12)
    ref_f, ref_p = scipy_stats.f_oneway([1, 2, 3, 4], [3, 4, 5, 6])
    assert f_stat == pytest.approx(ref_f, abs=1e-12)
    assert p == pytest.approx(ref_p, abs=1e-12)


def test_anova_matches_reference_on_random_groups():
    rng = random.Random(29)
    for _ in range(40):
        a = [rng.gauss(rng.uniform(-2, 2), 1.0) for _ in range(rng.randint(3, 30))]
        b = [rng.gauss(rng.uniform(-2, 2), 1.0) for _ in range(rng.randint(3, 30))]
        f_stat, p = anova_f(a, b)
        ref_f, ref_p = scipy_stats.f_oneway(a, b)
        assert abs(f_stat - ref_f) < 1e-9
        assert abs(p - ref_p) < 1e-9
        assert p == scipy_stats.f.sf(f_stat, 1, len(a) + len(b) - 2)


@given(
    shift=st.floats(-50, 50, allow_nan=False),
    scale=st.floats(0.1, 20, allow_nan=False),
)
@settings(max_examples=60, deadline=None)
def test_anova_invariances(shift, scale):
    a = [1.0, 2.5, 3.0, 4.5, 5.0]
    b = [2.0, 3.5, 4.0, 6.0, 7.5]
    f0, p0 = anova_f(a, b)
    f1, p1 = anova_f([x + shift for x in a], [x + shift for x in b])
    assert f1 == pytest.approx(f0, rel=1e-9, abs=1e-9)
    assert p1 == pytest.approx(p0, rel=1e-9, abs=1e-9)
    f2, _ = anova_f([x * scale for x in a], [x * scale for x in b])
    assert f2 == pytest.approx(f0, rel=1e-9)


# Bias-word counts shaped roughly normal; shapiro p = 0.897 on the fractions.
_BIAS_COUNTS = [2, 3, 3, 4, 4, 4, 5, 5, 5, 6, 6, 7]


def _shift_fixture(copier="spinner", filler_word="tok"):
    """`copier`'s copies add two bias words to each 20-token original title
    of `wire`; numbered `filler_word`s pad the titles."""
    filler = [f"{filler_word}{i}" for i in range(40)]
    pairs = []
    for i, count in enumerate(_BIAS_COUNTS):
        original_words = ["corruption"] * count + filler[: 20 - count]
        copy_words = ["corruption"] * (count + 2) + filler[: 18 - count]
        pairs.append(
            make_pair(
                "wire", copier, earlier_id=f"{copier}-o{i}", later_id=f"{copier}-c{i}",
                earlier_title=" ".join(original_words),
                later_title=" ".join(copy_words),
            )
        )
    return title_distance(pairs)


def test_significant_shifts_detects_bias_increase():
    tps = _shift_fixture()
    shifts = significant_shifts(tps, title_features(tps, LEXICONS, STOPWORDS))
    by_feature = {s.feature: s for s in shifts}
    assert "bias_frac" in by_feature
    shift = by_feature["bias_frac"]
    assert shift.direction == "increase"
    assert shift.p_value < 0.05
    assert shift.n_own == 12
    assert shift.n_copied == 12
    for s in shifts:
        assert s.p_value < 0.05
        assert min(s.n_own, s.n_copied) > 8
        assert s.feature in FEATURE_NAMES


def test_significant_shifts_requires_enough_pairs():
    tps = _shift_fixture()[:5]
    assert significant_shifts(tps, title_features(tps, LEXICONS, STOPWORDS)) == []


def test_significant_shifts_ignores_other_sources():
    """Only copiers are tested: the originals' source gets no shift."""
    tps = _shift_fixture()
    shifts = significant_shifts(tps, title_features(tps, LEXICONS, STOPWORDS))
    assert shifts
    assert {s.source for s in shifts} == {"spinner"}


def test_significant_shifts_groups_by_copier(monkeypatch):
    """Each copier's shifts are those of its pairs alone, in source order;
    a copier with SHIFT_MIN_SAMPLES pairs or fewer adds none; and
    `title_features` extracts only the titles of the pairs it is given."""
    from newsreuse import headlines

    spinner, amplifier = _shift_fixture(), _shift_fixture("amplifier", "pad")
    few = _shift_fixture("few", "short")[:SHIFT_MIN_SAMPLES]
    # Out of source order, with one copier's pairs split.
    tps = spinner[:6] + amplifier + few + spinner[6:]
    calls = []

    def counting(title, lexicons, stopwords):
        calls.append(title)
        return extract_features(title, lexicons, stopwords)

    monkeypatch.setattr(headlines, "extract_features", counting)
    features = title_features(amplifier, LEXICONS, STOPWORDS)
    assert sorted(calls) == sorted(
        {title for tp in amplifier for title in (tp.pair.earlier.title, tp.pair.later.title)}
    )
    assert set(features) == set(calls)

    alone = {
        name: significant_shifts(group, title_features(group, LEXICONS, STOPWORDS))
        for name, group in (("amplifier", amplifier), ("spinner", spinner), ("few", few))
    }
    assert alone["amplifier"] and alone["spinner"] and alone["few"] == []
    shifts = significant_shifts(tps, title_features(tps, LEXICONS, STOPWORDS))
    assert shifts == alone["amplifier"] + alone["spinner"]


def test_title_features_extracts_each_distinct_title_once(monkeypatch):
    from newsreuse import headlines

    tps = title_distance(
        [
            make_pair("wire", f"copier{i}", earlier_id="o", later_id=f"c{i}",
                      earlier_title="Senator lies", later_title=later)
            for i, later in enumerate(["Senator lies", "Best plan", "Best plan", ""])
        ]
    )
    calls = []

    def counting(title, lexicons, stopwords):
        calls.append(title)
        return extract_features(title, lexicons, stopwords)

    monkeypatch.setattr(headlines, "extract_features", counting)
    features = title_features([tp for tp in tps if tp.eligible], LEXICONS, STOPWORDS)
    # The pair with an empty copy title is ineligible, so "" is not extracted.
    assert sorted(calls) == ["Best plan", "Senator lies"]
    assert features == {t: extract_features(t, LEXICONS, STOPWORDS) for t in calls}


def test_csv_writers(tmp_path):
    tps = _shift_fixture()
    title_path = tmp_path / "title_pairs.csv"
    write_title_pairs_csv(tps, title_path, 0.10)
    header = title_path.read_text(encoding="utf-8").splitlines()[0]
    assert header == "earlier_id,later_id,distance,changed"
    shifts = significant_shifts(tps, title_features(tps, LEXICONS, STOPWORDS))
    shift_path = tmp_path / "shifts.csv"
    write_shifts_csv(shifts, shift_path)
    lines = shift_path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "source,feature,direction,F,p,n_own,n_copied"
    assert len(lines) == len(shifts) + 1
