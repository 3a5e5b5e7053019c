import math
import re
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wbcrescue.core import (
    ClassCounts,
    DecisionTrace,
    LabelSet,
    Phase,
    RescueConfig,
    ValidationError,
    default_label_set,
)
from wbcrescue.ingest import CellSample, ProbTable, SampleNotFoundError
from wbcrescue.morphology import (
    GaussianGate,
    fit_gaussian_gate,
    kmeans2_luminance,
    morph_vector,
    spikiness,
    trace_contour,
)
from wbcrescue.rescue import (
    PHASES,
    BoostFactors,
    Decisions,
    compute_boost_factors,
    parallel_map,
    phase1_candidate,
    phase3_filter,
    rescue_batch,
    write_predictions_csv,
    write_trace_csv,
)

from reference import csv_module_write
from synth import disc_mask, eccentric_cell, gray_sample, star_mask

LABELS = default_label_set()
SNE, LY, PLY, PC = (LABELS.index_of(name) for name in ("SNE", "LY", "PLY", "PC"))
K = len(LABELS)


def _counts(**overrides):
    values = {name: 1000 for name in LABELS}
    values.update({"SNE": 17354, "PLY": 14, "PC": 90})
    values.update(overrides)
    return ClassCounts(tuple(values[name] for name in LABELS))


def _probs(pattern):
    row = np.full(K, 0.0)
    for index, mass in pattern.items():
        row[index] = mass
    leftover = (1.0 - row.sum()) / (K - len(pattern))
    for index in range(K):
        if index not in pattern:
            row[index] = leftover
    return row


def _gate():
    rng = np.random.default_rng(12)
    population = np.array([0.45, 0.55, 0.3]) + rng.normal(0, 0.05, size=(40, 3))
    return fit_gaussian_gate(population)


@pytest.fixture(scope="module")
def gate():
    return _gate()


def _spiky_sample(image_id="spiky"):
    mask = star_mask(32, 8, 8.0, 5.5)
    gray = np.full((32, 32), 230, dtype=np.uint8)
    gray[disc_mask(32, 5.0)] = 60
    return gray_sample(gray, mask, image_id)


def _round_sample(image_id="round"):
    return eccentric_cell(nucleus_shift=0.0, image_id=image_id)


# --------------------------------------------------------------- boosts


def test_boost_factors_from_census():
    boosts = compute_boost_factors(LABELS, _counts(), RescueConfig())
    assert boosts.factors[PLY] == pytest.approx(math.log(1 + 17354 / 14), abs=1e-12)
    assert boosts.factors[PC] == pytest.approx(math.log(1 + 17354 / 90), abs=1e-12)
    assert boosts.factors[PLY] == pytest.approx(7.124, abs=2e-3)
    assert boosts.factors[LY] == 1.0


def test_uniform_counts_clamp_to_one():
    counts = ClassCounts(tuple([100] * K))
    boosts = compute_boost_factors(LABELS, counts, RescueConfig())
    assert boosts.factors[PLY] == 1.0
    assert boosts.factors[PC] == 1.0


def test_boost_cap_applies():
    boosts = compute_boost_factors(LABELS, _counts(PLY=1, SNE=10**6), RescueConfig())
    assert boosts.factors[PLY] == 10.0


def test_a_ratio_past_float_range_boosts_to_the_cap():
    # 10**400 / 14 has no float: the factor is the formula's limit, the cap.
    boosts = compute_boost_factors(LABELS, _counts(SNE=10**400), RescueConfig(boost_cap=50.0))
    assert boosts.factors[PLY] == boosts.factors[PC] == 50.0
    # A ratio just inside float range keeps its bits.
    boosts = compute_boost_factors(LABELS, _counts(SNE=10**308, PLY=1), RescueConfig(boost_cap=1e3))
    assert boosts.factors[PLY] == math.log1p(1e308)


def test_explicit_override_wins():
    config = RescueConfig(boost_overrides={"PLY": 3.5})
    boosts = compute_boost_factors(LABELS, _counts(), config)
    assert boosts.factors[PLY] == 3.5
    assert boosts.factors[PC] == pytest.approx(math.log(1 + 17354 / 90))


def test_zero_count_rare_class_is_an_error():
    with pytest.raises(ValidationError, match="boost undefined for zero-count class"):
        compute_boost_factors(LABELS, _counts(PLY=0), RescueConfig())


def test_boost_factors_reject_non_rare_boosts():
    factors = np.ones(K)
    factors[LY] = 2.0
    with pytest.raises(ValidationError):
        BoostFactors(factors, frozenset({PLY, PC}))


def _two_class_table():
    return ProbTable(LabelSet(["PLY", "PC"]), ["a"], [[0.5, 0.5]])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: BoostFactors(np.full(K, 0.5), frozenset({PLY, PC})),
         "boost factors must be finite and >= 1"),
        (lambda: BoostFactors(np.full(K, math.inf), frozenset(range(K))),
         "boost factors must be finite and >= 1"),
        (lambda: compute_boost_factors(LABELS, ClassCounts((1, 2)), RescueConfig()),
         "class counts length 2 does not match catalog size 13"),
        (lambda: parallel_map(str, [1, 2], -1), "thread count must be >= 0, got -1"),
        (lambda: rescue_batch(_two_class_table(), ProbTable(LABELS, ["a"], [_probs({})]),
                              None, _counts(), None, RescueConfig()),
         "probability tables use different label catalogs"),
    ],
    ids=["boost-below-1", "boost-inf", "counts-length", "threads", "catalogs"],
)
def test_library_calls_reject_bad_arguments(call, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        call()


# --------------------------------------------------------------- phases


def test_phase1_no_candidate_when_boost_insufficient():
    boosts = compute_boost_factors(LABELS, _counts(), RescueConfig())
    base, candidate = phase1_candidate(_probs({SNE: 0.9, PLY: 0.05}), boosts)
    assert base == SNE
    assert candidate == -1
    assert 0.05 * boosts.factors[PLY] < 0.9


def test_phase1_surfaces_boosted_rare_class():
    boosts = compute_boost_factors(LABELS, _counts(), RescueConfig())
    base, candidate = phase1_candidate(_probs({LY: 0.50, PLY: 0.12}), boosts)
    assert base == LY
    assert candidate == PLY


def test_phase1_identity_boosts_mean_no_candidate():
    boosts = BoostFactors(np.ones(K), frozenset({PLY, PC}))
    base, candidate = phase1_candidate(_probs({LY: 0.6, PLY: 0.2}), boosts)
    assert base == LY and candidate == -1
    base, candidate = phase1_candidate(_probs({PLY: 0.6, LY: 0.2}), boosts)
    assert base == PLY and candidate == PLY


def test_phase2_threshold_semantics(gate):
    ids = ("above", "below", "boundary")
    swin, med = _tables(
        [(image_id, {LY: 0.5, PLY: 0.12}) for image_id in ids],
        [("above", {PLY: 0.6}), ("below", {PLY: 0.2}), ("boundary", {PLY: 0.5})],
    )
    source = CountingSource({image_id: _spiky_sample(image_id) for image_id in ids})
    traces = rescue_batch(swin, med, source, _counts(), gate, RescueConfig(tau=0.5))
    assert [trace.phase_reached for trace in traces] == [
        Phase.RESCUED, Phase.FAILED_SEMANTIC, Phase.RESCUED,  # boundary passes
    ]
    assert source.loads == 2


def test_phase3_spiky_candidate(gate):
    config = RescueConfig(tau_s=0.15)
    phase, score, distance, error = phase3_filter("PLY", _spiky_sample(), gate, config)
    assert phase is Phase.RESCUED and score > 0.15
    assert distance is None and error is None
    phase, score, distance, error = phase3_filter("PLY", _round_sample(), gate, config)
    assert phase is Phase.FAILED_MORPHOLOGY and score <= 0.15
    assert distance is None and error is None


def test_phase3_gate_candidate(gate):
    config = RescueConfig(tau_m=3.0)
    sample = eccentric_cell(nucleus_shift=3.0)
    _, score, distance, error = phase3_filter("PC", sample, gate, config)
    assert score is None and distance is not None and error is None
    phase, _, _, _ = phase3_filter("PC", sample, gate, RescueConfig(tau_m=math.inf))
    assert phase is Phase.RESCUED


def test_phase3_unmeasurable_sample_fails_closed(gate):
    flat = gray_sample(np.full((8, 8), 90, dtype=np.uint8), disc_mask(8, 3.0))
    phase, score, distance, error = phase3_filter("PC", flat, gate, RescueConfig())
    assert (phase, score, distance) == (Phase.FAILED_MORPHOLOGY, None, None)
    assert "degenerate luminance" in error


@pytest.mark.parametrize("levels", [[0.0, math.nan], [0.0, math.nan, 10.0],
                                    [-math.inf, 0.0, 10.0], [0.0, 10.0, math.inf]])
def test_phase3_denies_a_cell_of_non_finite_luminance(gate, levels):
    pixels = np.repeat(np.array(levels)[None, :, None], 3, axis=2)
    cell = CellSample("odd", pixels, np.ones((1, len(levels)), dtype=bool))
    with pytest.raises(ValidationError, match="^odd: non-finite luminance$"):
        morph_vector(cell)
    phase, score, distance, error = phase3_filter("PC", cell, gate, RescueConfig())
    assert (phase, score, distance, error) == (
        Phase.FAILED_MORPHOLOGY, None, None, "odd: non-finite luminance")


@pytest.mark.parametrize("make", [_spiky_sample, _round_sample])
def test_shape_filters_keep_no_state_on_the_sample(gate, make):
    sample = make()
    attributes = {name: getattr(sample, name) for name in type(sample).__slots__}
    pixels, mask = sample.pixels.tobytes(), sample.mask.tobytes()
    spikiness(trace_contour(sample.mask))
    kmeans2_luminance(sample)
    morph_vector(sample)
    for name in ("PLY", "PC"):
        phase3_filter(name, sample, gate, RescueConfig())
    assert not hasattr(sample, "__dict__")  # no room for state beyond its fields
    assert all(getattr(sample, key) is value for key, value in attributes.items())
    assert sample.pixels.tobytes() == pixels
    assert sample.mask.tobytes() == mask


def test_phase3_requires_gate_for_pc():
    with pytest.raises(ValidationError, match="gate model required"):
        phase3_filter("PC", _round_sample(), None, RescueConfig())


def test_phase3_nan_distance_aborts_rather_than_denies():
    covariance = np.array([[1.0, 0.9, 0.0], [0.9, 1.0, 0.0], [0.0, 0.0, 1.0]])
    # Near-opposite infinities in the quadratic form sum to NaN.
    far_mean = np.array([-1e308, -1e308, 0.0])
    far = GaussianGate(far_mean, covariance, np.linalg.inv(covariance), 0.0, 30)
    with pytest.raises(ValidationError, match="Mahalanobis distance is NaN"):
        phase3_filter("PC", eccentric_cell(nucleus_shift=3.0), far, RescueConfig())


def test_phase3_unknown_class_is_config_error(gate):
    with pytest.raises(ValidationError, match="no shape filter"):
        phase3_filter("VLY", _round_sample(), gate, RescueConfig())


# ---------------------------------------------------------- composition


class CountingSource:
    def __init__(self, samples):
        self.samples = samples
        self.loads = 0

    def __call__(self, image_id):
        self.loads += 1
        try:
            return self.samples[image_id]
        except KeyError:
            raise SampleNotFoundError(f"no sample {image_id!r}") from None


def _table(ids, rows):
    """A table of `rows` under `ids`; the reshape gives zero rows their K columns."""
    return ProbTable(LABELS, ids, np.reshape(rows, (len(ids), K)))


def _tables(rows_swin, rows_med):
    swin = _table([i for i, _ in rows_swin], [_probs(p) for _, p in rows_swin])
    med = _table([i for i, _ in rows_med], [_probs(p) for _, p in rows_med])
    return swin, med


def _decide(p_swin, p_med, sample=None, config=None, gate_model=None, counts=None):
    source = CountingSource({} if sample is None else {"img": sample})
    [trace] = rescue_batch(
        ProbTable(LABELS, ["img"], [p_swin]),
        ProbTable(LABELS, ["img"], [p_med]),
        source,
        counts or _counts(),
        gate_model,
        config or RescueConfig(),
    )
    return trace


def _oracle(image_id, p_swin, p_med, source, boosts, gate_model, config, skip_missing=False):
    """Straight-line decision for one row, the reference for `rescue_batch`:
    its trace and, worked out on its own, its final label."""
    base = int(np.argmax(p_swin))
    top = int(np.argmax(p_swin * boosts.factors))
    candidate = top if top in boosts.rare_indices else None
    if candidate is None or (base in boosts.rare_indices and candidate != base):
        return DecisionTrace(image_id, base, None, Phase.NO_CANDIDATE), base
    if not float(p_med[candidate]) >= config.tau:
        return DecisionTrace(image_id, base, candidate, Phase.FAILED_SEMANTIC), base
    try:
        sample = source(image_id)
    except (SampleNotFoundError, ValidationError) as exc:
        if not skip_missing:
            raise
        trace = DecisionTrace(
            image_id, base, candidate, Phase.FAILED_MORPHOLOGY, error=str(exc)
        )
        return trace, base
    phase, score, distance, error = phase3_filter(
        LABELS.name_at(candidate), sample, gate_model, config
    )
    trace = DecisionTrace(image_id, base, candidate, phase, score, distance, error)
    return trace, candidate if phase is Phase.RESCUED else base


def _with_final_labels(traces):
    """Each trace with its derived final label, to compare with `_oracle`."""
    return [(trace, trace.final_label) for trace in traces]


def test_early_exit_without_candidate():
    trace = _decide(_probs({SNE: 0.9, PLY: 0.02}), _probs({SNE: 0.9}))
    assert trace.phase_reached is Phase.NO_CANDIDATE
    assert trace.final_label == SNE
    assert trace.candidate is None


def test_full_rescue_path(gate):
    trace = _decide(
        _probs({LY: 0.5, PLY: 0.12}),
        _probs({PLY: 0.6}),
        sample=_spiky_sample(),
        gate_model=gate,
    )
    assert trace.phase_reached is Phase.RESCUED
    assert trace.base_label == LY
    assert trace.candidate == PLY
    assert trace.final_label == PLY
    assert trace.spikiness > 0.15


def test_semantic_rejection_keeps_base(gate):
    trace = _decide(
        _probs({LY: 0.5, PLY: 0.12}),
        _probs({PLY: 0.2}),
        sample=_spiky_sample(),
        gate_model=gate,
    )
    assert trace.phase_reached is Phase.FAILED_SEMANTIC
    assert trace.final_label == LY


def test_morphology_rejection_keeps_base(gate):
    trace = _decide(
        _probs({LY: 0.5, PLY: 0.12}),
        _probs({PLY: 0.9}),
        sample=_round_sample(),
        gate_model=gate,
    )
    assert trace.phase_reached is Phase.FAILED_MORPHOLOGY
    assert trace.final_label == LY
    assert trace.spikiness is not None


def test_rare_base_with_other_rare_candidate_stays_fixed(gate):
    # PC base, but the bigger PLY boost pushes PLY past it: no candidate is
    # pursued, the rare base prediction stands.
    config = RescueConfig(boost_overrides={"PLY": 9.0, "PC": 1.0})
    boosts = compute_boost_factors(LABELS, _counts(), config)
    p_swin = _probs({PC: 0.35, PLY: 0.30})
    assert int(np.argmax(p_swin * boosts.factors)) == PLY
    trace = _decide(p_swin, _probs({PLY: 0.9}), _spiky_sample(), config, gate)
    assert trace.phase_reached is Phase.NO_CANDIDATE
    assert trace.final_label == PC


def test_rare_base_confirming_itself_proceeds(gate):
    trace = _decide(
        _probs({PLY: 0.5, LY: 0.3}),
        _probs({PLY: 0.9}),
        sample=_spiky_sample(),
        gate_model=gate,
    )
    assert trace.phase_reached is Phase.RESCUED
    assert trace.final_label == PLY


# --------------------------------------------------------------- batch


def test_empty_batch(gate):
    swin, med = _tables([], [])
    assert list(rescue_batch(swin, med, CountingSource({}), _counts(), gate, RescueConfig())) == []


def test_batch_loads_samples_lazily(gate):
    swin, med = _tables(
        [("a", {SNE: 0.95}), ("b", {LY: 0.9})],
        [("a", {SNE: 0.95}), ("b", {LY: 0.9})],
    )
    source = CountingSource({})
    traces = rescue_batch(swin, med, source, _counts(), gate, RescueConfig())
    assert len(traces) == 2
    assert source.loads == 0


def test_batch_requires_aligned_ids(gate):
    swin, med = _tables([("a", {SNE: 0.9})], [("b", {SNE: 0.9})])
    with pytest.raises(ValidationError, match="missing from verifier table"):
        rescue_batch(swin, med, CountingSource({}), _counts(), gate, RescueConfig())


def test_batch_rejects_extra_verifier_ids(gate):
    swin, med = _tables(
        [("a", {SNE: 0.9})], [("a", {SNE: 0.9}), ("b", {SNE: 0.9})]
    )
    with pytest.raises(ValidationError, match="absent from the primary table"):
        rescue_batch(swin, med, CountingSource({}), _counts(), gate, RescueConfig())


@pytest.mark.parametrize(
    "odd_side, message",
    [
        ("swin", "image ids missing from verifier table"),
        ("med", "verifier table has ids absent from the primary table"),
    ],
)
def test_batch_names_five_mismatched_ids_sorted(gate, odd_side, message):
    # Seven ids that only one table holds, in table order g..a: the first
    # five sorted are named.
    common = [("n", {SNE: 0.9})]
    odd = common + [(image_id, {SNE: 0.9}) for image_id in "gfedcba"]
    swin, med = _tables(odd, common) if odd_side == "swin" else _tables(common, odd)
    with pytest.raises(ValidationError) as raised:
        rescue_batch(swin, med, CountingSource({}), _counts(), gate, RescueConfig())
    assert str(raised.value) == f"{message}: ['a', 'b', 'c', 'd', 'e']..."


def test_batch_missing_sample_aborts_by_default(gate):
    swin, med = _tables([("a", {LY: 0.5, PLY: 0.12})], [("a", {PLY: 0.9})])
    with pytest.raises(SampleNotFoundError):
        rescue_batch(swin, med, CountingSource({}), _counts(), gate, RescueConfig())


def test_batch_skip_missing_denies_rescue(gate):
    swin, med = _tables([("a", {LY: 0.5, PLY: 0.12})], [("a", {PLY: 0.9})])
    traces = rescue_batch(
        swin, med, CountingSource({}), _counts(), gate, RescueConfig(), skip_missing=True
    )
    assert traces[0].phase_reached is Phase.FAILED_MORPHOLOGY
    assert traces[0].final_label == LY
    assert "no sample" in traces[0].error


def test_batch_skip_missing_denies_an_unreadable_sample_but_no_other_io_error(gate):
    swin, med = _tables([("a", {LY: 0.5, PLY: 0.12})], [("a", {PLY: 0.9})])

    def unreadable(image_id):
        raise ValidationError(f"{image_id}.ppm: truncated raster (3 of 4 bytes)")

    def unpermitted(image_id):
        raise PermissionError(f"{image_id}.ppm: permission denied")

    with pytest.raises(ValidationError, match="truncated raster"):
        rescue_batch(swin, med, unreadable, _counts(), gate, RescueConfig())
    [trace] = rescue_batch(swin, med, unreadable, _counts(), gate, RescueConfig(),
                           skip_missing=True)
    assert trace.phase_reached is Phase.FAILED_MORPHOLOGY and trace.final_label == LY
    assert trace.error == "a.ppm: truncated raster (3 of 4 bytes)"
    with pytest.raises(PermissionError):
        rescue_batch(swin, med, unpermitted, _counts(), gate, RescueConfig(), skip_missing=True)


def test_batch_rejects_unfilterable_rare_class_before_loading(gate):
    # The row's candidate is PLY, which has a filter; VLY has none, and the
    # run fails on the configuration, not on whichever row reaches phase 3.
    swin, med = _tables([("a", {LY: 0.5, PLY: 0.12})], [("a", {PLY: 0.9})])
    source = CountingSource({"a": _spiky_sample("a")})
    config = RescueConfig(rare_classes={"PLY", "VLY"})
    with pytest.raises(ValidationError, match=r"without a shape filter: \['VLY'\]"):
        rescue_batch(swin, med, source, _counts(), gate, config)
    assert source.loads == 0


def _random_batch(seed, n=120):
    rng = np.random.default_rng(seed)
    samples = {}
    ids, rows_swin, rows_med = [], [], []
    for i in range(n):
        image_id = f"img{i}"
        ids.append(image_id)
        raw = rng.random(K) + 1e-9
        rows_swin.append(raw / raw.sum())
        raw = rng.random(K) + 1e-9
        rows_med.append(raw / raw.sum())
        samples[image_id] = (
            _spiky_sample(image_id) if i % 2 else eccentric_cell(
                nucleus_shift=float(rng.uniform(0, 4)), image_id=image_id
            )
        )
    swin = ProbTable(LABELS, ids, rows_swin)
    med = ProbTable(LABELS, ids, rows_med)
    return swin, med, samples


def test_batch_equals_sequential_application(gate):
    swin, med, samples = _random_batch(33)
    config = RescueConfig(tau=0.05, tau_s=0.15, tau_m=3.0)
    boosts = compute_boost_factors(LABELS, _counts(), config)
    source = CountingSource(samples)
    batch = rescue_batch(swin, med, source, _counts(), gate, config, threads=4)
    assert _with_final_labels(batch) == [
        _oracle(image_id, p_swin, med.matrix[med.ids.index(image_id)], source, boosts, gate, config)
        for image_id, p_swin in zip(swin.ids, swin.matrix)
    ]


def test_parallel_map_runs_items_on_threads_at_once():
    # Each call waits for the other, so one thread alone would time out.
    barrier = threading.Barrier(2, timeout=5)

    def meet(item):
        barrier.wait()
        return threading.get_ident(), item

    (first, a), (second, b) = parallel_map(meet, ["a", "b"], 2)
    assert first != second and (a, b) == ("a", "b")


def test_batch_is_deterministic_across_threads(gate):
    swin, med, samples = _random_batch(34)
    config = RescueConfig(tau=0.05)
    runs = [
        rescue_batch(
            swin, med, CountingSource(samples), _counts(), gate, config, threads=threads
        )
        for threads in (1, 8)
    ]
    assert list(runs[0]) == list(runs[1])


# Samples the kernel test deals out: spiky, round, off-centre nucleus,
# unmeasurable (flat luminance), and None for a missing sample.
_POOL = {
    "spiky": _spiky_sample(),
    "round": _round_sample(),
    "shifted": eccentric_cell(nucleus_shift=3.0),
    "flat": gray_sample(np.full((8, 8), 90, dtype=np.uint8), disc_mask(8, 3.0)),
    "missing": None,
}


@st.composite
def _kernel_cases(draw):
    # Small integer weights make exact ties frequent, both between classes
    # and, with the boosts and taus below, after boosting and at tau.
    weights = st.lists(
        st.integers(min_value=0, max_value=6), min_size=K, max_size=K
    ).map(lambda w: w if any(w) else [1] * K)
    rows = []
    for i in range(draw(st.integers(min_value=0, max_value=30))):
        p_swin, p_med = (np.array(draw(weights), dtype=np.float64) for _ in range(2))
        rows.append((f"img{i}", p_swin / p_swin.sum(), p_med / p_med.sum(),
                     draw(st.sampled_from(sorted(_POOL)))))
    boost = st.one_of(st.sampled_from([1.0, 1.5, 2.0, 3.0]), st.floats(1.0, 10.0))
    config = RescueConfig(
        boost_overrides={"PLY": draw(boost), "PC": draw(boost)},
        tau=draw(st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 1.0))),
    )
    return rows, config, draw(st.booleans())


def _outcome(decide):
    try:
        return decide()
    except SampleNotFoundError as exc:
        return f"raised: {exc}"


@given(_kernel_cases())
@settings(max_examples=150, deadline=None)
def test_batch_kernel_matches_per_row_oracle(gate, case):
    rows, config, skip_missing = case
    counts = ClassCounts(tuple([100] * K))
    boosts = compute_boost_factors(LABELS, counts, config)
    source = CountingSource(
        {image_id: _POOL[key] for image_id, _, _, key in rows if _POOL[key] is not None}
    )
    ids = [image_id for image_id, _, _, _ in rows]
    swin = _table(ids, [p for _, p, _, _ in rows])
    med = _table(ids, [p for _, _, p, _ in rows])
    expected = _outcome(lambda: [
        _oracle(image_id, p_swin, p_med, source, boosts, gate, config, skip_missing)
        for image_id, p_swin, p_med, _ in rows
    ])
    for threads in (1, 4):
        assert _outcome(lambda: _with_final_labels(rescue_batch(
            swin, med, source, counts, gate, config,
            skip_missing=skip_missing, threads=threads,
        ))) == expected


@given(_kernel_cases())
@settings(max_examples=100, deadline=None)
def test_batch_record_columns_agree_with_its_views(gate, case):
    rows, config, _ = case
    counts = ClassCounts(tuple([100] * K))
    boosts = compute_boost_factors(LABELS, counts, config)
    source = CountingSource(
        {image_id: _POOL[key] for image_id, _, _, key in rows if _POOL[key] is not None}
    )
    ids = [image_id for image_id, _, _, _ in rows]
    decisions = rescue_batch(_table(ids, [p for _, p, _, _ in rows]),
                             _table(ids, [p for _, _, p, _ in rows]),
                             source, counts, gate, config, skip_missing=True)
    views = list(decisions)
    assert views == [
        _oracle(image_id, p_swin, p_med, source, boosts, gate, config, True)[0]
        for image_id, p_swin, p_med, _ in rows
    ]
    assert [decisions[row - len(rows)] for row in range(len(rows))] == views
    assert decisions.final.tolist() == [view.final_label for view in views]
    # The phase counts that perfbench/layers.py reads from the views.
    assert np.bincount(decisions.phase, minlength=len(PHASES)).tolist() == [
        sum(view.phase_reached is phase for view in views) for phase in PHASES
    ]


# ------------------------------------------------------------ invariants


@st.composite
def _prob_vectors(draw):
    # Quantized weights: entries are either exactly tied (scaling preserves
    # exact ties) or separated well beyond one ulp, where scaling a vector
    # can collapse the gap and move an argmax-first tie-break.
    raw = draw(
        st.lists(st.integers(min_value=1, max_value=10**6), min_size=K, max_size=K)
    )
    arr = np.array(raw, dtype=np.float64)
    return arr / arr.sum()


@given(_prob_vectors(), st.floats(min_value=1.0, max_value=10.0),
       st.floats(min_value=1.0, max_value=10.0))
@settings(max_examples=200, deadline=None)
def test_phase1_closure_and_rare_fixed_point(probs, boost_ply, boost_pc):
    factors = np.ones(K)
    factors[PLY], factors[PC] = boost_ply, boost_pc
    boosts = BoostFactors(factors, frozenset({PLY, PC}))
    base, candidate = phase1_candidate(probs, boosts)
    assert candidate == -1 or candidate in (PLY, PC)
    assert base == int(np.argmax(probs))


@given(_prob_vectors(), st.floats(min_value=0.1, max_value=113.0))
@settings(max_examples=200, deadline=None)
def test_phase1_scale_invariance(probs, scale):
    boosts = compute_boost_factors(LABELS, _counts(), RescueConfig())
    assert phase1_candidate(probs, boosts) == phase1_candidate(probs * scale, boosts)


# ----------------------------------------------------------- csv output


def test_prediction_and_trace_csv(tmp_path, gate):
    swin, med = _tables(
        [("a", {SNE: 0.95}), ("b", {LY: 0.5, PLY: 0.12})],
        [("a", {SNE: 0.95}), ("b", {PLY: 0.9})],
    )
    samples = {"b": _spiky_sample("b")}
    traces = rescue_batch(swin, med, CountingSource(samples), _counts(), gate, RescueConfig())
    pred_path = tmp_path / "pred.csv"
    trace_path = tmp_path / "trace.csv"
    write_predictions_csv(pred_path, traces, LABELS)
    write_trace_csv(trace_path, traces, LABELS)
    assert pred_path.read_text().splitlines() == [
        "image_id,label", "a,SNE", "b,PLY",
    ]
    lines = trace_path.read_text().splitlines()
    assert lines[0] == "image_id,base,candidate,phase,spikiness,mahalanobis,final"
    assert lines[1] == "a,SNE,,NoCandidate,,,SNE"
    fields = lines[2].split(",")
    assert fields[:4] == ["b", "LY", "PLY", "Rescued"]
    assert float(fields[4]) > 0.15
    assert fields[5] == ""
    assert fields[6] == "PLY"


@st.composite
def _written_decisions(draw):
    """A record of rows that `rescue_batch` can produce: NoCandidate rows
    without a candidate, FailedSemantic rows with one, and phase-3 rows with
    a candidate and optional scores and error."""
    k = draw(st.integers(min_value=2, max_value=6))
    label_set = LabelSet(draw(st.lists(st.text(alphabet='PLYC,"\r\n é', min_size=1, max_size=4),
                                       min_size=k, max_size=k, unique=True)))
    ids = draw(st.lists(st.text(alphabet='ab,"\r\n #é細', max_size=5), max_size=8, unique=True))
    classes = st.integers(min_value=0, max_value=k - 1)
    scores = st.one_of(st.none(), st.floats(width=64, allow_nan=False),
                       st.sampled_from([math.inf, -math.inf]))
    base, candidate, phase, outcomes = [], [], [], {}
    for row in range(len(ids)):
        code = draw(st.integers(min_value=0, max_value=len(PHASES) - 1))
        base.append(draw(classes))
        candidate.append(-1 if PHASES[code] is Phase.NO_CANDIDATE else draw(classes))
        phase.append(code)
        if PHASES[code] in (Phase.FAILED_MORPHOLOGY, Phase.RESCUED):
            outcomes[row] = (draw(scores), draw(scores), draw(st.one_of(st.none(), st.text())))
    return label_set, Decisions(tuple(ids), np.array(base, dtype=np.int64),
                                np.array(candidate, dtype=np.int64),
                                np.array(phase, dtype=np.int8), outcomes)


def _write_predictions_reference(path, traces, label_set):
    csv_module_write(
        path,
        ["image_id", "label"],
        ([trace.image_id, label_set.name_at(trace.final_label)] for trace in traces),
    )


def _write_trace_reference(path, traces, label_set):
    """The former `write_trace_csv` on `csv.writer`, kept as the oracle."""
    csv_module_write(
        path,
        ["image_id", "base", "candidate", "phase", "spikiness", "mahalanobis", "final"],
        (
            [
                trace.image_id,
                label_set.name_at(trace.base_label),
                "" if trace.candidate is None else label_set.name_at(trace.candidate),
                trace.phase_reached.value,
                "" if trace.spikiness is None else f"{trace.spikiness:.9g}",
                "" if trace.mahalanobis is None else f"{trace.mahalanobis:.9g}",
                label_set.name_at(trace.final_label),
            ]
            for trace in traces
        ),
    )


@given(_written_decisions())
@settings(max_examples=200, deadline=None)
def test_prediction_and_trace_writers_match_the_csv_module_writer(tmp_path_factory, drawn):
    label_set, decisions = drawn
    folder = tmp_path_factory.mktemp("out")
    for write, reference in ((write_predictions_csv, _write_predictions_reference),
                             (write_trace_csv, _write_trace_reference)):
        write(folder / "new.csv", decisions, label_set)
        reference(folder / "old.csv", list(decisions), label_set)
        assert (folder / "new.csv").read_bytes() == (folder / "old.csv").read_bytes()
