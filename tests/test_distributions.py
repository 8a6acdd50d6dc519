"""Inverse normal CDF accuracy and quantile source behaviour."""

import math
import os
import sys
import threading
import warnings
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from reference import bisect_normal_quantile, interp_quantile
from spectral_risk import (
    DataError,
    constant,
    inverse_normal_cdf,
    load_empirical,
    normal,
    quantile,
    read_loss_csv,
    standard_normal,
    uniform,
)
from spectral_risk.distributions import _BLOCK

PROBES = [
    1e-300, 1e-100, 1e-20, 1e-12, 1e-9, 1e-6, 1e-4, 0.01, 0.1, 0.3, 0.5,
    0.7, 0.9, 0.99, 1.0 - 1e-4, 1.0 - 1e-6, 1.0 - 1e-9, 1.0 - 1e-12,
]


def test_inverse_normal_cdf_matches_bisection_oracle():
    for p in PROBES:
        assert inverse_normal_cdf(p) == pytest.approx(bisect_normal_quantile(p), abs=1e-12)


def test_inverse_normal_cdf_known_points():
    assert inverse_normal_cdf(0.5) == 0.0
    assert inverse_normal_cdf(0.95) == pytest.approx(1.6448536269514722, abs=1e-12)
    assert inverse_normal_cdf(0.975) == pytest.approx(1.959963984540054, abs=1e-12)


def test_inverse_normal_cdf_vector_matches_scalar():
    ps = np.array(PROBES)
    zs = inverse_normal_cdf(ps)
    assert zs.shape == ps.shape
    for p, z in zip(ps, zs):
        assert z == inverse_normal_cdf(float(p))


@given(st.floats(min_value=0.5, max_value=1.0, exclude_max=True))
@example(0.8646647167633873)
@example(0.925)
def test_inverse_normal_cdf_exactly_antisymmetric(q):
    # 1 - q is exact for q in [0.5, 1), so the reflection must be exact too.
    # The examples are fl(1 - e^-2), where scipy's ndtri switched branches
    # and its ndtri(q) and -ndtri(1 - q) differed by one ulp, and the edge
    # of AS241's central branch
    assert inverse_normal_cdf(1.0 - q) == -inverse_normal_cdf(q)


@given(st.lists(st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
                min_size=1, max_size=40))
@example([5e-324, 1e-320, 1e-300, 1.4e-11, 0.075, 0.5, 0.925, 1.0 - 2.0**-53])
def test_inverse_normal_cdf_matches_the_standard_library_within_a_few_ulps(ps):
    # statistics.NormalDist runs the same algorithm, AS241, with libm's log,
    # from which numpy's may differ by an ulp
    z = inverse_normal_cdf(np.array(ps))
    want = np.array([NormalDist().inv_cdf(p) for p in ps])
    assert np.all(np.abs(z - want) <= 4.0 * np.spacing(np.abs(want)))


@given(
    st.floats(min_value=1e-9, max_value=1.0 - 1e-9),
    st.floats(min_value=1e-9, max_value=1.0 - 1e-9),
)
@example(0.3000000000000128, 0.30000000000001287)
def test_inverse_normal_cdf_monotone(p1, p2):
    # No double implementation is monotone to the ulp: at the neighbouring
    # doubles of the example the value steps back by one ulp.  Each value
    # lies within 4 ulps of NormalDist's (see above), so a larger p may give
    # a value up to 8 ulps smaller.
    lo, hi = sorted((p1, p2))
    z_lo, z_hi = inverse_normal_cdf(lo), inverse_normal_cdf(hi)
    assert z_lo <= z_hi + 8.0 * np.spacing(max(abs(z_lo), abs(z_hi)))


def _last_block_holds(bad):
    """3 * _BLOCK + 5 probabilities inside (0, 1) but for bad, in the last
    block, which is checked after three good ones."""
    p = np.full(3 * _BLOCK + 5, 0.3)
    p[-2] = bad
    return p


# arrays with one probability outside (0, 1): a nan first, in the middle or
# last, an endpoint, an infinity or a value beyond the interval
BAD_PROBABILITY_ARRAYS = [
    pytest.param(_last_block_holds(math.nan), id="nan-last-block"),
    pytest.param(_last_block_holds(1.0), id="one-last-block"),
    pytest.param([math.nan, 0.3, 0.4], id="nan-first"),
    pytest.param([0.3, math.nan, 0.4], id="nan-middle"),
    pytest.param([0.3, 0.4, math.nan], id="nan-last"),
    pytest.param([0.3, 0.0, 0.4], id="zero"),
    pytest.param([0.3, 0.4, 1.0], id="one"),
    pytest.param([-math.inf, 0.3], id="minus-inf"),
    pytest.param([0.3, math.inf], id="inf"),
    pytest.param([-0.1, 0.3], id="below"),
    pytest.param([0.3, 1.5, 0.4], id="above"),
]


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.5, math.nan, *BAD_PROBABILITY_ARRAYS])
def test_inverse_normal_cdf_rejects_out_of_range(bad):
    with pytest.raises(ValueError, match="strictly inside"):
        inverse_normal_cdf(bad)
    with pytest.raises(ValueError, match="strictly inside"):
        inverse_normal_cdf(np.array(bad))


def test_inverse_normal_cdf_writes_into_out_or_refuses_it():
    p = np.array([[1e-12, 0.3], [0.5, 0.99]])
    out = np.empty((2, 2))
    assert inverse_normal_cdf(p, out=out) is out
    assert out.tobytes() == inverse_normal_cdf(p).tobytes()
    # in place, on a block that mixes the branches, mostly central
    mixed = np.random.default_rng(43).random(1000)
    want = inverse_normal_cdf(mixed)
    assert inverse_normal_cdf(mixed, out=mixed).tobytes() == want.tobytes()
    # a result it could not write through, or of another shape
    for bad in (np.empty((2, 2)).T, np.empty((4, 2))[::2], np.empty(4)):
        with pytest.raises(ValueError, match="C-contiguous array shaped like p"):
            inverse_normal_cdf(p, out=bad)


@pytest.mark.parametrize("bad", [
    pytest.param(np.zeros((2, 2), dtype=np.float32), id="float32"),
    pytest.param(np.zeros((2, 2), dtype=np.int64), id="int64"),
    pytest.param([[0.0, 0.0], [0.0, 0.0]], id="list"),
])
def test_inverse_normal_cdf_refuses_an_out_it_cannot_fill_exactly(bad):
    # a float32 out would round the result, an int64 one could not hold it,
    # and a list is no array to write into; each is refused, left untouched
    before = np.array(bad).tobytes()
    with pytest.raises(ValueError, match="must be a float64, C-contiguous array shaped like p"):
        inverse_normal_cdf(np.array([[1e-12, 0.3], [0.5, 0.99]]), out=bad)
    assert np.array(bad).tobytes() == before


def test_probability_checks_pass_an_empty_array():
    empty = np.array([])
    assert inverse_normal_cdf(empty).shape == (0,)
    for src in (standard_normal(), load_empirical([1.0, 2.0]), constant(1.0)):
        assert quantile(src, empty).shape == (0,)


@given(st.lists(st.floats(min_value=0.0, max_value=0.5, exclude_min=True), min_size=1, max_size=20))
@example([0.5])
@example([5e-324, 0.25, 0.5])
@example([1e-12, 0.07, 0.3])
def test_inverse_normal_cdf_on_the_lower_half_is_the_reflection_bit_for_bit(ps):
    # input wholly at or below 1/2 skips the reflection, which must change no
    # bit: beside a p above 1/2, which makes the whole input fold, each p
    # keeps its quantile
    p = np.array(ps)
    folded = inverse_normal_cdf(np.append(p, 0.75))[:-1]
    assert folded.tobytes() == inverse_normal_cdf(p).tobytes()


def test_each_thread_evaluates_quantiles_in_its_own_scratch():
    # numpy releases the interpreter lock inside its loops, so threads that
    # shared the scratch would overwrite each other's rows; the unsorted
    # normal blocks take every branch but the asymptotic one, some by
    # gathering their elements, and the empirical ones interpolate through
    # the step and index rows
    rng = np.random.default_rng(41)
    n = 3 * 8192 + 5
    inputs = []
    for _ in range(4):  # more threads than the two cores of a small runner
        p = np.where(rng.random(n) < 0.5, np.exp(-700.0 * rng.random(n)), rng.random(n))
        inputs.append((inverse_normal_cdf, np.clip(p, 1e-300, 1.0 - 2.0**-53)))
    for m in (1001, 7, 50_000, 2):
        source = load_empirical(rng.standard_t(3, m))
        inputs.append((lambda p, source=source: quantile(source, p), rng.random(n)))
    expected = [[f(p).tobytes()] * 40 for f, p in inputs]
    start = threading.Barrier(len(inputs))
    got = [[] for _ in inputs]

    def evaluate(f, p, values):
        start.wait(timeout=60.0)
        for _ in range(40):
            values.append(f(p).tobytes())

    threads = [threading.Thread(target=evaluate, args=(*case, values), daemon=True)
               for case, values in zip(inputs, got)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == expected


def test_normal_source_scales_standard_quantiles():
    src = normal(2.0, 3.0)
    for p in (0.1, 0.5, 0.975):
        assert quantile(src, p) == pytest.approx(2.0 + 3.0 * inverse_normal_cdf(p), rel=1e-15)


def test_constant_source_is_flat():
    src = constant(4.2)
    ps = np.linspace(0.001, 0.999, 11)
    assert np.all(quantile(src, ps) == 4.2)


def test_constant_source_rejects_non_finite():
    with pytest.raises(ValueError, match="finite"):
        constant(math.inf)


def test_uniform_source_is_linear_in_p():
    src = uniform(1.0, 3.0)
    assert quantile(src, 0.5) == pytest.approx(2.0, abs=1e-15)
    assert quantile(src, 0.25) == pytest.approx(1.5, abs=1e-15)


def test_uniform_source_rejects_bad_support():
    with pytest.raises(ValueError, match="lo < hi"):
        uniform(3.0, 3.0)
    with pytest.raises(ValueError, match="finite"):
        uniform(-math.inf, math.inf)
    with pytest.raises(ValueError, match="range"):
        uniform(-1.7e308, 1.7e308)


def test_uniform_and_constant_are_piecewise_linear_sources():
    ps = np.random.default_rng(5).random(10_000)
    lo, hi = -1.5, 2.25
    assert np.array_equal(quantile(uniform(lo, hi), ps), lo + ps * (hi - lo))
    assert np.array_equal(quantile(constant(4.2), ps), np.full(ps.shape, 4.2))


def test_normal_source_rejects_bad_sd():
    with pytest.raises(ValueError, match="sd"):
        normal(0.0, 0.0)
    for mean, sd in [(math.nan, 1.0), (0.0, math.inf), (math.inf, 1.0)]:
        with pytest.raises(ValueError, match="finite"):
            normal(mean, sd)
    # quantiles as deep as any double probability reaches must stay finite
    for mean, sd in [(1e308, 1e308), (0.0, 1e307), (-1.7e308, 1e306)]:
        with pytest.raises(ValueError, match="finite"):
            normal(mean, sd)
    assert math.isfinite(quantile(normal(0.0, 4e306), 5e-324))


def test_empirical_quantile_matches_order_statistic_interpolation():
    rng = np.random.default_rng(11)
    samples = rng.normal(size=37)
    src = load_empirical(samples)
    ordered = sorted(samples)
    for p in (0.01, 0.2, 0.5, 0.77, 0.99):
        assert quantile(src, p) == pytest.approx(interp_quantile(ordered, p), rel=1e-14)


def test_empirical_quantile_hand_case():
    src = load_empirical([8.0, 1.0, 4.0, 2.0])
    # rank 3 * 0.5 + 1 = 2.5 lands midway between the 2nd and 3rd order stats
    assert quantile(src, 0.5) == pytest.approx(3.0, abs=1e-15)


@given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=40),
       st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
       st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
def test_empirical_quantile_monotone_and_bounded(values, p1, p2):
    src = load_empirical(values)
    lo, hi = sorted((p1, p2))
    qlo = quantile(src, lo)
    qhi = quantile(src, hi)
    assert qlo <= qhi
    assert min(values) <= qlo and qhi <= max(values)


def test_empirical_samples_are_sorted_and_read_only():
    src = load_empirical([3.0, 1.0, 2.0])
    assert list(src.samples) == [1.0, 2.0, 3.0]
    with pytest.raises(ValueError):
        src.samples[0] = 99.0


@pytest.mark.parametrize("wrap", [np.array, list, tuple, iter, lambda v: (x for x in v)],
                         ids=["ndarray", "list", "tuple", "iterator", "generator"])
def test_load_empirical_takes_any_flat_iterable_as_a_sorted_read_only_copy(wrap):
    values = np.array([3.0, -1.0, 2.5, 2.5, 0.0])
    src = load_empirical(wrap(values))
    assert list(src.samples) == [-1.0, 0.0, 2.5, 2.5, 3.0]
    assert not src.samples.flags.writeable
    assert not np.shares_memory(src.samples, values)
    assert list(values) == [3.0, -1.0, 2.5, 2.5, 0.0]


def test_load_empirical_rejects_empty_and_non_finite():
    with pytest.raises(DataError, match="no loss values"):
        load_empirical([])
    with pytest.raises(DataError, match="row 2"):
        load_empirical([1.0, math.nan, 3.0])
    with pytest.raises(DataError, match="flat sequence"):
        load_empirical([[1.0, 2.0]])
    with pytest.raises(DataError, match="flat sequence"):
        load_empirical(np.ones((3, 2)))
    # each loss is finite, but the range x_max - x_min overflows
    with pytest.raises(DataError, match="float range"):
        load_empirical([1.7e308, 0.0, -1.7e308])


@pytest.mark.parametrize("kind_src", [
    standard_normal(), normal(0.0, 1.0), constant(1.0),
    uniform(0.0, 1.0), load_empirical([1.0, 2.0]),
])
@pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 2.0, *BAD_PROBABILITY_ARRAYS])
def test_quantile_rejects_boundary_probabilities(kind_src, bad):
    with pytest.raises(ValueError, match="strictly inside"):
        quantile(kind_src, bad)


def test_quantile_vector_round_trip_shape():
    ps = np.array([[0.1, 0.5], [0.9, 0.999]])
    out = quantile(standard_normal(), ps)
    assert out.shape == ps.shape
    assert quantile(standard_normal(), 0.999) == out[1, 1]
    # an empirical source is taken block by block, each block interpolated in
    # the scratch's rows; every element must be the scalar's bits
    rng = np.random.default_rng(43)
    source = load_empirical(rng.lognormal(0.0, 1.0, 1001))
    ps = rng.random((3, 3 * 8192 + 5))
    ps[0, :9] = np.arange(1, 10) / 10  # on knots
    out = quantile(source, ps)
    assert out.shape == ps.shape
    assert out.tobytes() == np.array([quantile(source, p) for p in ps.ravel()]).tobytes()


def test_read_loss_csv_plain_and_with_header(tmp_path):
    plain = tmp_path / "plain.csv"
    plain.write_text("1.5\n-2.0\n\n3.25\n", encoding="utf-8")
    src = read_loss_csv(plain)
    assert list(src.samples) == [-2.0, 1.5, 3.25]

    headed = tmp_path / "headed.csv"
    headed.write_text("Loss\n1.0\n2.0\n", encoding="utf-8")
    assert list(read_loss_csv(headed).samples) == [1.0, 2.0]


def test_read_loss_csv_reports_offending_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("loss\n1.0\nabc\n", encoding="utf-8")
    with pytest.raises(DataError, match="line 3.*abc"):
        read_loss_csv(path)


def test_read_loss_csv_rejects_non_finite_and_empty(tmp_path):
    path = tmp_path / "inf.csv"
    path.write_text("1.0\ninf\n", encoding="utf-8")
    with pytest.raises(DataError, match="line 2"):
        read_loss_csv(path)

    empty = tmp_path / "empty.csv"
    for text in ("", "loss\n\n"):
        empty.write_text(text, encoding="utf-8")
        with warnings.catch_warnings():
            # an empty body is a DataError, not a warning from the bulk conversion
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="empty.csv: no loss values found"):
                read_loss_csv(empty)


def test_read_loss_csv_missing_file_is_a_data_error(tmp_path):
    with pytest.raises(DataError, match="cannot read"):
        read_loss_csv(tmp_path / "nope.csv")


_LOSS_FORMATS = (repr, "{:.17g}".format, "{:e}".format)


@given(
    losses=st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=30),
    forms=st.lists(st.sampled_from(_LOSS_FORMATS), min_size=30, max_size=30),
    blanks=st.lists(st.sampled_from(["", "", "  "]), max_size=30),
    header=st.booleans(),
    newline=st.sampled_from(["\n", "\r\n"]),
    data=st.data(),
)
def test_read_loss_csv_returns_bitwise_what_float_reads_per_line(
        tmp_path_factory, losses, forms, blanks, header, newline, data):
    cells = [form(x) for form, x in zip(forms, losses)]
    lines = data.draw(st.permutations(cells + blanks))
    # built in the file's own order: a stable sort keeps -0.0 and 0.0 as they come
    expected = np.sort(np.array([float(line) for line in lines if line.strip()]))
    body = newline.join((["loss"] if header else []) + lines) + newline
    path = tmp_path_factory.mktemp("losses") / "losses.csv"
    path.write_bytes(body.encode("utf-8"))
    assert read_loss_csv(path).samples.tobytes() == expected.tobytes()


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_read_loss_csv_reads_a_pipe_whole():
    # a pipe can be read only once: a reader that opened it twice would lose
    # the first buffer of rows; 3,000 rows are several buffers but fit the pipe
    losses = np.random.default_rng(0).lognormal(size=3000)
    body = ("loss\n" + "\n".join(map(repr, losses.tolist())) + "\n").encode("utf-8")
    read_fd, write_fd = os.pipe()
    try:
        os.write(write_fd, body)
        os.close(write_fd)
        samples = read_loss_csv(f"/dev/fd/{read_fd}").samples
    finally:
        os.close(read_fd)
    assert samples.tobytes() == np.sort(losses).tobytes()


def test_read_loss_csv_takes_what_float_takes_and_names_the_line_it_refuses(tmp_path):
    path = tmp_path / "losses.csv"
    path.write_text("loss\n1_000\n2\n", encoding="utf-8")
    assert list(read_loss_csv(path).samples) == [2.0, 1000.0]

    # float refuses "1,2" whether or not it is the only line
    for text, lineno in (("1\n1,2\n", 2), ("1,2\n", 1)):
        path.write_text(text, encoding="utf-8")
        with pytest.raises(DataError, match=f"line {lineno}: not a number: '1,2'"):
            read_loss_csv(path)

    # and a trailing NUL, which a fixed-width numpy string would drop
    path.write_text("1\n2\x00\n", encoding="utf-8")
    with pytest.raises(DataError, match=r"line 2: not a number: '2\\x00'"):
        read_loss_csv(path)


def test_read_loss_csv_accepts_a_byte_order_mark(tmp_path):
    path = tmp_path / "excel.csv"
    path.write_bytes(b"\xef\xbb\xbfloss\r\n1\r\n2\r\n")
    assert list(read_loss_csv(path).samples) == [1.0, 2.0]
    path.write_bytes(b"\xef\xbb\xbf3\n1,5\n")
    with pytest.raises(DataError, match="line 2"):
        read_loss_csv(path)

