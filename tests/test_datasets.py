"""Synthetic two-cluster datasets, the Gaussian kernel, weight interpolation,
and the kernel CSV format.

Frozen values: two points at distance 1 with gamma = 1 give K_12 = exp(-1);
base weights (2, 0) have population CV exactly 1 and interpolate at t = 0.5
to (1.5, 0.5).
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

import shotsvm.datasets as datasets
from shotsvm.datasets import (
    BlobSpec,
    coefficient_of_variation,
    interpolate_weights,
    load_kernel_file,
    make_blobs,
    margin_strength,
    rbf_kernel,
    save_kernel_file,
)
from shotsvm.errors import DegenerateProblemError
from shotsvm.kernels import check_kernel, condense


def test_blob_spec_validation():
    BlobSpec(n_points=10, separation=2.0, noise_scale=0.5)
    with pytest.raises(ValueError):
        BlobSpec(n_points=9, separation=2.0, noise_scale=0.5)  # odd
    with pytest.raises(ValueError):
        BlobSpec(n_points=2, separation=2.0, noise_scale=0.5)  # too small
    with pytest.raises(ValueError):
        BlobSpec(n_points=10, separation=2.0, noise_scale=0.5, anisotropy=0.5)
    with pytest.raises(ValueError):
        BlobSpec(n_points=10, separation=2.0, noise_scale=0.5, label_noise=0.6)
    with pytest.raises(ValueError):
        BlobSpec(n_points=10, separation=2.0, noise_scale=-0.1)
    # past the separation / noise ranges: a NaN kernel, an exact estimate
    for separation, noise_scale in [(1e300, 0.5), (3.0, 1e-200), (0.0, 1e-300), (10.5, 0.5),
                                    (3.0, 0.09), (3.0, 11.0), (np.nan, 0.5)]:
        with pytest.raises(ValueError, match="separation|noise_scale"):
            BlobSpec(n_points=10, separation=separation, noise_scale=noise_scale)
    with pytest.raises(ValueError, match="anisotropy"):
        BlobSpec(n_points=10, separation=2.0, noise_scale=0.5, anisotropy=1e300)
    with pytest.raises(ValueError, match="n_points must be an integer"):
        BlobSpec(n_points=10.0, separation=2.0, noise_scale=0.5)
    with pytest.raises(ValueError, match="dims must be an integer"):
        BlobSpec(n_points=10, separation=2.0, noise_scale=0.5, dims=math.inf)
    # every range is closed
    ranges = BlobSpec.RANGES
    BlobSpec(n_points=4, separation=ranges["separation"][1], noise_scale=ranges["noise_scale"][0],
             anisotropy=ranges["anisotropy"][1], label_noise=0.5, dims=1)
    BlobSpec(n_points=4, separation=0.0, noise_scale=ranges["noise_scale"][1])


def test_make_blobs_reproducible_and_shaped():
    spec = BlobSpec(n_points=40, separation=3.0, noise_scale=0.5, dims=3)
    x1, y1 = make_blobs(spec, 11)
    x2, y2 = make_blobs(spec, 11)
    np.testing.assert_array_equal(x1, x2)
    np.testing.assert_array_equal(y1, y2)
    assert x1.shape == (40, 3)
    assert set(np.unique(y1)) == {-1.0, 1.0}


def test_make_blobs_separation_along_first_axis():
    spec = BlobSpec(n_points=4000, separation=5.0, noise_scale=0.3)
    x, y = make_blobs(spec, 0)
    gap = x[y > 0, 0].mean() - x[y < 0, 0].mean()
    assert gap == pytest.approx(5.0, abs=0.05)
    assert abs(x[y > 0, 1].mean()) < 0.05


def test_make_blobs_anisotropy_stretches_first_axis():
    spec = BlobSpec(n_points=6000, separation=0.0, noise_scale=1.0, anisotropy=3.0)
    x, _ = make_blobs(spec, 1)
    assert x[:, 0].std() / x[:, 1].std() == pytest.approx(3.0, rel=0.1)


def test_make_blobs_label_noise_flip_rate():
    spec = BlobSpec(n_points=5000, separation=8.0, noise_scale=0.2, label_noise=0.2)
    x, y = make_blobs(spec, 3)
    clean = np.where(np.arange(5000) < 2500, -1.0, 1.0)
    assert np.mean(y != clean) == pytest.approx(0.2, abs=0.03)


def test_rbf_kernel_hand_value_and_validity():
    pts = np.array([[0.0, 0.0], [1.0, 0.0]])
    k = rbf_kernel(pts, gamma=1.0)
    assert k[0, 1] == pytest.approx(np.exp(-1.0), abs=1e-15)
    check_kernel(k)


def test_rbf_kernel_default_gamma_scale():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(30, 4))
    k = rbf_kernel(pts)
    check_kernel(k)
    # default bandwidth: 1 / (dims * var); far from degenerate on standard data
    off = condense(k)
    assert 0.01 < off.mean() < 0.99


@pytest.mark.parametrize("block", [None, 1, 20_000])
@pytest.mark.parametrize("dims", [2, 3, 17, 40])
def test_rbf_kernel_row_blocks_match_one_expression(dims, block, monkeypatch):
    """Row blocks of any size, the last one short, give the bytes of the
    one-expression form: each entry is the same reduction over one row."""
    if block is not None:
        monkeypatch.setattr(datasets, "_BLOCK_ELEMENTS", block)
    pts = np.random.default_rng(dims).normal(size=(90, dims))
    gamma = 1.0 / (dims * float(np.var(pts)))
    expected = np.exp(-gamma * ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1))
    np.fill_diagonal(expected, 1.0)
    assert rbf_kernel(pts).tobytes() == expected.tobytes()


def test_rbf_kernel_memory_stays_bounded():
    """At the CLI's --dims bound a one-expression difference array would be
    n * n * dims floats (160 MB at n = 200, dims = 500)."""
    pts = np.random.default_rng(0).normal(size=(200, 500))
    tracemalloc.start()
    try:
        rbf_kernel(pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 40e6


def test_margin_strength_convention():
    spec = BlobSpec(n_points=10, separation=3.0, noise_scale=0.5, dims=4)
    assert margin_strength(spec) == pytest.approx(3.0 / (0.5 * 2.0))


def test_interpolate_weights_hand_values():
    base = np.array([2.0, 0.0])
    np.testing.assert_allclose(interpolate_weights(base, 0.0), [1.0, 1.0])
    np.testing.assert_allclose(interpolate_weights(base, 0.5), [1.5, 0.5])
    np.testing.assert_allclose(interpolate_weights(base, 1.0), [2.0, 0.0])
    with pytest.raises(ValueError):
        interpolate_weights(base, 1.2)


def test_interpolation_preserves_mean_and_scales_cv():
    rng = np.random.default_rng(13)
    base = rng.gamma(0.7, 1.0, 60)
    cv0 = coefficient_of_variation(base)
    for t in np.linspace(0.0, 1.0, 7):
        w = interpolate_weights(base, t)
        assert w.mean() == pytest.approx(base.mean(), rel=1e-12)
        assert np.all(w >= 0)
        assert coefficient_of_variation(w) == pytest.approx(t * cv0, abs=1e-12)


def test_coefficient_of_variation_hand_value():
    assert coefficient_of_variation(np.array([2.0, 0.0])) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        coefficient_of_variation(np.zeros(3))


def test_kernel_file_roundtrip(tmp_path):
    rng = np.random.default_rng(17)
    pts = rng.normal(size=(6, 2))
    k = rbf_kernel(pts)
    y = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
    path = tmp_path / "kernel.csv"
    save_kernel_file(path, k, labels=y)
    k2, y2 = load_kernel_file(path)
    np.testing.assert_array_equal(k2, k)
    np.testing.assert_array_equal(y2, y)


def test_kernel_file_without_labels(tmp_path):
    """A kernel file is one format: its first non-blank line is the #labels row."""
    k = rbf_kernel(np.array([[0.0, 0.0], [0.5, 0.5], [1.0, 0.0]]), gamma=0.7)
    path = tmp_path / "plain.csv"
    path.write_text("".join(",".join(repr(float(v)) for v in row) + "\n" for row in k))
    with pytest.raises(ValueError, match="must be the #labels row"):
        load_kernel_file(path)
    path.write_text("1.0,0.5\n#labels,1,-1\n0.5,1.0\n")
    with pytest.raises(ValueError, match="must be the #labels row"):
        load_kernel_file(path)


@pytest.mark.parametrize("header", ["#labelsX,1,-1", "#labels 1,-1"])
def test_kernel_file_header_is_the_labels_token(tmp_path, header):
    """The first comma-separated token must be #labels itself: a longer token
    read as a labels row once, and one glued to the first label miscounted
    the labels."""
    path = tmp_path / "k.csv"
    path.write_text(f"{header}\n1.0,0.5\n0.5,1.0\n")
    with pytest.raises(ValueError, match="the first non-blank line must be the #labels row"):
        load_kernel_file(path)


def test_kernel_file_rows_parse_as_float_does(tmp_path):
    """Each row goes through one numpy assignment; every token, spaces,
    underscores and a bare sign included, must read as float() reads it."""
    rows = [["+1.", " 0.5 "], ["5_0e-2", "1_0e-1"]]
    path = tmp_path / "tokens.csv"
    path.write_text("\n#labels, 1,-1\r\n" + "".join(",".join(r) + "\r\n" for r in rows))
    k, labels = load_kernel_file(path)
    expected = np.array([[float(tok) for tok in r] for r in rows])
    assert k.tobytes() == expected.tobytes()
    np.testing.assert_array_equal(labels, [1.0, -1.0])


def test_kernel_file_rejects_asymmetry(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("#labels,1,-1\n1.0,0.5\n0.4,1.0\n")
    with pytest.raises(ValueError, match="symmetry"):
        load_kernel_file(path)


def test_kernel_file_parse_error_location(tmp_path):
    """Line numbers are the file's own, blank lines included."""
    path = tmp_path / "bad.csv"
    path.write_text("#labels,1,-1\n1.0,0.5\n0.5,oops\n")
    with pytest.raises(ValueError, match=r"line 3.*column 2"):
        load_kernel_file(path)
    path.write_text("#labels,1,-1\n1.0,0.5\n0.5\n")
    with pytest.raises(ValueError, match="line 3"):
        load_kernel_file(path)
    path.write_text("#labels,1,-1\n\n1.0,0.5\n\n0.5,oops\n")
    with pytest.raises(ValueError) as ei:
        load_kernel_file(path)
    assert str(ei.value) == "line 5, column 2: not a number: 'oops'"


def test_kernel_file_rejects_out_of_range(tmp_path):
    path = tmp_path / "range.csv"
    path.write_text("#labels,1,-1\n1.0,1.2\n1.2,1.0\n")
    with pytest.raises(ValueError, match="range"):
        load_kernel_file(path)


# One file per kind of violation, and one with more than six of mixed kinds.
# Each message is the one the per-entry report of earlier versions printed.
_BAD_FILES = {
    # K[0,2] is finite but its mirror is not, so the pair is no asymmetry
    "finite": ("#labels,1,-1,1\n1.0,nan,0.2\nnan,1.0,0.3\nnan,0.3,1.0\n",
               "invalid kernel: finite: K[0,1]=nan is not finite; "
               "finite: K[1,0]=nan is not finite; finite: K[2,0]=nan is not finite"),
    "symmetry": ("#labels,1,-1\n1.0,0.5\n0.4,1.0\n",
                 "invalid kernel: symmetry: K[0,1]=0.5 != K[1,0]=0.4"),
    "diagonal": ("#labels,1,-1\n0.9,0.1\n0.1,1.0\n", "invalid kernel: diagonal: K[0,0]=0.9 != 1"),
    "range": ("#labels,1,-1\n1.0,1.2\n1.2,1.0\n",
              "invalid kernel: range: K[0,1]=1.2 outside [0,1]; range: K[1,0]=1.2 outside [0,1]; "
              "psd: smallest eigenvalue -2.000e-01 < -1e-08"),
    "psd": ("#labels,1,-1,1\n1.0,0.9,0.0\n0.9,1.0,0.9\n0.0,0.9,1.0\n",
            "invalid kernel: psd: smallest eigenvalue -2.728e-01 < -1e-08"),
    "mixed": ("#labels,1,-1,1,-1\n"
              "0.5,inf,0.2,1.5\n0.1,1.0,0.3,-0.2\n0.2,0.4,2.0,0.3\n1.5,-0.2,0.3,1.0\n",
              "invalid kernel: finite: K[0,1]=inf is not finite; "
              "symmetry: K[1,2]=0.3 != K[2,1]=0.4; diagonal: K[0,0]=0.5 != 1; "
              "diagonal: K[2,2]=2.0 != 1; range: K[0,1]=inf outside [0,1]; "
              "range: K[0,3]=1.5 outside [0,1] (+4 more)"),
}


@pytest.mark.parametrize("kind", sorted(_BAD_FILES))
def test_kernel_file_violation_messages(tmp_path, kind):
    text, message = _BAD_FILES[kind]
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError) as ei:
        load_kernel_file(path)
    assert str(ei.value) == message


def test_kernel_file_rejects_bad_labels(tmp_path):
    k = rbf_kernel(np.array([[0.0, 0.0], [0.5, 0.5], [1.0, 0.0]]), gamma=0.7)
    path = tmp_path / "labels.csv"
    save_kernel_file(path, k, labels=[1.0, 0.0, -1.0])
    with pytest.raises(ValueError, match=r"\+/-1"):
        load_kernel_file(path)
    save_kernel_file(path, k, labels=[1.0, 1.0, 1.0])
    with pytest.raises(DegenerateProblemError):
        load_kernel_file(path)


@pytest.mark.parametrize("text, message", [
    ("#labels,1,-1\n1.0,0.5\n0.5,1.0\n0.5,1.0\n", "line 4: more kernel rows than the 2 labels"),
    ("#labels,1,-1,1\n1.0,0.5,0.5\n0.5,1.0,0.5\n", "2 kernel rows for 3 labels"),
    ("#labels,1,-1\n", "0 kernel rows for 2 labels"),
    ("#labels\n1.0,0.5\n0.5,1.0\n", "line 2: more kernel rows than the 0 labels"),
], ids=["extra row", "missing row", "no rows", "no labels"])
def test_kernel_file_rows_must_match_the_labels(tmp_path, text, message):
    """The #labels row alone sets n; a row past it names its line, and too
    few rows name both counts."""
    path = tmp_path / "k.csv"
    path.write_text(text)
    with pytest.raises(ValueError) as ei:
        load_kernel_file(path)
    assert str(ei.value) == message


def test_kernel_file_points_are_capped_before_any_row_is_parsed(tmp_path):
    """A #labels row past MAX_POINTS raises before the n x n array is made:
    the row after it is no number, and its parse error never shows."""
    path = tmp_path / "k.csv"
    path.write_text("#labels," + ",".join(["1", "-1"] * 1000 + ["1"]) + "\noops\n")
    with pytest.raises(ValueError) as ei:
        load_kernel_file(path)
    assert str(ei.value) == "2001 labels, more than the 2000 points a kernel file may hold"
    assert datasets.MAX_POINTS == 2000


def test_kernel_file_load_memory_stays_bounded(tmp_path):
    """Rows go straight into the kernel and the eigenvalue floor reads it, not
    a symmetrized copy: loading peaks near two n x n arrays (5.2 kernels when
    every line was held and the kernel copied)."""
    pts, y = make_blobs(BlobSpec(600, 3.0, 1.0), 5)
    kernel = rbf_kernel(pts)
    path = tmp_path / "k.csv"
    save_kernel_file(path, kernel, y)
    tracemalloc.start()
    try:
        loaded, _ = load_kernel_file(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded.tobytes() == kernel.tobytes()
    assert peak <= 2.5 * kernel.nbytes


@pytest.mark.parametrize("rows, message", [
    ("1.0,1e308\n1.7e308,1.0\n",
     "invalid kernel: symmetry: K[0,1]=1e+308 != K[1,0]=1.7e+308; "
     "range: K[0,1]=1e+308 outside [0,1]; range: K[1,0]=1.7e+308 outside [0,1]"),
    ("1.0,1.7e308\n1.7e308,1.0\n",
     "invalid kernel: range: K[0,1]=1.7e+308 outside [0,1]; "
     "range: K[1,0]=1.7e+308 outside [0,1]; psd: smallest eigenvalue -1.700e+308 < -1e-08"),
], ids=["asymmetric", "symmetric"])
def test_kernel_file_near_the_float_maximum_warns_nothing(tmp_path, rows, message):
    """Entries near the float maximum raise the kernel error and no overflow
    warning. The symmetric file's floor is read from the kernel itself, so it
    is reported; symmetrizing it once overflowed to inf and hid it."""
    path = tmp_path / "k.csv"
    path.write_text("#labels,1,-1\n" + rows)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as ei:
            load_kernel_file(path)
    assert str(ei.value) == message
