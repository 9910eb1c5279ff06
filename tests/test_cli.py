import hashlib
import json
import math
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cycle4 import _sample_csv, cli, matrix, region, synthesis
from cycle4.cli import main

SRC = str(Path(__file__).resolve().parent.parent / "src")
# sha256 of `sample 100000 42`'s CSV, also checked by CI
SAMPLE_100000_42_SHA256 = "205d2b8b77af48b09f3b31afefd302e82882306c9efb1844c2dd94851610c143"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def strict_loads(out: str):
    """json.loads that rejects NaN, Infinity and -Infinity, as strict JSON
    parsers do."""
    return json.loads(out, parse_constant=_reject_constant)


def plain_csv(alphas, eigenvalues, codes) -> bytes:
    """The sample CSV of these records, rendered row by row with f-strings."""
    names = [status.value for status in region.Status]
    lines = ["index,alpha1,alpha2,alpha3,alpha4,re,im,status\n"]
    for i, row_alphas, row_lams, row_codes in zip(
        range(len(alphas)), alphas.tolist(), eigenvalues.tolist(), codes.tolist()
    ):
        prefix = f"{i}," + "".join(f"{a:.17g}," for a in row_alphas)
        for lam, k in zip(row_lams, row_codes):
            lines.append(f"{prefix}{lam.real:.17g},{lam.imag:.17g},{names[k]}\n")
    return "".join(lines).encode()


def g17_texts(values) -> list[str]:
    """What the sample writer renders for each float: its words, NULs and
    the leading comma dropped."""
    words = _sample_csv.g17_words(np.array(values, dtype=float)).astype("<u8")
    return [row.tobytes().replace(b"\0", b"")[1:].decode() for row in words]


class TestCheck:
    def test_inside(self, capsys):
        code, out = run(capsys, "check", "0.2", "0.3")
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "InsideNonreal"
        assert payload["right_check"] == pytest.approx(0.5)

    def test_outside_axis_gap(self, capsys):
        code, out = run(capsys, "check", "0", "0.05")
        assert code == 3
        assert json.loads(out)["status"] == "Outside"

    def test_real_interior(self, capsys):
        code, out = run(capsys, "check", "0.7", "0")
        assert code == 0
        assert json.loads(out)["status"] == "InsideRealInterval"

    def test_verdict_csv(self, capsys, tmp_path):
        out_path = tmp_path / "verdict.csv"
        code, _ = run(capsys, "check", "0.2", "0.3", "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "re,im,status,a_check,right_check,g_check"
        assert lines[1].split(",")[2] == "InsideNonreal"

    def test_band_flag(self, capsys):
        code, out = run(capsys, "check", "0.50000003", "0.5", "--tol-band", "1e-7")
        assert code == 0
        assert json.loads(out)["status"] == "BoundaryCR"


class TestRealize:
    def test_right_segment(self, capsys):
        code, out = run(capsys, "realize", "0.5", "0.5")
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == "BoundaryCR"
        assert payload["alpha"] == [0.5, 0.5, 0.5, 0.5]

    def test_interior(self, capsys):
        code, out = run(capsys, "realize", "0.2", "0.3")
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == "InteriorShrink"
        assert payload["residual"] < 1e-8
        assert "mu" in payload and "l" in payload

    def test_outside(self, capsys):
        for method in ("auto", "criterion"):
            code = main(["realize", "0", "0.05", "--method", method])
            captured = capsys.readouterr()
            assert code == 3
            assert strict_loads(captured.out) == strict_loads(run(capsys, "check", "0", "0.05")[1])
            assert captured.err == ""

    @pytest.mark.parametrize("method", ["auto", "criterion"])
    def test_inside_target_classified_once(self, capsys, monkeypatch, method):
        calls = []
        membership = region.membership

        def counting(*args):
            calls.append(args)
            return membership(*args)

        monkeypatch.setattr(region, "membership", counting)
        monkeypatch.setattr(synthesis, "membership", counting)
        code, out = run(capsys, "realize", "0.2", "0.3", "--method", method)
        assert code == 0
        assert "alpha" in json.loads(out)
        assert len(calls) == 1

    @pytest.mark.parametrize("method", ["auto", "criterion"])
    @pytest.mark.parametrize("re", ["2", "-1.5"])
    def test_real_outside_interval(self, capsys, re, method):
        code, out = run(capsys, "realize", "--method", method, "--", re, "0")
        assert code == 3
        assert json.loads(out)["status"] == "Outside"

    @pytest.mark.parametrize("re", ["-1.0000000005", "1.0000000005"])
    def test_real_endpoint_just_past_band(self, capsys, re):
        code, out = run(capsys, "realize", "--", re, "0")
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == "RealInterval"
        assert payload["alpha"] == [0.0, 0.0, 0.0, 0.0]
        assert payload["residual"] < 1e-8

    @pytest.mark.parametrize("method", ["auto", "criterion"])
    def test_right_segment_just_past_band(self, capsys, method):
        # 1 - a - b = -5e-10 is inside the 1e-9 band: both routes build a matrix
        code, out = run(capsys, "realize", "0.5", "0.5000000005", "--method", method)
        assert code == 0
        payload = json.loads(out)
        assert payload["alpha"] == pytest.approx([0.5] * 4, abs=1e-9)
        assert payload["residual"] < 1e-8

    def test_criterion_method(self, capsys):
        code, out = run(capsys, "realize", "0.2", "0.3", "--method", "criterion")
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == "CriterionSolver"
        assert payload["residual"] < 1e-8

    @pytest.mark.parametrize("method", ["auto", "criterion"])
    def test_residual_miss_is_a_construction_failure(self, capsys, monkeypatch, method):
        # an interior point whose construction misses a bound tighter than
        # double precision is no outside-region verdict
        monkeypatch.setattr(matrix, "_GUARD", 1e-17)
        code = main(["realize", "0.2", "0.3", "--method", method])
        assert code == 4
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("method", ["auto", "criterion"])
    @pytest.mark.parametrize("re, im", [
        pytest.param("0.0913", "5e-10", id="0.0913"),
        pytest.param("-0.5", "5e-10", id="-0.5"),
        pytest.param("0.7", "0", id="0.7-exactly-real"),
    ])
    def test_real_by_band(self, capsys, re, im, method):
        # b < band: membership calls the point real, so both routes return
        # the real-interval matrix
        code, out = run(capsys, "realize", re, im, "--method", method)
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == "RealInterval"
        assert payload["alpha"] == [0.5 + 0.5 * float(re)] * 4
        assert payload["residual"] < 1e-8

    @pytest.mark.parametrize("re, im, method", [
        pytest.param("0.0006249995111072517", "0.9993738266520683", "BoundaryCL", id="past-left-curve"),
        pytest.param("1e-12", "0.9999999995", "BoundaryCR", id="near-i"),
    ])
    def test_criterion_method_in_band_past_the_boundary(self, capsys, re, im, method):
        # just past the left curve (form -5e-10) and near i (form -1e-9),
        # inside the band: the criterion route builds the boundary matrix
        # as the auto route does
        code, out = run(capsys, "realize", re, im, "--method=criterion")
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == method
        assert payload["residual"] < 1e-8

    @pytest.mark.parametrize("method", ["auto", "criterion"])
    def test_real_by_band_defect_is_a_construction_failure(self, capsys, method):
        code = main(["realize", "0.3", "9e-8", "--tol-band", "1e-7", "--method", method])
        assert code == 4
        assert "missed the residual contract" in capsys.readouterr().err

    def test_criterion_method_on_left_curve(self, capsys):
        # degenerate case: the criterion maximum is zero on the curve and
        # the solver returns the maximising shifts themselves
        from cycle4 import left_branch_root

        lam = left_branch_root(0.3)
        code, out = run(capsys, "realize", repr(lam.real), repr(lam.imag), "--method", "criterion")
        assert code == 0
        assert json.loads(out)["residual"] < 1e-8


class TestStrictJson:
    """Constraint values that overflow print as strings, as maxPsi does
    (``TestPsi.test_unbounded``)."""

    @pytest.mark.parametrize(
        "command",
        [["check"], ["realize", "--method", "auto"], ["realize", "--method", "criterion"]],
        ids=["check", "realize-auto", "realize-criterion"],
    )
    @pytest.mark.parametrize(
        "point, g_check, right_check",
        [(("1e200", "0"), "inf", -1e200), (("0", "1e200"), "inf", -1e200), (("1e308", "1e308"), "inf", "-inf")],
        ids=["1e200-0", "0-1e200", "1e308-1e308"],
    )
    def test_overflowing_verdict(self, capsys, command, point, g_check, right_check):
        code, out = run(capsys, *command, *point)
        assert code == 3
        payload = strict_loads(out)
        assert payload["status"] == "Outside"
        assert payload["g_check"] == g_check
        assert payload["right_check"] == right_check
        assert payload["a_check"] == float(point[0])


class TestSpectrum:
    def test_known_values(self, capsys):
        code, out = run(capsys, "spectrum", "0.5", "0.5", "0.5", "0.5")
        assert code == 0
        payload = json.loads(out)
        assert payload["alpha"] == [0.5, 0.5, 0.5, 0.5]
        values = [complex(re, im) for re, im in payload["eigenvalues"]]
        for want in (0.0, 0.5 + 0.5j, 0.5 - 0.5j, 1.0):
            assert min(abs(v - want) for v in values) < 1e-10
        assert max(payload["residuals"]) < 1e-10

    def test_invalid_parameter_exits_4(self, capsys):
        code, _ = run(capsys, "spectrum", "0.5", "1.0", "0.5", "0.5")
        assert code == 4

    def test_guard_failure_exits_4(self, capsys, monkeypatch):
        # the pair's defect 3.9e-18 is the rounding floor, above a guard of 1e-30
        monkeypatch.setattr(matrix, "_GUARD", 1e-30)
        assert main(["spectrum", "0.3", "0.7", "0.1", "0.9"]) == 4
        assert capsys.readouterr().err == (
            "error: root (0.5+0.22360679774997896j) of (0.3, 0.7, 0.1, 0.9) violates the residual contract\n")


class TestSample:
    def test_small_batch(self, capsys, tmp_path):
        out_path = tmp_path / "s.csv"
        code, out = run(capsys, "sample", "25", "7", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "index,alpha1,alpha2,alpha3,alpha4,re,im,status"
        assert len(lines) == 1 + 25 * 4
        assert out.startswith("verdicts: ")

    def test_single_matrix_contains_one(self, capsys, tmp_path):
        out_path = tmp_path / "one.csv"
        code, _ = run(capsys, "sample", "1", "7", str(out_path))
        assert code == 0
        rows = out_path.read_text().splitlines()[1:]
        assert len(rows) == 4
        ones = [r for r in rows if float(r.split(",")[5]) == pytest.approx(1.0, abs=1e-9)]
        assert ones

    def test_byte_identical_reruns(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        code1, out1 = run(capsys, "sample", "200", "42", str(a))
        code2, out2 = run(capsys, "sample", "200", "42", str(b))
        assert code1 == code2 == 0
        assert out1 == out2
        assert a.read_bytes() == b.read_bytes()

    def test_round_trip_floats(self, capsys, tmp_path):
        out_path = tmp_path / "rt.csv"
        run(capsys, "sample", "10", "3", str(out_path))
        from cycle4.sampling import sample_parameters

        alphas = sample_parameters(10, 3)
        rows = out_path.read_text().splitlines()[1:]
        for row in rows:
            parts = row.split(",")
            i = int(parts[0])
            for k in range(4):
                assert float(parts[1 + k]) == alphas[i, k]

    @pytest.mark.parametrize(
        "n",
        sorted(
            {1, 255, 256, 257, 600}
            | {cli._SAMPLE_CHUNK - 1, cli._SAMPLE_CHUNK, cli._SAMPLE_CHUNK + 1, 2 * cli._SAMPLE_CHUNK + 88}
        ),
    )
    def test_bytes_match_plain_rendering(self, capsys, tmp_path, n):
        # edges of 256-row chunks and of the writer's chunk size, whatever it
        # is: a per-row f-string rendering of the same records must give the
        # same bytes
        from cycle4.sampling import sample_records

        out_path = tmp_path / "s.csv"
        code, _ = run(capsys, "sample", str(n), "5", str(out_path))
        assert code == 0
        assert out_path.read_bytes() == plain_csv(*sample_records(n, 5))
        ones = [0] * n
        for row in out_path.read_text().splitlines()[1:]:
            parts = row.split(",")
            ones[int(parts[0])] += parts[5:7] == ["1", "0"]
        assert ones == [1] * n

    def test_usage_error_leaves_cached_parser_clean(self, capsys, tmp_path):
        # main() reuses one parser; a rejected call must not change what the
        # next call parses or writes
        assert cli.build_parser() is cli.build_parser()
        alone, after = tmp_path / "alone.csv", tmp_path / "after.csv"
        code, out_alone = run(capsys, "sample", "200", "42", str(alone))
        assert code == 0
        with pytest.raises(SystemExit) as exc:
            main(["sample", "0", "1", str(tmp_path / "bad.csv")])
        assert exc.value.code == 2
        capsys.readouterr()
        code, out_after = run(capsys, "sample", "200", "42", str(after))
        assert code == 0
        assert out_after == out_alone
        assert after.read_bytes() == alone.read_bytes()
        assert not (tmp_path / "bad.csv").exists()

    def test_eigenvalues_equal_spectrum_command(self, capsys, tmp_path):
        # both commands run one spectrum kernel, so each sampled row's
        # re,im columns are the eigenvalues `spectrum` prints, bit for bit
        out_path = tmp_path / "s.csv"
        assert run(capsys, "sample", "200", "7", str(out_path))[0] == 0
        rows = [line.split(",") for line in out_path.read_text().splitlines()[1:]]
        for i in range(50):
            block = rows[4 * i:4 * i + 4]
            assert {row[0] for row in block} == {str(i)}
            code, out = run(capsys, "spectrum", *block[0][1:5])
            assert code == 0
            printed = [[re.hex(), im.hex()] for re, im in json.loads(out)["eigenvalues"]]
            assert [[float(row[5]).hex(), float(row[6]).hex()] for row in block] == printed

    def test_io_error_exit_5(self, capsys):
        code = main(["sample", "5", "1", "/nonexistent-dir/x.csv"])
        capsys.readouterr()
        assert code == 5

    def test_full_scale_batch(self, capsys, tmp_path):
        out_path = tmp_path / "big.csv"
        code, out = run(capsys, "sample", "100000", "42", str(out_path))
        assert code == 0
        assert "Outside=0" in out
        with open(out_path) as handle:
            assert sum(1 for _ in handle) == 1 + 400_000
        # pinned bytes: a deliberate numeric change updates the digest here
        # and in CI, and says so in CHANGES.md
        assert hashlib.sha256(out_path.read_bytes()).hexdigest() == SAMPLE_100000_42_SHA256

    def test_fallback_records_at_a_chunk_boundary(self, capsys, tmp_path, monkeypatch):
        # (0.5, 0.5, 0.5, 0.5 + 2^-36) has a real root of 7.3e-12, an alpha
        # of 5e-324 is a subnormal: both leave the fixed-notation fast path,
        # on either side of the first chunk boundary, and the second block
        # starts with one
        from cycle4 import sampling

        n = cli._SAMPLE_CHUNK + 2
        alphas = sampling.sample_parameters(n, 11)
        alphas[[0, cli._SAMPLE_CHUNK - 1, cli._SAMPLE_CHUNK]] = (0.5, 0.5, 0.5, 0.5 + 2.0**-36)
        alphas[[1, cli._SAMPLE_CHUNK + 1], 2] = 5e-324
        monkeypatch.setattr(sampling, "sample_parameters", lambda n, seed, start=0: alphas[start:start + n])
        monkeypatch.setattr(cli, "_SAMPLE_BLOCK", cli._SAMPLE_CHUNK + 1)
        records = sampling.sample_records(n, 0)
        assert 0.0 < abs(records[1][0, 0]) < 1e-10
        out_path = tmp_path / "s.csv"
        code, _ = run(capsys, "sample", str(n), "0", str(out_path))
        assert code == 0
        assert out_path.read_bytes() == plain_csv(*records)


    @pytest.mark.parametrize("block, n", [(300, 1001), (700, 1700), (2 * cli._SAMPLE_CHUNK, 4 * cli._SAMPLE_CHUNK + 5)])
    def test_blocks_give_the_same_output(self, capsys, tmp_path, monkeypatch, block, n):
        # n is not a multiple of the block or of the chunk, and the block
        # not always one of the chunk: bytes, verdicts and exit code must
        # equal those of one block, and the per-row rendering of all rows
        from cycle4.sampling import sample_records

        one, blocked = tmp_path / "one.csv", tmp_path / "blocked.csv"
        code, out = run(capsys, "sample", str(n), "3", str(one))
        monkeypatch.setattr(cli, "_SAMPLE_BLOCK", block)
        assert run(capsys, "sample", str(n), "3", str(blocked)) == (code, out)
        records = sample_records(n, 3)
        assert blocked.read_bytes() == one.read_bytes() == plain_csv(*records)
        counts = np.bincount(records[2].ravel(), minlength=len(region.Status))
        names = [status.value for status in region.Status]
        assert code == 0
        assert out == "verdicts: " + " ".join(f"{k}={v}" for k, v in sorted(zip(names, counts.tolist()))) + "\n"

    def test_traced_peak_flat_in_n(self, capsys, tmp_path, monkeypatch):
        # one block of rows is held at a time, so eight times the rows take
        # no more memory (the whole batch at once took about 600 bytes a row)
        monkeypatch.setattr(cli, "_SAMPLE_BLOCK", 512)
        assert run(capsys, "sample", "64", "5", str(tmp_path / "warm.csv"))[0] == 0
        peaks = []
        for n in (1024, 8192):
            tracemalloc.start()
            try:
                assert run(capsys, "sample", str(n), "5", str(tmp_path / f"{n}.csv"))[0] == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.1 * peaks[0], peaks

    @pytest.mark.parametrize(
        "point, options, code, outside",
        [
            (0.5 + 0.6j, [], 3, 1),
            (0.5 + (0.5 + 5e-8) * 1j, [], 0, 0),  # Outside at the default band only
            (0.5 + (0.5 + 1e-6) * 1j, ["--tol-band", "1e-5"], 3, 1),  # inside at 1e-5 only
        ],
        ids=["far-outside", "within-gate-band", "outside-gate-band-only"],
    )
    def test_gate_across_blocks(self, capsys, tmp_path, monkeypatch, point, options, code, outside):
        # one eigenvalue of row 450, in the second block, is moved to point;
        # the gate re-checks it at band 1e-7
        from cycle4 import sampling

        target = sampling.sample_parameters(700, 8)[450]
        solve = sampling.bulk_spectra

        def moved(alphas):
            eigenvalues = solve(alphas)
            eigenvalues[(alphas == target).all(axis=1), 2] = point
            return eigenvalues

        monkeypatch.setattr(sampling, "bulk_spectra", moved)
        monkeypatch.setattr(cli, "_SAMPLE_BLOCK", 300)
        assert main(["sample", "700", "8", str(tmp_path / "s.csv"), *options]) == code
        captured = capsys.readouterr()
        counts = dict(part.split("=") for part in captured.out.split()[1:])
        assert counts["Outside"] == str(1 - (len(options) > 0))
        assert captured.err == (f"outside at band 1e-07: {outside}\n" if outside else "")

    def test_band_moves_no_eigenvalue(self, capsys, tmp_path):
        # the pairs of rows 440, 1320, 2404 and 2717 lie within 0.01 of the
        # real axis: that band moves verdicts, never eigenvalues
        outs, columns = [], []
        for options in ([], ["--tol-band", "0.01"]):
            out_path = tmp_path / "s.csv"
            code, out = run(capsys, "sample", "3000", "42", str(out_path), *options)
            assert code == 0
            outs.append(out)
            columns.append([line.split(",")[5:7] for line in out_path.read_text().splitlines()])
        assert columns[0] == columns[1]
        assert outs[0] != outs[1]


class TestTrace:
    def test_right_segment_endpoints(self, capsys, tmp_path):
        out_path = tmp_path / "cr.csv"
        code, _ = run(capsys, "trace", "CR", "2", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "curve,param,re,im,G"
        first = lines[1].split(",")
        last = lines[2].split(",")
        assert (float(first[2]), float(first[3])) == (1.0, 0.0)
        assert (float(last[2]), float(last[3])) == (0.0, 1.0)

    def test_left_curve_on_curve(self, capsys, tmp_path):
        out_path = tmp_path / "cl.csv"
        code, _ = run(capsys, "trace", "CL", "100", str(out_path))
        assert code == 0
        rows = out_path.read_text().splitlines()[1:]
        assert len(rows) == 100
        assert max(abs(float(r.split(",")[4])) for r in rows) < 1e-9

    def test_region_with_svg(self, capsys, tmp_path):
        csv_path = tmp_path / "region.csv"
        svg_path = tmp_path / "region.svg"
        code, _ = run(capsys, "trace", "region", "50", str(csv_path), "--svg", str(svg_path))
        assert code == 0
        rows = csv_path.read_text().splitlines()[1:]
        curves = {r.split(",")[0] for r in rows}
        assert curves == {"CR", "CL", "real"}
        svg = svg_path.read_text()
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")

    def test_svg_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        run(capsys, "trace", "region", "40", str(tmp_path / "a.csv"), "--svg", str(a))
        run(capsys, "trace", "region", "40", str(tmp_path / "b.csv"), "--svg", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_svg_independent_of_curve(self, capsys, tmp_path):
        svgs = []
        for curve in ("CR", "CL", "region"):
            svg = tmp_path / f"{curve}.svg"
            run(capsys, "trace", curve, "40", str(tmp_path / f"{curve}.csv"), "--svg", str(svg))
            svgs.append(svg.read_bytes())
        assert svgs[0] == svgs[1] == svgs[2]

    @pytest.mark.parametrize(
        "curve, svg, calls",
        [("CR", False, 0), ("CR", True, 1), ("CL", False, 1), ("CL", True, 1),
         ("region", False, 1), ("region", True, 1)],
    )
    def test_left_curve_traced_at_most_once(self, capsys, tmp_path, monkeypatch, curve, svg, calls):
        traced = []
        untraced = region.trace_left_curve

        def counting(*args, **kwargs):
            traced.append(args)
            return untraced(*args, **kwargs)

        monkeypatch.setattr(region, "trace_left_curve", counting)
        extra = ["--svg", str(tmp_path / "r.svg")] if svg else []
        code, _ = run(capsys, "trace", curve, "400", str(tmp_path / "r.csv"), *extra)
        assert (code, len(traced)) == (0, calls)


def float_from_bits(bits: int) -> float:
    return struct.unpack("<d", bits.to_bytes(8, "little"))[0]


def around_powers_of_ten(low: int, high: int) -> list[float]:
    """10**k for k = low..high, and its two neighbours on either side."""
    values = []
    for k in range(low, high + 1):
        below = above = 10.0**k
        values.append(below)
        for _ in range(2):
            below, above = math.nextafter(below, 0.0), math.nextafter(above, math.inf)
            values += [below, above]
    return values


class TestG17Column:
    # the sample writer's float rendering against format(x, ".17g")
    @pytest.mark.parametrize(
        "values",
        [
            [0.0, -0.0, 1.0, -1.0, 1.0, -0.0],
            [0.1, -0.1, 0.1, 5e-324, -5e-324, 1.0000000000000002],
            [math.inf, -math.inf, math.nan, -math.nan, 0.1, -math.nan],
            [2.5, -2.5, -2.5, 2.5, 0.0, 0.0],
            [-math.nan],
            [-0.0],
            [1.0, 0.5, 0.0],
        ],
        ids=["zeros-ones", "tiny-and-0.1", "inf-nan", "opposite-signs", "negative-nan", "negative-zero", "no-sign"],
    )
    def test_matches_format(self, values):
        # %.17g differs from repr at 0.1; Python prints -0.0 as "-0" and a
        # negative NaN as "nan"
        assert f"{0.1:.17g}" != repr(0.1)
        assert f"{-math.nan:.17g}" == "nan"
        assert g17_texts(values) == [f"{x:.17g}" for x in values]

    @pytest.mark.parametrize(
        "values",
        [
            [x for v in around_powers_of_ten(-12, 16) for x in (v, -v)],
            # the last float of exponent notation, the first of fixed
            [9.9999999999999991e-05, 1e-4, -9.9999999999999991e-05, -1e-4],
            # 18 significant digits ending in 5: ties, rounded half-even
            [1 + 2.0**-17, 1 + 3 * 2.0**-17, 1 + 5 * 2.0**-17, 0.5 + 2.0**-18, 1e14 + 0.125, 1e14 + 0.375],
            # texts of 24 bytes widen the words to 4
            [-2.2250738585072014e-308, -4.9406564584124654e-324, 0.25, -1e-300, 1.7976931348623157e308],
            [9.9999999999999982, 9.9999999999999964, 10.0, 0.99999999999999989, 1.0000000000000002],
        ],
        ids=["powers-of-ten", "notation-switch", "ties", "long-texts", "near-ten-and-one"],
    )
    def test_matches_format_on_edges(self, values):
        assert g17_texts(values) == [f"{x:.17g}" for x in values]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(
        st.integers(0, 2**64 - 1).map(float_from_bits),
        st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
        st.floats(1e-4, 10.0).flatmap(lambda x: st.sampled_from([x, -x])),
    ), min_size=1, max_size=64))
    @example([-0.0, math.nan, -math.inf, 5e-324, 1 + 2.0**-17])
    def test_matches_format_on_any_floats(self, values):
        assert g17_texts(values) == [f"{x:.17g}" for x in values]


class TestG17Digits:
    # the exact digit kernel: 17 digits, rounded half-even, and the decimal
    # exponent, as format(x, ".16e") gives them
    @staticmethod
    def expected(x):
        mantissa, exponent = f"{x:.16e}".split("e")
        return int(mantissa.replace(".", "")), int(exponent)

    def check(self, values):
        digits, X = _sample_csv.g17_digits(np.array(values, dtype=float))
        assert list(zip(digits.tolist(), X.tolist())) == [self.expected(x) for x in values]

    # its domain is the writer's fixed notation, 1e-4 <= x < 10
    def test_around_powers_of_ten(self):
        self.check([x for x in around_powers_of_ten(-4, 1) if 1e-4 <= x < 10])

    def test_ties_round_half_even(self):
        # at 10**X <= x < 10**(X+1) an odd multiple of 2**(X-17) is a tie at
        # the 17th digit, both below and above even
        ties = [1 + 2.0**-17, 1 + 3 * 2.0**-17, 9 + 2.0**-17, 0.5 + 2.0**-18, 211 * 2.0**-21]
        for x in ties:
            assert len(f"{x:.30g}".replace(".", "").strip("0")) == 18
        self.check(ties)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(1e-4, 10.0, exclude_max=True), min_size=1, max_size=64))
    def test_matches_format_on_the_domain(self, values):
        self.check(values)


class TestPsi:
    def test_tight(self, capsys):
        code, out = run(capsys, "psi", "0.05", "0.1")
        assert code == 0
        payload = json.loads(out)
        assert payload["regime"] == "Tight"
        assert payload["U"] is not None
        assert payload["maxPsi"] == pytest.approx(-6.2383, abs=1e-4)

    def test_unbounded(self, capsys):
        code, out = run(capsys, "psi", "0.2", "0.3")
        assert code == 0
        payload = strict_loads(out)
        assert payload["regime"] == "Unbounded"
        assert payload["U"] is None
        assert payload["maxPsi"] == "inf"

    def test_tight_by_float_with_threshold_below_zero(self, capsys):
        # atan2 calls the regime tight, but the exact threshold T is
        # -1.09e-16: the regime is unbounded and the supremum infinite,
        # where rounded floats give a finite 35.58
        code, out = run(capsys, "psi", "0.2351677941765864", "1.3855041382024993")
        assert code == 0
        payload = json.loads(out)
        assert payload["regime"] == "Unbounded"
        assert payload["U"] is None
        assert payload["maxPsi"] == "inf"

    def test_unbounded_by_float_with_threshold_above_zero(self, capsys):
        # the float angle sum stays below 2*pi, but the exact T is positive:
        # the regime is tight, with the closed form's finite supremum
        code, out = run(capsys, "psi", "0.2425372141788141", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["regime"] == "Tight"
        assert payload["U"] == pytest.approx(payload["M"], abs=1e-15)
        assert payload["maxPsi"] == pytest.approx(41.5655, abs=1e-4)

    def test_real_input_fails(self, capsys):
        code, _ = run(capsys, "psi", "0.5", "0")
        assert code == 4

    def test_left_of_axis_names_empty_feasible_set(self, capsys):
        code = main(["psi", "-0.5", "0.1"])
        err = capsys.readouterr().err
        assert code == 4
        assert err == "error: feasible angle set of (-0.5+0.1j) is empty: Re(lam) < 0\n"

    def test_just_left_of_axis_exits_4(self, capsys):
        # 4 Arg(lam) > 2*pi by 8e-15: no float slack hides the empty set
        code = main(["psi", "-1e-15", "0.5"])
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert captured.err == "error: feasible angle set of (-1e-15+0.5j) is empty: Re(lam) < 0\n"

    def test_command_replaced_after_first_call_runs(self, capsys, monkeypatch):
        # the cached parser stores no command function: main() looks cmd_*
        # up per call, so a wrapper installed on the module later takes effect
        assert run(capsys, "psi", "0.2", "0.3")[0] == 0
        monkeypatch.setattr(cli, "cmd_psi", lambda args: 7)
        assert main(["psi", "0.2", "0.3"]) == 7

# stdout of `cycle4 verify` when every identity holds, recorded before the
# grid proof replaced the polynomial engine
VERIFY_OUTPUT = """\
I1  left boundary form as a quadratic in s = b^2                            ZeroPolynomial
I2  discriminant of the quadratic in s                                      ZeroPolynomial
I3  smaller quadratic root exceeds 3a^2 (squared comparison)                ZeroPolynomial
I4  smaller quadratic root exceeds the threshold zero (squared comparison)  ZeroPolynomial
I5  |lam|^6 - threshold factors through the left boundary form              ZeroPolynomial
I6  imaginary part of (lam^4 - 1)(conj(lam)^3 - 1)                          ZeroPolynomial
I7  triple-angle tangent, cross-multiplied                                  ZeroPolynomial
I8  triple-angle sine and cosine expansions                                 ZeroPolynomial
identities: 8/8 zero
"""


class TestVerify:
    def test_all_identities(self, capsys):
        code, out = run(capsys, "verify")
        assert code == 0
        assert out.count("ZeroPolynomial") == 8
        assert "identities: 8/8 zero" in out

    def test_output_bytes(self, capsys):
        code, out = run(capsys, "verify")
        assert code == 0
        assert out == VERIFY_OUTPUT

    def test_mutated_region_constant_fails(self, capsys, monkeypatch):
        # verify proves the region's own form: a wrong coefficient in it
        # (3a^2 for 2a^2) must fail, with the grid point that shows it
        def mutated(a, b):
            s = b * b + a * a + a
            return s * s + 3 * a * a - b * b

        monkeypatch.setattr(region, "left_boundary_form", mutated)
        code, out = run(capsys, "verify")
        assert code == 4
        failed = [line for line in out.splitlines() if "Failed(" in line]
        assert [line.split()[0] for line in failed] == ["I1", "I5"]
        assert failed[0].endswith("Failed(a=-6, b=-6, value=36)")
        assert "identities: 6/8 zero" in out


class TestUsage:
    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_bad_float_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["check", "abc", "0.3"])
        assert err.value.code == 2

    @pytest.mark.parametrize("command, option, value", [
        pytest.param("check", "--tol-band", "inf", id="--tol-band-inf"),
        pytest.param("realize", "--tol-band", "nan", id="--tol-residual-nan"),
        pytest.param("check", "--tol-band", "0", id="--tol-band-0"),
        pytest.param("check", "--tol-band", "x", id="--tol-band-x"),
    ])
    def test_bad_tolerance_exits_2(self, capsys, command, option, value):
        # an infinite band would call 0.5+0.3i BoundaryRealEndpoint
        with pytest.raises(SystemExit) as err:
            main([command, "0.5", "0.3", option, value])
        assert err.value.code == 2
        assert "expected a finite positive number" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["check 0.2 0.3", "sample 3 5 never.csv", "spectrum 0.3 0.7 0.1 0.9",
                                         "trace CL 3 never.csv", "realize 0.2 0.3"],
                             ids=["check", "sample", "spectrum", "trace", "realize"])
    def test_residual_tolerance_only_where_read(self, capsys, tmp_path, monkeypatch, command):
        # no command takes a residual bound: spectra are guarded and
        # constructions certified at the one matrix._GUARD
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as err:
            main([*command.split(), "--tol-residual", "1e-3"])
        assert err.value.code == 2
        assert "unrecognized arguments: --tol-residual" in capsys.readouterr().err
        assert not (tmp_path / "never.csv").exists()

    @pytest.mark.parametrize("command", ["spectrum 0.3 0.7 0.1 0.9", "trace CL 3 never.csv"],
                             ids=["spectrum", "trace"])
    def test_band_only_where_read(self, capsys, tmp_path, monkeypatch, command):
        # spectra snap at the kernel's own constant, and a trace prints no
        # verdict; the band is the region's, taken by the verdict commands
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as err:
            main([*command.split(), "--tol-band", "1e-9"])
        assert err.value.code == 2
        assert "unrecognized arguments: --tol-band" in capsys.readouterr().err
        assert not (tmp_path / "never.csv").exists()

    @pytest.mark.parametrize("params", [("nan", "0.5", "0.5", "0.5"), ("0.5", "0.5", "inf", "0.5"),
                                        ("0.5", "0.5", "0.5", "-inf"), ("0.5", "abc", "0.5", "0.5")])
    def test_non_finite_parameter_exits_2(self, capsys, params):
        with pytest.raises(SystemExit) as err:
            main(["spectrum", "--", *params])
        assert err.value.code == 2
        assert "expected a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["check", "realize", "psi"])
    @pytest.mark.parametrize("point", [("nan", "0.3"), ("0.3", "inf"), ("-inf", "0.3"), ("abc", "0.3")])
    def test_non_finite_point_exits_2(self, capsys, command, point):
        with pytest.raises(SystemExit) as err:
            main([command, "--", *point])
        assert err.value.code == 2
        assert "expected a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["-1", str(2**128)], ids=["negative", "too_large"])
    def test_sample_seed_out_of_range_exits_2(self, capsys, tmp_path, seed):
        out_path = tmp_path / "never.csv"
        with pytest.raises(SystemExit) as err:
            main(["sample", "3", seed, str(out_path)])
        assert err.value.code == 2
        assert "seed must be in [0, 2**128)" in capsys.readouterr().err
        assert not out_path.exists()

    def test_negative_exponent_is_a_number(self, capsys):
        # argparse's own negative-number pattern has no exponent, so "-1e-3"
        # was taken for an unknown option
        assert run(capsys, "check", "0.2", "-1e-3") == run(capsys, "check", "0.2", "-0.001")
        assert run(capsys, "realize", "0.2", "-1e-3")[0] == 0
        assert run(capsys, "realize", "-2.5E-1", "0.1")[0] == 3

    @pytest.mark.parametrize("value", ["-inf", "-nan", "-1e", "-e3"])
    def test_other_dash_words_stay_options(self, capsys, value):
        with pytest.raises(SystemExit) as err:
            main(["check", "0.2", value])
        assert err.value.code == 2
        assert "the following arguments are required: im" in capsys.readouterr().err

    def test_import_leaves_numpy_unloaded(self):
        # only the sample command needs numpy; it imports sampling lazily
        probe = "import sys, cycle4.cli; print('numpy' in sys.modules)"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                              text=True, check=True)
        assert proc.stdout.strip() == "False"

    def test_trace_needs_two_points(self):
        with pytest.raises(SystemExit) as err:
            main(["trace", "CR", "1", "x.csv"])
        assert err.value.code == 2

    def test_stdout_deterministic(self, capsys):
        outs = set()
        for _ in range(2):
            code, out = run(capsys, "check", "0.2", "0.3")
            outs.add(out)
        assert len(outs) == 1
