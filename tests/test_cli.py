import json
import time

import pytest

from radonlab.cli import main


def run(tmp_path, *args):
    return main(["--out-dir", str(tmp_path), *args])


def test_gauss_scan_row_count_and_summary(tmp_path):
    assert run(tmp_path, "gauss-scan", "--k", "1", "--deg", "2", "--qmax", "64") == 0
    lines = (tmp_path / "gauss-scan.csv").read_text().splitlines()
    data = [l for l in lines if l and not l.startswith("#") and not l.startswith("q,")]
    assert len(data) == 63          # q = 2..64
    assert lines[-1].startswith("# fitted_exponent=")
    assert (tmp_path / "gauss-scan-manifest.json").exists()


def test_gauss_scan_usage_error(tmp_path):
    assert run(tmp_path, "gauss-scan", "--k", "1", "--deg", "2", "--qmax", "1") == 2


def test_unknown_flag_is_usage_error(tmp_path):
    assert main(["gauss-scan", "--bogus"]) == 2


def test_determinism_byte_identical(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        assert main(["--out-dir", str(d), "--seed", "7", "weyl-verify",
                     "--deg", "2", "--N", "64", "--samples", "3"]) == 0
    assert (d1 / "weyl-verify.csv").read_bytes() == (d2 / "weyl-verify.csv").read_bytes()


def test_iw_build_json(tmp_path):
    assert run(tmp_path, "iw-build", "--N", "40", "--rho", "1.0", "--partition") == 0
    obj = json.loads((tmp_path / "denominator-set.json").read_text())
    assert obj["N"] == 40 and obj["branch"] == "product"
    audit = json.loads((tmp_path / "denominator-audit.json").read_text())
    assert audit["parts"] >= 1
    manifest = json.loads((tmp_path / "iw-build-manifest.json").read_text())
    assert manifest["config_hash"]


def test_jumps_command(tmp_path):
    field = tmp_path / "field.txt"
    field.write_text("times 1 2 3\n0 0 0 1 0 0 0\n1 1 0 0 0 1 0\n")
    assert run(tmp_path, "jumps", "--input", str(field), "--p", "2", "--r", "2") == 0
    text = (tmp_path / "jumps.csv").read_text()
    assert "jump_seminorm_p2.0=" in text


def test_jumps_rejects_invalid_path_file(tmp_path):
    field = tmp_path / "field.txt"
    for text in ("times 1 2 3\n0 0 0 nan 0 0 0\n",     # a nan sample
                 "times 1 1 3\n0 0 0 1 0 0 0\n"):       # repeated time
        field.write_text(text)
        assert run(tmp_path, "jumps", "--input", str(field)) == 2
    assert not (tmp_path / "jumps.csv").exists()


def test_radon_apply_mass_preserved(tmp_path):
    from radonlab import LatticeFunction
    delta = tmp_path / "delta.txt"
    delta.write_text("0 0 1.0 0.0\n")
    assert run(tmp_path, "radon-apply", "--flavor", "avg", "--t", "3",
               "--input", str(delta), "--k", "1", "--deg", "2") == 0
    out = LatticeFunction.from_text((tmp_path / "radon-apply.txt").read_text())
    assert abs(out.total() - 1) <= 1e-12


def test_major_arc_command(tmp_path):
    assert run(tmp_path, "major-arc", "--deg", "2", "--N", "4", "6",
               "--q", "2", "--a", "1", "1") == 0
    lines = (tmp_path / "major-arc.csv").read_text().splitlines()
    assert lines[1] == "N,q,sup_error,scale_term,ratio_leading,ratio_full"
    assert len(lines) == 4


def test_missing_input_file_is_usage(tmp_path):
    assert run(tmp_path, "jumps", "--input", str(tmp_path / "nope.txt")) == 2


def test_env_var_output_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("RADONLAB_OUT", str(tmp_path / "envout"))
    assert main(["gauss-scan", "--k", "1", "--deg", "1", "--qmax", "8"]) == 0
    assert (tmp_path / "envout" / "gauss-scan.csv").exists()


@pytest.mark.parametrize("args", [
    ["radon-apply", "--flavor", "avg", "--t", "1e400"],
    ["radon-apply", "--flavor", "singular", "--t", "inf"],
    ["radon-apply", "--flavor", "avg", "--t", "1e300"],
    ["radon-apply", "--flavor", "avg", "--t", "nan"],
    ["weyl-verify", "--N", "0", "--samples", "1"],
    ["weyl-verify", "--deg", "0", "--N", "4", "--samples", "1"],
    ["major-arc", "--q", "3", "--a", "1", "1", "--N", "4", "--theta", "1/0"],
    ["major-arc", "--q", "3", "--a", "1", "1", "--N", "2000"],   # 2.0 ** N overflows
    ["major-arc", "--q", "3", "--a", "1", "1", "--N", "-1"],     # scale below 1
])
def test_bad_numeric_input_is_usage_error(tmp_path, capsys, args):
    delta = tmp_path / "delta.txt"
    delta.write_text("0 0 1.0 0.0\n")
    if args[0] == "radon-apply":
        args = args + ["--input", str(delta)]
    assert run(tmp_path, *args) == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not list(tmp_path.glob("*-manifest.json"))


def test_gauss_scan_total_work_is_capped(tmp_path, capsys):
    # 19 numerator coordinates at k = 3: q^22 summands per q, far past the cap
    assert run(tmp_path, "gauss-scan", "--k", "3", "--deg", "3", "--qmax", "40") == 3
    assert "gauss scan total summands" in capsys.readouterr().err
    assert not (tmp_path / "gauss-scan.csv").exists()


def test_weyl_verify_needs_samples(tmp_path, capsys):
    assert run(tmp_path, "weyl-verify", "--N", "16", "--samples", "0") == 2
    assert "usage error: weyl-verify: need --samples >= 1" in capsys.readouterr().err
    assert not (tmp_path / "weyl-verify.csv").exists()


def test_iw_build_refuses_oversized_set_at_once(tmp_path, capsys):
    # Q0 alone has about 4e34 divisors, far past the member cap
    start = time.perf_counter()
    assert run(tmp_path, "iw-build", "--N", "100000", "--rho", "1.0") == 3
    assert time.perf_counter() - start < 2.0
    assert "denominator member cap" in capsys.readouterr().err
    assert not (tmp_path / "denominator-set.json").exists()


def test_iw_build_refuses_oversized_partition_at_once(tmp_path, capsys):
    # ten window primes at D = 5: about 300 separating functions times 5^5
    # exponent patterns at k = 5, far past the pattern cap
    start = time.perf_counter()
    assert run(tmp_path, "iw-build", "--N", "30", "--rho", "0.4", "--partition") == 3
    assert time.perf_counter() - start < 2.0
    assert ("partition class patterns: needs 1003630, cap is 100000"
            in capsys.readouterr().err)
    assert not (tmp_path / "denominator-partition.json").exists()


@pytest.mark.parametrize("rho, code", [("0.3", 0), ("0.01", 3)])
def test_iw_build_small_rho_ends_at_once(tmp_path, capsys, rho, code):
    # the small cutoff lies near 1.3e8 at rho = 0.3 and past 2^53 at 0.01
    start = time.perf_counter()
    assert run(tmp_path, "iw-build", "--N", "10", "--rho", rho) == code
    assert time.perf_counter() - start < 2.0
    assert ("denominator small cutoff" in capsys.readouterr().err) == (code == 3)
