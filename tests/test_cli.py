"""Command-line driver: flags, exit codes, machine-parsable output."""

import hashlib

import pytest

from conftest import factorial_layer_count

from qidopt.circuit import gate_list
from qidopt.cli import EXIT_CONFIG, EXIT_OK, EXIT_RESOURCE, EXIT_VERIFY_FAILED, main
from qidopt.database import load
from qidopt.qasm import parse

HEADLINE = """OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
h q[1];
cx q[0],q[1];
z q[0];
z q[1];
cx q[0],q[1];
h q[1];
"""

TABLE_ONE_D = """OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
h q[0];
h q[1];
z q[0];
cx q[0],q[1];
h q[0];
h q[1];
"""

# three adjacent CX that a database with non-adjacent pairs rewrites into
# two layers, one of them a CX on qubits 3 and 1
ADJACENT_CX = """OPENQASM 2.0;
include "qelib1.inc";
qreg q[4];
cx q[2],q[1];
cx q[3],q[2];
cx q[2],q[1];
"""

# H twice on each of 24 qubits: equal to nothing, over more qubits than a
# dense check can hold (2^24 × 2^24 unitaries)
WIDE_HH = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[24];\n' + "".join(
    f"h q[{q}];\nh q[{q}];\n" for q in range(24)
)


def keyvals(capsys):
    out = capsys.readouterr().out
    pairs = {}
    for line in out.splitlines():
        if ": " in line:
            k, v = line.split(": ", 1)
            pairs[k] = v
    return pairs


@pytest.fixture(scope="module")
def db_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("dbs") / "ihxzcx.qidb"
    rc = main(
        [
            "gen-db", "--gates", "I,H,X,Z,CX",
            "--qubits", "2", "--depth", "3", "--out", str(path),
        ]
    )
    assert rc == EXIT_OK
    return path


class TestCount:
    def test_table_nine(self, capsys):
        assert main(["count", "--qubits", "2", "--depth", "1", "--g", "3", "--t", "0"]) == EXIT_OK
        vals = keyvals(capsys)
        assert vals["layer_circuits"] == "9"
        assert vals["total_circuits"] == "9"

    def test_table_seven(self, capsys):
        assert main(["count", "--qubits", "3", "--depth", "1", "--g", "1", "--t", "1"]) == EXIT_OK
        assert keyvals(capsys)["total_circuits"] == "7"

    def test_depth_three(self, capsys):
        assert main(["count", "--qubits", "2", "--depth", "3", "--g", "4", "--t", "1"]) == EXIT_OK
        assert keyvals(capsys)["total_circuits"] == "5832"

    def test_bad_args(self):
        assert main(["count", "--qubits", "0", "--depth", "1", "--g", "1", "--t", "0"]) == EXIT_CONFIG

    def test_total_too_long_to_print_refused(self, capsys):
        # 27^5000 has 7,157 digits; 27^1e9 would take about 0.6 GB to compute
        for depth, digits in (("5000", 7157), ("1000000000", 1431363765)):
            argv = ["count", "--qubits", "2", "--depth", depth, "--g", "5", "--t", "1"]
            assert main(argv) == EXIT_CONFIG
            out, err = capsys.readouterr()
            assert out == "" and f"{digits} digits" in err

    @pytest.mark.parametrize("g", [0, 1, 2, 5])
    @pytest.mark.parametrize("t", [0, 1])
    def test_many_qubits(self, g, t, capsys):
        # a total within the limit prints in full; one past it is refused
        # before its layers are counted, a step per qubit
        for n in (1, 2, 7, 40, 10**9, 10**9 + 1):
            argv = ["count", "--qubits", str(n), "--depth", "3", "--g", str(g), "--t", str(t)]
            if n <= 40:
                per_layer = factorial_layer_count(n, g, t)
            elif t == 0 and g < 2 or g == 0 and n % 2:
                per_layer = g**n  # no pair gate, or a qubit no pair covers
            else:
                per_layer = None
            if per_layer is None or len(str(per_layer**3)) > 4300:
                assert main(argv) == EXIT_CONFIG, n
                out, err = capsys.readouterr()
                assert out == "" and "digits" in err
            else:
                assert main(argv) == EXIT_OK, n
                vals = keyvals(capsys)
                assert vals["layer_circuits"] == str(per_layer)
                assert vals["total_circuits"] == str(per_layer**3)

    def test_longest_printable_total(self, capsys):
        # 27^3004 has 4,300 digits, Python's default limit
        argv = ["count", "--qubits", "2", "--depth", "3004", "--g", "5", "--t", "1"]
        assert main(argv) == EXIT_OK
        assert keyvals(capsys)["total_circuits"] == str(27**3004)


class TestGenDb:
    def test_reports_counts(self, db_path, capsys):
        db = load(db_path)
        assert db.total_circuits == 5832

    def test_single_identity_config(self, tmp_path, capsys):
        out = tmp_path / "tiny.qidb"
        assert main(["gen-db", "--gates", "I", "--qubits", "1", "--depth", "1",
                     "--out", str(out)]) == EXIT_OK
        vals = keyvals(capsys)
        assert vals["circuits"] == "1"
        assert vals["fingerprints"] == "1"

    def test_reports_build_speed(self, tmp_path, capsys):
        out = tmp_path / "ih.qidb"
        assert main(["gen-db", "--gates", "I,H,CX", "--qubits", "2", "--depth", "2",
                     "--out", str(out)]) == EXIT_OK
        vals = keyvals(capsys)
        assert list(vals)[-2:] == ["build_s", "circuits_per_s"]
        assert float(vals["build_s"]) > 0
        assert float(vals["circuits_per_s"]) > 0

    def test_unknown_gate(self, tmp_path):
        rc = main(["gen-db", "--gates", "I,NOPE", "--qubits", "1", "--depth", "1",
                   "--out", str(tmp_path / "x.qidb")])
        assert rc == EXIT_CONFIG

    def test_resource_guard_exit(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QUANTO_MAX_CIRCUITS", "10")
        rc = main(["gen-db", "--gates", "I,H", "--qubits", "2", "--depth", "2",
                   "--out", str(tmp_path / "x.qidb")])
        assert rc == EXIT_RESOURCE

    def test_byte_guard_exit(self, tmp_path, capsys):
        # 2^40 layers of 40 qubits: refused before any layer is enumerated
        rc = main(["gen-db", "--gates", "I,H", "--qubits", "40", "--depth", "1",
                   "--out", str(tmp_path / "x.qidb")])
        assert rc == EXIT_RESOURCE
        assert "bytes at peak" in capsys.readouterr().err
        assert not (tmp_path / "x.qidb").exists()

    def test_allow_large_is_gone(self, tmp_path):
        rc = main(["gen-db", "--gates", "I,H", "--qubits", "1", "--depth", "1",
                   "--allow-large", "--out", str(tmp_path / "x.qidb")])
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize("limit", ["-1", "0", "ten"])
    def test_bad_limit_is_config_error(self, tmp_path, monkeypatch, capsys, limit):
        monkeypatch.setenv("QUANTO_MAX_CIRCUITS", limit)
        rc = main(["gen-db", "--gates", "I,H", "--qubits", "1", "--depth", "1",
                   "--out", str(tmp_path / "x.qidb")])
        assert rc == EXIT_CONFIG
        assert "error: QUANTO_MAX_CIRCUITS must be a positive integer" in capsys.readouterr().err

    def test_unwritable_out_exit(self, tmp_path, capsys):
        rc = main(["gen-db", "--gates", "I,H", "--qubits", "1", "--depth", "1",
                   "--out", str(tmp_path / "missing" / "x.qidb")])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: ")

    def test_preset_standard(self, tmp_path, capsys):
        out = tmp_path / "std.qidb"
        assert main(["gen-db", "--gates", "standard", "--qubits", "1", "--depth", "1",
                     "--out", str(out)]) == EXIT_OK
        assert keyvals(capsys)["circuits"] == "9"

    def test_determinism_across_runs(self, tmp_path):
        a, b = tmp_path / "a.qidb", tmp_path / "b.qidb"
        args = ["gen-db", "--gates", "I,H,CX", "--qubits", "2", "--depth", "2"]
        assert main(args + ["--out", str(a)]) == EXIT_OK
        assert main(args + ["--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()


class TestOptimize:
    def test_headline_circuit(self, db_path, tmp_path, capsys):
        src = tmp_path / "in.qasm"
        src.write_text(HEADLINE)
        out = tmp_path / "out.qasm"
        rc = main(["optimize", str(src), "--db", str(db_path), "--out", str(out)])
        assert rc == EXIT_OK
        vals = keyvals(capsys)
        assert vals["initial_depth"] == "5"
        assert vals["final_depth"] == "1"
        assert "x q[1];" in out.read_text()

    def test_reports_check_time_last(self, db_path, tmp_path, capsys):
        src = tmp_path / "in.qasm"
        src.write_text(HEADLINE)
        rc = main(["optimize", str(src), "--db", str(db_path),
                   "--out", str(tmp_path / "o.qasm")])
        assert rc == EXIT_OK
        vals = keyvals(capsys)
        assert list(vals) == [
            "out", "initial_depth", "final_depth", "substitutions", "cancels",
            "merges", "commutes", "iterations", "collisions_skipped", "residual", "check_s",
        ]
        assert float(vals["check_s"]) > 0

    def test_foreign_gates_reach_the_lookup(self, tmp_path, capsys):
        # t is no gate of {I,H,X,Z,CX}, so a window holding it is looked up
        # by its gates; T⁴ = Z has a determinant the database's circuits
        # have, so it is not ruled out, and it becomes z
        db = tmp_path / "n2d4.qidb"
        args = ["gen-db", "--gates", "I,H,X,Z,CX", "--qubits", "2", "--depth", "4"]
        assert main(args + ["--out", str(db)]) == EXIT_OK
        src, out = tmp_path / "t4.qasm", tmp_path / "o.qasm"
        src.write_text('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\n'
                       + "t q[0];\n" * 4 + "cx q[0],q[1];\nt q[1];\nh q[1];\n")
        capsys.readouterr()
        assert main(["optimize", str(src), "--db", str(db), "--out", str(out)]) == EXIT_OK
        vals = keyvals(capsys)
        assert (vals["substitutions"], vals["final_depth"]) == ("1", "4")
        assert "z q[0];" in out.read_text().splitlines()
        assert main(["verify", str(src), str(out)]) == EXIT_OK
        assert keyvals(capsys)["equal"] == "true"

    def test_input_left_untouched(self, db_path, tmp_path):
        src = tmp_path / "in.qasm"
        src.write_text(HEADLINE)
        before = src.read_bytes()
        main(["optimize", str(src), "--db", str(db_path), "--out", str(tmp_path / "o.qasm")])
        assert src.read_bytes() == before

    def test_already_minimal(self, db_path, tmp_path, capsys):
        src = tmp_path / "min.qasm"
        src.write_text('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\nx q[1];\n')
        rc = main(["optimize", str(src), "--db", str(db_path),
                   "--out", str(tmp_path / "o.qasm")])
        assert rc == EXIT_OK
        vals = keyvals(capsys)
        assert vals["substitutions"] == "0"
        assert vals["initial_depth"] == vals["final_depth"] == "1"

    def test_id_application_claims_no_depth(self, db_path, tmp_path, capsys):
        src = tmp_path / "id.qasm"
        src.write_text('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\nx q[1]; id q[0]; h q[0];\n')
        rc = main(["optimize", str(src), "--db", str(db_path),
                   "--out", str(tmp_path / "o.qasm")])
        assert rc == EXIT_OK
        vals = keyvals(capsys)
        assert vals["substitutions"] == "0"
        assert vals["initial_depth"] == vals["final_depth"] == "1"

    def test_tile_narrower_than_database(self, db_path, tmp_path, capsys):
        # 1×3 windows are matched padded to the database's 2×3 shape
        src = tmp_path / "narrow.qasm"
        src.write_text('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\n'
                       "h q[0];\nh q[0];\nx q[1];\nx q[1];\n")
        rc = main(["optimize", str(src), "--db", str(db_path), "--tile-qubits", "1",
                   "--out", str(tmp_path / "o.qasm")])
        assert rc == EXIT_OK
        vals = keyvals(capsys)
        assert (vals["initial_depth"], vals["final_depth"]) == ("2", "0")
        assert float(vals["residual"]) <= 1e-12

    def test_bad_input_exit(self, db_path, tmp_path):
        src = tmp_path / "bad.qasm"
        src.write_text("OPENQASM 2.0;\nqreg q[1];\nwat q[0];\n")
        assert main(["optimize", str(src), "--db", str(db_path)]) == EXIT_CONFIG

    def test_angle_beyond_float_range_exit(self, db_path, tmp_path, capsys):
        src = tmp_path / "huge.qasm"
        src.write_text(f"OPENQASM 2.0;\nqreg q[1];\nu1({'9' * 400}) q[0];\n")
        assert main(["optimize", str(src), "--db", str(db_path)]) == EXIT_CONFIG
        assert "too large" in capsys.readouterr().err

    def test_wide_remainder_refused(self, db_path, tmp_path, capsys):
        # the rules pass cancels every H·H, so input and output share no
        # gate and the dense check would span all 24 qubits: refused (exit
        # 3), naming k, and no output is written
        src, out = tmp_path / "wide.qasm", tmp_path / "out.qasm"
        src.write_text(WIDE_HH)
        rc = main(["optimize", str(src), "--db", str(db_path), "--out", str(out)])
        assert rc == EXIT_RESOURCE
        assert "k = 24 qubits" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_out_exit(self, db_path, tmp_path, capsys):
        src = tmp_path / "in.qasm"
        src.write_text(HEADLINE)
        rc = main(["optimize", str(src), "--db", str(db_path),
                   "--out", str(tmp_path / "missing" / "o.qasm")])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: ")

    def test_bad_limit_on_the_fly_is_config_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("QUANTO_MAX_CIRCUITS", "-1")
        src = tmp_path / "in.qasm"
        src.write_text(HEADLINE)
        assert main(["optimize", str(src), "--depth", "2"]) == EXIT_CONFIG
        assert "error: QUANTO_MAX_CIRCUITS" in capsys.readouterr().err

    def test_auto_detect_gate_set(self, tmp_path, capsys):
        src = tmp_path / "in.qasm"
        # output gate (Z) is among the input's own gates, so auto-detection
        # can reach the depth-1 optimum
        src.write_text(
            'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\n'
            "cz q[0],q[1];\nz q[0];\ncz q[0],q[1];\n"
        )
        rc = main(["optimize", str(src), "--depth", "3",
                   "--out", str(tmp_path / "o.qasm")])
        assert rc == EXIT_OK
        assert keyvals(capsys)["final_depth"] == "1"


def far_pairs(path):
    """The qubits of each two-qubit gate of a QASM file more than one qubit apart."""
    gates = gate_list(parse(path.read_text()))
    return [qs for qs, _ in gates if len(qs) == 2 and abs(qs[0] - qs[1]) > 1]


class TestNeighborsOnly:
    def gen_db(self, path, *flags):
        args = ["gen-db", "--gates", "I,H,CX", "--qubits", "3", "--depth", "2", *flags]
        assert main(args + ["--out", str(path)]) == EXIT_OK

    def test_on_the_fly_places_adjacent_pairs_only(self, tmp_path, capsys):
        src = tmp_path / "in.qasm"
        src.write_text(ADJACENT_CX)
        found = {}
        for flags in ([], ["--neighbors-only"]):
            out = tmp_path / f"out{len(flags)}.qasm"
            assert main(["optimize", str(src), *flags, "--out", str(out)]) == EXIT_OK
            found[tuple(flags)] = far_pairs(out)
        assert found[()] == [(3, 1)]
        assert found[("--neighbors-only",)] == []

    def test_neighbors_only_db_accepted(self, tmp_path, capsys):
        db, src, out = tmp_path / "near.qidb", tmp_path / "in.qasm", tmp_path / "out.qasm"
        self.gen_db(db, "--neighbors-only")
        src.write_text(ADJACENT_CX)
        rc = main(["optimize", str(src), "--db", str(db), "--neighbors-only", "--out", str(out)])
        assert rc == EXIT_OK
        assert far_pairs(out) == []

    def test_full_db_refused(self, tmp_path, capsys):
        db, src, out = tmp_path / "full.qidb", tmp_path / "in.qasm", tmp_path / "out.qasm"
        self.gen_db(db)
        src.write_text(ADJACENT_CX)
        capsys.readouterr()
        rc = main(["optimize", str(src), "--db", str(db), "--neighbors-only", "--out", str(out)])
        assert rc == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "--neighbors-only" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_two_qubit_full_db_accepted(self, db_path, tmp_path, capsys):
        # on two qubits every pair is adjacent: the full build is the
        # neighbours-only one under another header
        src, out = tmp_path / "in.qasm", tmp_path / "out.qasm"
        src.write_text(HEADLINE)
        rc = main(["optimize", str(src), "--db", str(db_path), "--neighbors-only", "--out", str(out)])
        assert rc == EXIT_OK
        assert keyvals(capsys)["final_depth"] == "1"


class TestVerify:
    def test_equivalent_files(self, db_path, tmp_path, capsys):
        a = tmp_path / "a.qasm"
        b = tmp_path / "b.qasm"
        a.write_text(HEADLINE)
        b.write_text('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\nx q[1];\n')
        assert main(["verify", str(a), str(b), "--tolerance", "1e-6"]) == EXIT_OK
        assert keyvals(capsys)["equal"] == "true"

    @pytest.mark.parametrize("middle, equal", [("x q[4];", "true"), ("z q[4];", "false")])
    def test_ten_qubits_wrapping_cx(self, tmp_path, capsys, middle, equal):
        head = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[10];\n'
        a = tmp_path / "a.qasm"
        b = tmp_path / "b.qasm"
        # H on both qubits reverses a CX
        a.write_text(head + "x q[4];\nh q[0];\nh q[9];\ncx q[9],q[0];\nh q[0];\nh q[9];\n")
        b.write_text(head + middle + "\ncx q[0],q[9];\n")
        rc = main(["verify", str(a), str(b)])
        assert keyvals(capsys)["equal"] == equal
        assert rc == (EXIT_OK if equal == "true" else EXIT_VERIFY_FAILED)

    def test_ten_qubits_one_gate_apart_mid_circuit(self, tmp_path, capsys):
        head = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[10];\n'
        before = "".join(f"h q[{q}];\ncx q[{q}],q[{(q + 3) % 10}];\n" for q in range(10))
        after = "".join(f"t q[{q}];\ncx q[{(q + 7) % 10}],q[{q}];\n" for q in range(10))
        a = tmp_path / "a.qasm"
        b = tmp_path / "b.qasm"
        a.write_text(head + before + "s q[6];\n" + after)
        b.write_text(head + before + "sdg q[6];\n" + after)
        assert main(["verify", str(a), str(b)]) == EXIT_VERIFY_FAILED
        assert keyvals(capsys)["equal"] == "false"

    def test_wide_remainder_refused(self, tmp_path, capsys):
        a, b = tmp_path / "a.qasm", tmp_path / "b.qasm"
        a.write_text(WIDE_HH)
        b.write_text("OPENQASM 2.0;\nqreg q[24];\n")
        assert main(["verify", str(a), str(b)]) == EXIT_RESOURCE
        captured = capsys.readouterr()
        assert "k = 24 qubits" in captured.err and "equal" not in captured.out

    def test_different_files(self, tmp_path):
        a = tmp_path / "a.qasm"
        b = tmp_path / "b.qasm"
        a.write_text("OPENQASM 2.0;\nqreg q[1];\nx q[0];\n")
        b.write_text("OPENQASM 2.0;\nqreg q[1];\nz q[0];\n")
        assert main(["verify", str(a), str(b)]) == EXIT_VERIFY_FAILED

    def test_self_comparison(self, tmp_path, capsys):
        a = tmp_path / "a.qasm"
        a.write_text("OPENQASM 2.0;\nqreg q[1];\nx q[0];\n")
        assert main(["verify", str(a), str(a)]) == EXIT_OK
        assert float(keyvals(capsys)["residual"]) == 0.0

    def test_qubit_count_mismatch(self, tmp_path, capsys):
        a = tmp_path / "a.qasm"
        b = tmp_path / "b.qasm"
        a.write_text("OPENQASM 2.0;\nqreg q[1];\nx q[0];\n")
        b.write_text("OPENQASM 2.0;\nqreg q[2];\nx q[0];\n")
        assert main(["verify", str(a), str(b)]) == EXIT_CONFIG
        assert "qubit counts differ" in capsys.readouterr().err

    def test_parse_error(self, tmp_path):
        a = tmp_path / "a.qasm"
        a.write_text("junk\n")
        b = tmp_path / "b.qasm"
        b.write_text("OPENQASM 2.0;\nqreg q[1];\n")
        assert main(["verify", str(a), str(b)]) == EXIT_CONFIG


class TestStats:
    def test_small_db_stats(self, tmp_path, capsys):
        path = tmp_path / "tiny.qidb"
        main(["gen-db", "--gates", "I,H", "--qubits", "1", "--depth", "2",
              "--out", str(path)])
        capsys.readouterr()
        assert main(["stats", str(path)]) == EXIT_OK
        vals = keyvals(capsys)
        # brute force: I·I = H·H = I and I·H = H·I = H, so two buckets of two
        assert vals["circuits"] == "4"
        assert vals["buckets"] == "2"
        assert vals["largest_bucket"] == "2"
        assert "==" in vals["example_identity"]

    def test_missing_file(self, tmp_path):
        assert main(["stats", str(tmp_path / "nope.qidb")]) == EXIT_CONFIG

    def test_empty_bucket_exit(self, tmp_path, capsys):
        path = tmp_path / "tiny.qidb"
        main(["gen-db", "--gates", "I,H", "--qubits", "1", "--depth", "2",
              "--out", str(path)])
        text = path.read_text()
        # a bucket of no members, the body checksum recomputed to match
        head, end = text.rsplit("END ", 1)
        head += "FP " + "00" * 16 + " 0\n"
        body = head[head.index("FP "):]
        path.write_text(f"{head}END {end.split(' ')[0]} {hashlib.md5(body.encode()).hexdigest()}\n")
        capsys.readouterr()
        assert main(["stats", str(path)]) == EXIT_CONFIG
        assert "bucket size: 0" in capsys.readouterr().err

    def test_stable_output(self, tmp_path, capsys):
        path = tmp_path / "tiny.qidb"
        main(["gen-db", "--gates", "I,H", "--qubits", "1", "--depth", "2",
              "--out", str(path)])
        capsys.readouterr()
        main(["stats", str(path)])
        first = capsys.readouterr().out
        main(["stats", str(path)])
        second = capsys.readouterr().out
        assert first == second
