import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import multinv
from multinv import cli, groups, intlinalg, isotropy, obstruction
from multinv.catalog import builtin, serialize_group_definition
from multinv.cli import run
from multinv.errors import CapExceeded, InfiniteGroup, InfiniteOrderElement
from multinv.groups import DEFAULT_CAP, GLattice, block_diagonal, close

from helpers import random_unimodular, unipotent


def run_cli(argv):
    buf = io.StringIO()
    code = run(argv, buf)
    return code, buf.getvalue()


def _dense(n):
    """One dense generator of infinite order whose powers reach a trace
    beyond the rank long before two of them agree mod 3."""
    return GLattice(n, [random_unimodular(n, random.Random(0), ops=6 * n)], f"dense{n}")


class TestAnalyze:
    def test_rank3_order4_text(self):
        code, out = run_cli(["analyze", "builtin:rank3_order4", "--format", "text"])
        assert code == 0
        assert "verdict: Obstructed" in out
        assert "condition A fails at m = 0: abelianization [4], bireflection image [2]" in out

    def test_json_schema(self):
        code, out = run_cli(["analyze", "builtin:rank3_order4", "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["schema_version"] == 1
        assert doc["verdict"] == "Obstructed"
        assert doc["condition_a"] is False
        assert doc["condition_b"] is True
        top = doc["isotropy_classes"][0]
        assert top["order"] == 4
        assert top["abelianization"] == [4]
        assert top["bireflection_image"] == [2]
        assert top["witness"] == [0, 0, 0]

    def test_text_and_json_agree(self):
        _, text = run_cli(["analyze", "builtin:sym3_u3", "--format", "text"])
        _, raw = run_cli(["analyze", "builtin:sym3_u3", "--format", "json"])
        doc = json.loads(raw)
        assert f"verdict: {doc['verdict']}" in text
        assert f"group order: {doc['group_order']}" in text
        for cl in doc["isotropy_classes"]:
            assert f"order {cl['order']}:" in text

    def test_deterministic_output(self):
        first = run_cli(["analyze", "builtin:sym4_u4", "--format", "json"])
        second = run_cli(["analyze", "builtin:sym4_u4", "--format", "json"])
        assert first == second

    def test_seed_free_flag_accepted(self):
        code, _ = run_cli(["analyze", "builtin:diag_sl2", "--seed-free"])
        assert code == 0

    def test_file_input(self, tmp_path):
        path = tmp_path / "neg3.json"
        path.write_text(serialize_group_definition(builtin("rank3_order2")))
        code, out = run_cli(["analyze", str(path)])
        assert code == 0
        assert "verdict: Obstructed" in out

    def test_generator_free_high_rank_is_quick(self, tmp_path):
        # the trivial action's quotient by the whole lattice once took a Smith
        # form of the rank-600 identity: about 10 s
        path = tmp_path / "trivial600.json"
        path.write_text(json.dumps({"rank": 600, "generators": []}))
        start = time.perf_counter()
        code, out = run_cli(["analyze", str(path)])
        assert time.perf_counter() - start < 2.5
        assert code == 0
        assert "verdict: TriviallyCM" in out


class TestExitCodes:
    def test_unknown_builtin(self):
        code, out = run_cli(["analyze", "builtin:missing"])
        assert code == 2
        assert "error" in out

    def test_missing_file(self):
        code, out = run_cli(["analyze", "/nonexistent/group.json"])
        assert code == 2

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{broken")
        code, out = run_cli(["analyze", str(path)])
        assert code == 2
        assert "line 1" in out

    def test_invalid_generator_file(self, tmp_path):
        path = tmp_path / "singular.json"
        path.write_text('{"name": "s", "rank": 2, "generators": [[[2, 0], [0, 1]]]}')
        code, out = run_cli(["analyze", str(path)])
        assert code == 2

    def test_cap_exceeded(self, tmp_path):
        path = tmp_path / "shear.json"
        path.write_text('{"name": "shear", "rank": 2, "generators": [[[1, 1], [0, 1]]]}')
        code, out = run_cli(["analyze", str(path), "--cap", "50"])
        assert code == 3

    def test_infinite_group_refused_before_the_default_cap(self, tmp_path):
        path = tmp_path / "unipotent8.json"
        path.write_text(serialize_group_definition(unipotent(8)))
        code, out = run_cli(["analyze", str(path)])
        assert code == 3
        assert out == (
            "error: group is infinite (two distinct elements agree mod 3), "
            "so its closure would exceed the cap of 1000000 elements\n"
        )

    def test_dense_infinite_order_generator_refused_by_its_trace(self, tmp_path):
        path = tmp_path / "dense60.json"
        path.write_text(serialize_group_definition(_dense(60)))
        code, out = run_cli(["analyze", str(path)])
        assert code == 3
        assert out == (
            "error: group is infinite (an element's trace exceeds its rank in absolute value), "
            "so its closure would exceed the cap of 1000000 elements\n"
        )

    @pytest.mark.parametrize(
        "argv, cap",
        [
            (["analyze", "builtin:sym40"], 20000),
            (["copies", "builtin:diag_sl30", "--r", "1"], 50000),
        ],
    )
    def test_oversized_builtin_refused_before_building(self, argv, cap):
        # 40! and 2^29 elements: closing up to the cap alone took seconds
        start = time.perf_counter()
        code, out = run_cli([*argv, "--cap", str(cap)])
        assert time.perf_counter() - start < 1
        assert code == 3
        assert out == f"error: group closure exceeded the cap of {cap} elements\n"

    def test_bad_arguments(self):
        code, _ = run_cli(["copies", "builtin:sym3_u3"])  # missing --r
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["copies", "builtin:sym3_u3", "--r", "0"],
            ["copies", "builtin:sym3_u3", "--r", "-2"],
            ["analyze", "builtin:sym3_u3", "--cap", "-1"],
        ],
    )
    def test_out_of_range_number_is_input_error(self, argv):
        code, out = run_cli(argv)
        assert code == 2
        assert out == ""  # argparse reports on stderr


class TestModuleEntry:
    """``python -m multinv.cli`` runs the same CLI as ``run``."""

    def run_module(self, argv):
        src = str(Path(multinv.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        return subprocess.run(
            [sys.executable, "-m", "multinv.cli", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )

    def test_output_and_exit_code(self):
        argv = ["analyze", "builtin:rank3_order4", "--format", "json"]
        proc = self.run_module(argv)
        assert proc.returncode == 0
        assert proc.stdout == run_cli(argv)[1]

    def test_error_exit_code(self):
        proc = self.run_module(["analyze", "builtin:missing"])
        assert proc.returncode == 2
        assert proc.stdout.startswith("error:")


class TestBatch:
    def test_rank3_builtins_summary(self, tmp_path):
        for name in ("rank3_order2", "rank3_order4", "rank3_order6"):
            (tmp_path / f"{name}.json").write_text(
                serialize_group_definition(builtin(name))
            )
        code, out = run_cli(["batch", str(tmp_path), "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["summary"] == {
            "obstructed": 3,
            "inconclusive": 0,
            "trivially_cm": 0,
            "errors": 0,
        }
        assert [r["file"] for r in doc["reports"]] == sorted(r["file"] for r in doc["reports"])

    def test_bad_file_counts_as_error(self, tmp_path):
        (tmp_path / "a.json").write_text(serialize_group_definition(builtin("diag_sl2")))
        (tmp_path / "b.json").write_text("{oops")
        code, out = run_cli(["batch", str(tmp_path), "--format", "json"])
        assert code == 2
        doc = json.loads(out)
        assert doc["summary"]["errors"] == 1
        assert doc["summary"]["trivially_cm"] == 1

    def test_capped_file_keeps_other_reports(self, tmp_path):
        (tmp_path / "a.json").write_text(serialize_group_definition(builtin("rank3_order2")))
        shear = [[1, 1], [0, 1]]  # infinite order
        (tmp_path / "b.json").write_text(
            '{"name": "shear", "rank": 2, "generators": [%s]}' % json.dumps(shear)
        )
        (tmp_path / "c.json").write_text(serialize_group_definition(builtin("diag_sl2")))
        code, out = run_cli(["batch", str(tmp_path), "--cap", "50", "--format", "json"])
        assert code == 3
        doc = json.loads(out)
        assert doc["summary"] == {
            "obstructed": 1,
            "inconclusive": 0,
            "trivially_cm": 1,
            "errors": 1,
        }
        assert [r["file"] for r in doc["reports"]] == ["a.json", "b.json", "c.json"]
        assert "cap of 50" in doc["reports"][1]["error"]
        assert doc["reports"][0]["verdict"] == "Obstructed"

    def test_cap_outranks_input_errors(self, tmp_path):
        (tmp_path / "a.json").write_text("{oops")
        (tmp_path / "b.json").write_text('{"name": "s", "rank": 1, "generators": [[[-1]]]}')
        code, out = run_cli(["batch", str(tmp_path), "--cap", "1"])
        assert code == 3
        assert "a.json: ERROR" in out and "b.json: ERROR" in out
        assert "errors 2" in out

    @pytest.mark.parametrize("entry", ["directory", "dangling_symlink"])
    def test_unreadable_entry_keeps_other_reports(self, entry, tmp_path):
        (tmp_path / "a.json").write_text(serialize_group_definition(builtin("rank3_order2")))
        if entry == "directory":
            (tmp_path / "b.json").mkdir()
        else:
            (tmp_path / "b.json").symlink_to(tmp_path / "missing.json")
        (tmp_path / "c.json").write_text(serialize_group_definition(builtin("diag_sl2")))
        code, out = run_cli(["batch", str(tmp_path), "--format", "json"])
        assert code == 2
        doc = json.loads(out)
        assert doc["summary"] == {
            "obstructed": 1,
            "inconclusive": 0,
            "trivially_cm": 1,
            "errors": 1,
        }
        assert [r["file"] for r in doc["reports"]] == ["a.json", "b.json", "c.json"]
        assert doc["reports"][1]["error"].startswith("cannot read: ")
        assert str(tmp_path) not in doc["reports"][1]["error"]

    def test_text_summary_line(self, tmp_path):
        (tmp_path / "neg.json").write_text(serialize_group_definition(builtin("rank3_order2")))
        code, out = run_cli(["batch", str(tmp_path)])
        assert code == 0
        assert "summary: obstructed 1, inconclusive 0, trivially-cm 0, errors 0" in out


class TestCopies:
    def test_sym3_three_copies(self):
        code, out = run_cli(["copies", "builtin:sym3_u3", "--r", "3"])
        assert code == 0
        assert "verdict: Obstructed" in out

    def test_json(self):
        code, out = run_cli(["copies", "builtin:diag_sl2", "--r", "3", "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["copies"] == 3
        assert doc["verdict"] == "Obstructed"


    @pytest.mark.parametrize(
        "name, r, cap",
        [("unipotent4", 2, 1000), ("unipotent4", 3, 1000), ("unipotent4", 3, None), ("sym6_u6", 2, 500),
         ("dense12", 3, None)],
    )
    def test_stops_where_closing_the_sum_stops(self, name, r, cap, tmp_path):
        """Closing the base refuses the sum with the exit code and message
        a closure of the sum itself gives, and for an infinite base with
        the diagonal images of the sum's pair of elements agreeing mod 3,
        or of the sum's element whose trace exceeds the rank."""
        if name.startswith("unipotent"):
            lat = unipotent(4)
        elif name.startswith("dense"):
            lat = _dense(12)
        else:
            lat = builtin(name)
        path = tmp_path / f"{name}.json"  # a file, so that the closure and not the order check refuses it
        path.write_text(serialize_group_definition(lat))
        cap_args = [] if cap is None else ["--cap", str(cap)]
        code, out = run_cli(["copies", str(path), "--r", str(r), *cap_args])
        with pytest.raises(CapExceeded) as whole:
            close(obstruction.direct_sum_copies(lat, r), cap or DEFAULT_CAP)
        assert code == 3
        assert out == f"error: {whole.value}\n"
        with pytest.raises(CapExceeded) as base:
            close(lat, cap or DEFAULT_CAP)
        assert type(base.value) is type(whole.value)
        if isinstance(whole.value, InfiniteGroup):
            assert block_diagonal([base.value.first] * r) == whole.value.first
            assert block_diagonal([base.value.second] * r) == whole.value.second
        if isinstance(whole.value, InfiniteOrderElement):
            assert block_diagonal([base.value.element] * r) == whole.value.element

    def test_closes_no_lattice_above_the_input_rank(self, monkeypatch):
        ranks = []
        real_close = obstruction.close

        def recorded(lat, cap):
            ranks.append(lat.rank)
            return real_close(lat, cap)

        monkeypatch.setattr(obstruction, "close", recorded)
        code, out = run_cli(["copies", "builtin:icosian", "--r", "3"])
        assert code == 0 and "group order: 120" in out
        assert ranks == [8]

    def test_keys_no_matrix_above_the_input_rank(self, monkeypatch):
        """With no witness to scan, the sum's report is a lift of the
        base's: no fixed key, meet or determinant sees rank 24."""
        seen = {"fixed_key": [], "rref_mod": [], "det": []}
        fixed_key, rref_mod, det = groups.FiniteMatrixGroup.fixed_key, intlinalg.rref_mod, intlinalg.IntMatrix.det

        def recorded_key(G, i):
            seen["fixed_key"].append(G.lattice.rank)
            return fixed_key(G, i)

        def recorded_rref(rows, p, base=()):
            rows = [list(row) for row in rows]
            seen["rref_mod"].append(max(map(len, [*rows, *base]), default=0))
            return rref_mod(rows, p, base)

        def recorded_det(m):
            seen["det"].append(m.rows)
            return det(m)

        monkeypatch.setattr(groups.FiniteMatrixGroup, "fixed_key", recorded_key)
        for module in (intlinalg, groups, isotropy):
            monkeypatch.setattr(module, "rref_mod", recorded_rref)
        monkeypatch.setattr(intlinalg.IntMatrix, "det", recorded_det)
        code, out = run_cli(["copies", "builtin:icosian", "--r", "3"])
        assert code == 0 and "moved rank 24" in out and "condition A fails" not in out
        assert all(seen.values())
        assert max(max(ranks) for ranks in seen.values()) == 8

    def test_witness_orders_its_rejectors_by_the_base_keys(self, monkeypatch):
        """The sum's witness scan runs at rank 12, but it orders its
        rejectors by the base's moved ranks: no key at rank 12."""
        ranks = []
        fixed_key = groups.FiniteMatrixGroup.fixed_key

        def recorded_key(G, i):
            ranks.append(G.lattice.rank)
            return fixed_key(G, i)

        monkeypatch.setattr(groups.FiniteMatrixGroup, "fixed_key", recorded_key)
        code, out = run_cli(["copies", "builtin:alt5_u5", "--r", "3", "--format", "json"])
        assert code == 0
        (witness,) = [c["witness"] for c in json.loads(out)["isotropy_classes"] if "witness" in c]
        assert len(witness) == 12
        assert set(ranks) == {5}

    @pytest.mark.parametrize("argv, built", [
        (["copies", "builtin:sym7_u7", "--r", "3"], 0),
        (["copies", "builtin:alt5_u5", "--r", "3"], 1),
    ])
    def test_builds_the_sum_group_only_for_a_witness_with_rejectors(self, argv, built, monkeypatch):
        """sym7_u7's first class failing condition A is the whole group:
        no element rejects a candidate, so its witness is 0 and the sum's
        5,040 element matrices are not built.  alt5_u5's is a proper
        subgroup, whose scan needs them."""
        calls = []
        real = obstruction.induced_group

        def recorded(G, lattice):
            calls.append(lattice.rank)
            return real(G, lattice)

        monkeypatch.setattr(obstruction, "induced_group", recorded)
        code, out = run_cli([*argv, "--format", "json"])
        assert code == 0
        (witness,) = [c["witness"] for c in json.loads(out)["isotropy_classes"] if "witness" in c]
        assert len(calls) == built
        if not built:
            assert set(witness) == {0}

    def test_forty_copies_within_budget(self):
        """The rank-320 sum of the icosian: 12.6 s while the catalog ran on
        the sum, well under a second as a lift of the base's."""
        start = time.monotonic()
        code, out = run_cli(["copies", "builtin:icosian", "--r", "40"])
        elapsed = time.monotonic() - start
        assert code == 0
        assert "input: builtin:icosian (rank 320)" in out and "order 120: moved rank 320" in out
        assert "verdict: Obstructed" in out
        assert elapsed < 3.0


class TestOrbitVerify:
    def test_diag_sl_rank2(self):
        code, out = run_cli(["orbit", "verify", "diag_sl", "--rank", "2", "--bound", "4"])
        assert code == 0
        assert "result: PASS" in out

    def test_json_certificate(self):
        code, out = run_cli(
            ["orbit", "verify", "diag_sl", "--rank", "2", "--bound", "4", "--format", "json"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"] is True
        cert = doc["certificate"]
        assert cert["bound"] == 4
        assert cert["interior_bound"] == 3
        assert cert["num_products"] == len(cert["products"])
        assert cert["covered"]

    def test_unknown_preset(self):
        code, out = run_cli(["orbit", "verify", "mystery"])
        assert code == 2

    @pytest.mark.parametrize("preset, rank, bound", [("diag_sl", 2, 0), ("alt_laurent", 5, 3)])
    def test_bound_below_support_width_is_input_error(self, preset, rank, bound):
        code, out = run_cli(["orbit", "verify", preset, "--rank", str(rank), "--bound", str(bound)])
        assert code == 2
        assert out == "error: bound is smaller than the generator support width\n"


    @pytest.mark.parametrize("cap, code", [(2, 3), (3, 3), (4, 0)])
    def test_cap_bounds_the_preset_group(self, cap, code):
        # diag_sl3 has order 4
        argv = ["orbit", "verify", "diag_sl", "--rank", "3", "--bound", "3", "--cap", str(cap)]
        assert run_cli(argv)[0] == code

    @pytest.mark.parametrize("preset", ["diag_sl", "alt_laurent"])
    def test_rank_above_the_cap_is_refused_before_building(self, preset, monkeypatch):
        # orders 2^(n-1) and n!/2 pass the default cap long before n = 100000
        def build(name):
            raise AssertionError(f"built {name}")

        monkeypatch.setattr(cli, "builtin", build)
        code, out = run_cli(["orbit", "verify", preset, "--rank", "100000", "--bound", "3"])
        assert code == 3
        assert out == "error: group closure exceeded the cap of 1000000 elements\n"


class TestWitness:
    def test_sym3(self):
        code, out = run_cli(["witness", "builtin:sym3_u3"])
        assert code == 0
        assert "witness (0, 1, 2)" in out  # trivial class witness

    def test_json(self):
        code, out = run_cli(["witness", "builtin:diag_sl2", "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        orders = [c["order"] for c in doc["isotropy_classes"]]
        assert orders == [2, 1]
        assert doc["isotropy_classes"][0]["witness"] == [0, 0]


def test_repeated_runs_byte_identical():
    for argv in (
        ["analyze", "builtin:rank3_order6", "--format", "json"],
        ["analyze", "builtin:icosian", "--format", "text"],
        ["witness", "builtin:sym4_u4", "--format", "json"],
        ["orbit", "verify", "diag_sl", "--rank", "3", "--bound", "3", "--format", "json"],
    ):
        assert run_cli(argv) == run_cli(argv)


def test_one_parser_serves_a_run_of_commands(capsys):
    """The parser is built once per process, and a usage error between two
    commands changes neither their outputs nor its own message."""
    golden = Path(__file__).resolve().parent / "golden"
    first, second = ["analyze", "builtin:sym4_u4"], ["witness", "builtin:icosian"]
    usage_error = ["copies", "builtin:sym3_u3"]  # missing --r
    cli._build_parser.cache_clear()
    with pytest.raises(SystemExit):
        cli._build_parser.__wrapped__().parse_args(usage_error)
    message = capsys.readouterr().err
    assert message.startswith("usage: multinv copies") and "--r" in message
    for argv, expected, err in [
        (first, (golden / "analyze_sym4_u4.txt").read_text(), ""),
        (usage_error, "exit 2\n", message),
        (second, (golden / "witness_icosian.txt").read_text(), ""),
        (usage_error, "exit 2\n", message),
        (first, (golden / "analyze_sym4_u4.txt").read_text(), ""),
    ]:
        json_args = [] if argv is usage_error else ["--format", "json"]
        code, out = run_cli([*argv, *json_args])
        assert f"exit {code}\n{out}" == expected
        assert capsys.readouterr().err == err
    assert cli._build_parser.cache_info().misses == 1


def test_help_exits_zero():
    code, _ = run_cli(["--help"])
    assert code == 0


def test_json_round_trips_through_schema():
    # loading and re-dumping with the same canonical settings is identity
    for argv in (
        ["analyze", "builtin:rank3_order4", "--format", "json"],
        ["witness", "builtin:diag_sl3", "--format", "json"],
        ["orbit", "verify", "diag_sl", "--rank", "2", "--bound", "4", "--format", "json"],
    ):
        _, out = run_cli(argv)
        doc = json.loads(out)
        assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == out


GOLDEN_RANK3_ORDER4 = """\
input: builtin:rank3_order4 (rank 3)
group order: 4
reduction: effective rank 3 (fixed rank 0)
isotropy classes: 3
  order 4: moved rank 3, bireflection subgroup order 2, abelianization [4], perfect no, perfect mod bireflections no, generated by bireflections no
  order 2: moved rank 2, bireflection subgroup order 2, abelianization [2], perfect no, perfect mod bireflections yes, generated by bireflections yes
  order 1: moved rank 0, bireflection subgroup order 1, abelianization [], perfect yes, perfect mod bireflections yes, generated by bireflections yes
condition A (isotropy perfect mod bireflections): FAIL
condition A fails at m = 0: abelianization [4], bireflection image [2]
condition B (trivial action or some non-perfect isotropy): PASS
verdict: Obstructed
note: a necessary condition fails: the integral multiplicative invariant ring is not Cohen-Macaulay, hence neither is the invariant ring over any Cohen-Macaulay base ring
"""


def test_golden_text_report():
    code, out = run_cli(["analyze", "builtin:rank3_order4"])
    assert code == 0
    assert out == GOLDEN_RANK3_ORDER4


def test_batch_empty_directory(tmp_path):
    code, out = run_cli(["batch", str(tmp_path), "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"] == {
        "obstructed": 0,
        "inconclusive": 0,
        "trivially_cm": 0,
        "errors": 0,
    }


def test_batch_not_a_directory(tmp_path):
    target = tmp_path / "file.json"
    target.write_text("{}")
    code, out = run_cli(["batch", str(target)])
    assert code == 2


def test_orbit_verify_alt_laurent_preset():
    code, out = run_cli(["orbit", "verify", "alt_laurent", "--rank", "3", "--bound", "4"])
    assert code == 0
    assert "result: PASS" in out
