"""Command-line surface: dispatch, JSON output, exit codes."""

import hashlib
import itertools
import json
import os
import shutil
import subprocess
import sys
import time
from math import isqrt
from pathlib import Path

import pytest

import ehrkit
from ehrkit import cli
from ehrkit.cli import main
from ehrkit.cones import decompose
from ehrkit.corpus import MONOTONE_PAIRS, corpus_dir, list_cones, list_polytopes
from ehrkit.report import Report

from helpers import cloud_cone


def corpus_file(name: str) -> str:
    return str(corpus_dir() / f"{name}.json")


def cone_file(name: str) -> str:
    return str(corpus_dir() / "cones" / f"{name}.json")


def run(capsys, *argv) -> tuple[int, dict]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_ehrhart_square(capsys):
    code, doc = run(capsys, "ehrhart", corpus_file("unit_square"))
    assert code == 0
    assert doc["period"] == 1
    assert doc["poly"] == "n^2+2n+1"
    assert doc["hstar"] == [1, 1]


def test_ehrhart_rational_constituents(capsys):
    code, doc = run(capsys, "ehrhart", corpus_file("half_segment"))
    assert code == 0
    assert doc["period"] == 2
    assert doc["poly"]["constituents"] == ["1/2n+1", "1/2n+1/2"]


def test_ehrhart_embedded_segment_off_the_lattice(capsys, tmp_path):
    # the dilates with 3 not dividing n miss the lattice: zero constituents
    doc_path = tmp_path / "segment.json"
    doc_path.write_text(json.dumps({"vertices": [["1/3", "2/3"], ["4/3", "2/3"]]}))
    code, doc = run(capsys, "ehrhart", str(doc_path))
    assert code == 0, doc
    assert doc["period"] == 3
    assert doc["poly"]["constituents"] == ["n+1", "0", "0"]
    assert doc["hstar"] == [1, 0, 0, 2]


def test_count_closed_and_interior(capsys):
    code, doc = run(capsys, "count", corpus_file("reeve_2"), "--dilate", "2")
    assert code == 0 and doc["count"] == 11
    code, doc = run(capsys, "count", corpus_file("reeve_2"), "--dilate", "2",
                    "--region", "interior")
    assert code == 0 and doc["count"] == 1


def test_count_refuses_a_dilate_over_the_estimate_limit(capsys, tmp_path, monkeypatch):
    # the unit 3-simplex at dilate 10^8 holds about 1.7e23 lattice points
    # and its walk's box about 10^16 prefixes: refused before any walk. A
    # dilate is refused only when both are over the limit: the estimate
    # n^3 / 6 is over it from dilate 844 on, the box of (n + 1)^2 prefixes
    # from dilate 10^4 on
    path = tmp_path / "simplex.json"
    path.write_text(json.dumps({"vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]}))
    walked = []
    monkeypatch.setattr(cli, "count_points", lambda *args, **kw: walked.append(args) or 0)
    code, doc = run(capsys, "count", str(path), "--dilate", "100000000")
    assert code == 1 and list(doc) == ["error"] and not walked
    assert doc["error"].startswith("dilate 100000000 holds about "
                                   "166,666,666,666,666,666,666,667 lattice points"), doc
    assert "box holds 10,000,000,200,000,001 prefixes" in doc["error"], doc
    assert str(cli.MAX_COUNT_ESTIMATE // 1000) in doc["error"].replace(",", "")
    largest = 1  # the last dilate n with n^3 / 6 within the limit
    while (largest + 1) ** 3 <= 6 * cli.MAX_COUNT_ESTIMATE:
        largest += 1
    widest = isqrt(cli.MAX_COUNT_ESTIMATE) - 1  # the last with (n + 1)^2 within it
    assert (largest, widest) == (843, 9999)
    for n in (largest, largest + 1, widest):
        assert run(capsys, "count", str(path), "--dilate", str(n)) == (0, {
            "name": "", "dilate": n, "region": "closed", "count": 0})
    assert run(capsys, "count", str(path), "--dilate", str(widest + 1))[0] == 1
    assert len(walked) == 3
    # 5,045,326 points, B4 at dilate 10, is the largest count of the tests
    assert cli.MAX_COUNT_ESTIMATE >= 10 * 5_045_326


def test_count_walks_a_dilate_whose_box_has_few_prefixes(capsys, tmp_path, monkeypatch):
    # the segment [0, 10^30] and the square [0, 10^5]^2 hold far more points
    # than the limit, but their walks read them as runs over 1 and 10^5 + 1
    # prefixes: counted, not refused
    for vertices, count in (([[0], [10**30]], 10**30 + 1),
                            ([[0, 0], [10**5, 0], [0, 10**5], [10**5, 10**5]], 10_000_200_001)):
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"vertices": vertices}))
        assert run(capsys, "count", str(path)) == (0, {
            "name": "", "dilate": 1, "region": "closed", "count": count})
    # B4 at dilate 10, 5,045,326 points, is within the limit by its estimate
    # (its box holds 11^8 prefixes); its walk is not run here
    path = tmp_path / "b4.json"
    path.write_text(json.dumps({"vertices": [[int(j == s[i]) for i in range(4) for j in range(4)]
                                             for s in itertools.permutations(range(4))]}))
    walked = []
    monkeypatch.setattr(cli, "count_points", lambda *args, **kw: walked.append(args) or 0)
    assert run(capsys, "count", str(path), "--dilate", "10")[0] == 0 and len(walked) == 1


def test_hstar_command(capsys):
    code, doc = run(capsys, "hstar", corpus_file("square_02"))
    assert code == 0
    assert doc["hstar"] == [1, 6, 1]
    assert doc["degree"] == 2 and doc["codegree"] == 1


def test_reciprocity_passes(capsys):
    code, doc = run(capsys, "reciprocity", corpus_file("octahedron"),
                    "--max-n", "4")
    assert code == 0
    assert doc["report"]["verdict"] == "pass"


def test_cone_reciprocity_passes(capsys):
    code, doc = run(capsys, "cone-reciprocity", cone_file("quadrant"),
                    "--trials", "4", "--seed", "5")
    assert code == 0
    assert doc["report"]["verdict"] == "pass"


def test_specialize(capsys):
    code, doc = run(capsys, "specialize", corpus_file("unit_square"),
                    "--x0", "1/2")
    assert code == 0
    assert doc["report"]["verdict"] == "pass"


def test_decompose_reeve(capsys):
    code, doc = run(capsys, "decompose", corpus_file("reeve_2"))
    assert code == 0
    assert doc["hstar"] == [1, 0, 1]
    assert doc["unimodular"] is False


def test_triangulate_square(capsys):
    code, doc = run(capsys, "triangulate", corpus_file("unit_square"))
    assert code == 0
    assert doc["cells"] == [[0, 1, 2], [1, 2, 3]]
    assert doc["unimodular"] is True
    assert doc["h_T"] == [1, 1]
    assert doc["normalized_volume"] == 2


def test_inequalities_scaled_square(capsys):
    code, doc = run(capsys, "inequalities", corpus_file("square_02"))
    assert code == 0
    assert doc["profile"] == {"d": 2, "s": 2, "l": 1, "hstar": [1, 6, 1]}
    assert len(doc["reports"]) == 3
    assert all(r["verdict"] in ("pass", "hypothesis-not-met")
               for r in doc["reports"])


def test_inequalities_on_a_lattice_point_pass(capsys, tmp_path):
    # a lattice point has d = 0 and no trivial Stapledon instance
    for vertices in ([[]], [[1, 2]]):
        doc_path = tmp_path / "point.json"
        doc_path.write_text(json.dumps({"vertices": vertices}))
        code, doc = run(capsys, "inequalities", str(doc_path))
        assert code == 0, doc
        assert doc["profile"] == {"d": 0, "s": 0, "l": 1, "hstar": [1]}
        stapledon = doc["reports"][1]
        assert stapledon["theorem"] == "stapledon-coefficient-runs"
        assert stapledon["verdict"] == "pass" and stapledon["instances"] == []


def test_hibi_negative_member(capsys):
    code, doc = run(capsys, "hibi", corpus_file("triangle_wide"))
    assert code == 0
    inst = doc["report"]["instances"][0]
    assert inst["lhs"] is False and inst["rhs"] is False


def test_ab_command(capsys):
    code, doc = run(capsys, "ab", corpus_file("reeve_3"))
    assert code == 0
    assert doc["a"] == [1, 1, 1, 1]
    assert doc["b"] == [1, 1]
    assert doc["b_is_zero"] is False


def test_monotonic_command(capsys):
    code, doc = run(capsys, "monotonic", corpus_file("half_segment"),
                    corpus_file("segment_01"))
    assert code == 0
    assert doc["report"]["verdict"] == "pass"


def test_semimagic_command(capsys):
    code, doc = run(capsys, "semimagic", "--n", "3", "--rmax", "7")
    assert code == 0
    assert doc["values"][:6] == [1, 6, 21, 55, 120, 231]
    assert doc["numerator"] == [1, 1, 1]


def test_wrong_document_kind(capsys):
    code, doc = run(capsys, "count", cone_file("quadrant"))
    assert code == 1
    assert "error" in doc


def test_malformed_documents_exit_1_without_traceback(tmp_path):
    src = str(Path(ehrkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    for i, doc in enumerate([{"vertices": [0, 1]}, {"vertices": 5}, {"rays": [1, 2]},
                             {"kind": "cone", "vertices": [[0], [1]]}]):
        path = tmp_path / f"doc{i}.json"
        path.write_text(json.dumps(doc))
        for command in ("count", "ehrhart"):
            proc = subprocess.run([sys.executable, "-m", "ehrkit.cli", command, str(path)],
                                  capture_output=True, text=True, env=env, timeout=60)
            assert proc.returncode == 1, (doc, command, proc.stderr)
            assert list(json.loads(proc.stdout)) == ["error"], (doc, command)
            assert "Traceback" not in proc.stderr, (doc, command, proc.stderr)


@pytest.mark.parametrize("misplaced", ["cone among polytopes", "polytope among cones"])
def test_wrong_kind_in_corpus_directory_exits_1_without_traceback(tmp_path, misplaced):
    (tmp_path / "cones").mkdir()
    shutil.copy(corpus_file("segment_01"), tmp_path)
    shutil.copy(cone_file("quadrant"), tmp_path / "cones")
    if misplaced == "cone among polytopes":
        shutil.copy(cone_file("quadrant"), tmp_path)
    else:
        shutil.copy(corpus_file("segment_01"), tmp_path / "cones")
    src = str(Path(ehrkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, EHRKIT_CORPUS=str(tmp_path))
    proc = subprocess.run([sys.executable, "-m", "ehrkit.cli", "corpus-verify", "--random", "0"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert "Traceback" not in proc.stderr, proc.stderr
    assert proc.returncode == 1
    assert list(json.loads(proc.stdout)) == ["error"]


def test_corpus_without_a_pair_member_exits_1_with_error_document(tmp_path, monkeypatch, capsys):
    (tmp_path / "cones").mkdir()
    shutil.copy(corpus_file("segment_01"), tmp_path)
    shutil.copy(cone_file("quadrant"), tmp_path / "cones")
    monkeypatch.setenv("EHRKIT_CORPUS", str(tmp_path))
    code, doc = run(capsys, "corpus-verify", "--random", "0")
    assert code == 1
    assert doc == {"error": f"no corpus polytope named {MONOTONE_PAIRS[0][0]!r}"}


def test_corpus_verify_seed_7_bytes_are_pinned():
    # a fresh interpreter per run, so that no cached result from another test
    # serves it; seed 7 and the default seed
    src = str(Path(ehrkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("EHRKIT_CORPUS", None)
    for args, md5 in [(["--seed", "7"], "9c7556014818623dd479dd0022e50cbd"),
                      ([], "6dc394ab95b78e22ad3291618ea114aa")]:
        proc = subprocess.run([sys.executable, "-m", "ehrkit.cli", "corpus-verify", *args],
                              capture_output=True, env=env, timeout=600)
        assert proc.returncode == 0, proc.stderr
        assert hashlib.md5(proc.stdout).hexdigest() == md5, args


def test_semimagic_size_four_bytes_are_pinned(capsys):
    assert main(["semimagic", "--n", "4", "--rmax", "14"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.md5(out).hexdigest() == "54cb557ba4f488eae9a508819edcd8b0"


def test_semimagic_out_of_reach_exits_1_fast_with_error_document():
    src = str(Path(ehrkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    # too many column-sum tuples at n = 4; at n = 2 one tuple per line sum,
    # but about two million report rows
    for n, rmax, reason in (("4", "400", "column-sum tuples"), ("2", "1000000", "rows")):
        start = time.monotonic()
        proc = subprocess.run([sys.executable, "-m", "ehrkit.cli", "semimagic", "--n", n,
                               "--rmax", rmax], capture_output=True, text=True, env=env,
                              timeout=60)
        elapsed = time.monotonic() - start
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr, proc.stderr
        doc = json.loads(proc.stdout)
        assert list(doc) == ["error"] and reason in doc["error"], doc
        assert elapsed < 1.0, (n, elapsed)


def test_boxes_and_evaluations_out_of_reach_exit_1_fast_with_error_document(tmp_path):
    # the segment [0, 10^30] has a box of 10^30 points, which decompose
    # refuses; the generating function of specialize refuses the span of its
    # generators, 10^30, first, and a listing of its 10^30 + 1 points is
    # refused once counted. The cones on (1, 0) and (1, 10^6) or (1, 10^4)
    # have boxes of 10^6 and 10^4 points, but need powers of z_2 up to 10^6
    # and 10^4: refused by that span before either box is listed
    src = str(Path(ehrkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    segment = tmp_path / "segment.json"
    segment.write_text(json.dumps({"kind": "polytope", "ambient_dim": 1,
                                   "vertices": [[0], [10**30]]}))
    listing = "the listing holds 1,000,000,000,000,000,000,000,000,000,001 lattice points"
    cases = [(["decompose", str(segment)], "fundamental parallelepiped"),
             (["specialize", str(segment)], "exponent span"),
             (["triangulate", str(segment), "--all-points"], listing),
             (["decompose", str(segment), "--all-points"], listing),
             (["inequalities", str(segment)], listing)]
    for top in (10**6, 10**4):
        cone = tmp_path / f"cone-{top}.json"
        cone.write_text(json.dumps({"kind": "cone", "ambient_dim": 2,
                                    "rays": [[1, 0], [1, top]]}))
        cases.append((["cone-reciprocity", str(cone)], "exponent span"))
    for argv, reason in cases:
        start = time.monotonic()
        proc = subprocess.run([sys.executable, "-m", "ehrkit.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=60)
        elapsed = time.monotonic() - start
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr, proc.stderr
        doc = json.loads(proc.stdout)
        assert list(doc) == ["error"] and reason in doc["error"], (argv, doc)
        assert elapsed < 2.0, (argv, elapsed)


def test_cone_reciprocity_bytes_on_a_cloud_cone_are_pinned(capsys, monkeypatch, tmp_path):
    # the cone over a seeded lattice cloud: 30 pieces sharing 11 generators,
    # where the corpus cones have at most a few pieces; a relative file name
    # keeps tmp_path out of the bytes
    cone = cloud_cone(0, 4, 12, 3)
    assert len(decompose(cone)) == 30 and len(cone.generators) == 11
    (tmp_path / "cloud_cone.json").write_text(json.dumps(
        {"kind": "cone", "ambient_dim": cone.ambient_dim,
         "rays": [list(g) for g in cone.generators]}))
    monkeypatch.chdir(tmp_path)
    assert main(["cone-reciprocity", "cloud_cone.json", "--trials", "10"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.md5(out).hexdigest() == "c6004307cb86a6608f1b7f7d0d48d074"


@pytest.mark.parametrize("argv", [
    ["reciprocity", "--max-n", "-3", corpus_file("unit_square")],
    ["cone-reciprocity", "--trials", "-2", cone_file("quadrant")],
    ["specialize", "--truncation", "-1", corpus_file("unit_square")],
    ["corpus-verify", "--random", "-1"],
    # reports of 10^9 rows: refused by the report-row limit before any work
    ["reciprocity", "--max-n", "1000000000", corpus_file("unit_square")],
    ["cone-reciprocity", "--trials", "1000000000", cone_file("quadrant")],
    ["specialize", "--truncation", "1000000000", corpus_file("unit_square")],
])
def test_vacuous_check_arguments_exit_1(capsys, argv):
    code, doc = run(capsys, *argv)
    assert code == 1
    assert list(doc) == ["error"]


def test_non_string_polytope_name_exits_1(tmp_path, capsys):
    path = tmp_path / "named.json"
    path.write_text(json.dumps({"vertices": [[0], [1]], "name": [1, {"a": 2}]}))
    code, doc = run(capsys, "ehrhart", str(path))
    assert code == 1
    assert list(doc) == ["error"] and "name" in doc["error"]


def test_missing_file(capsys):
    code, doc = run(capsys, "ehrhart", "/nonexistent/thing.json")
    assert code == 1
    assert "error" in doc


@pytest.mark.parametrize("content, message", [
    (b"\xff{}", "is not UTF-8 text: invalid start byte at byte 0"),
    (b"[" * 100_000 + b"]" * 100_000, ": nested too deeply"),
], ids=["not UTF-8", "nested 100,000 deep"])
def test_undecodable_documents_exit_1_with_error_document(capsys, tmp_path, content, message):
    path = tmp_path / "doc.json"
    path.write_bytes(content)
    for command in ("count", "ehrhart"):
        code, doc = run(capsys, command, str(path))
        assert code == 1
        assert list(doc) == ["error"] and doc["error"].endswith(message), doc


def test_an_integer_too_long_to_convert_exits_1_with_error_document(capsys, tmp_path):
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if not limit:
        pytest.skip("this interpreter converts integer strings of any length")
    path = tmp_path / "doc.json"
    path.write_text('{"vertices": [[' + "9" * (limit + 1) + "]]}")
    code, doc = run(capsys, "count", str(path))
    assert code == 1
    assert list(doc) == ["error"] and doc["error"].startswith(f"malformed JSON in {path}: "), doc


def test_unsupported_size_names_parameter(capsys):
    code, doc = run(capsys, "semimagic", "--n", "9")
    assert code == 1
    assert "9" in doc["error"]


def test_out_flag(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["ehrhart", corpus_file("segment_01"), "--out", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(target.read_text())
    assert doc["poly"] == "n+1"


def test_unwritable_out_path_exits_1_with_error_document(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    code, doc = run(capsys, "hstar", corpus_file("segment_01"), "--out", str(target))
    assert code == 1
    assert list(doc) == ["error"]
    assert doc["error"].startswith(f"cannot write {target}")
    assert not target.exists()


@pytest.mark.parametrize("where", ["document", "report instance"])
def test_a_value_dumps_rejects_exits_1_with_error_document(capsys, monkeypatch, tmp_path, where):
    def handler(args):
        if where == "document":
            return {"name": "x", "ratio": 0.5}, True
        return cli._with_report({"name": "x"}, Report("t", [{"lhs": 0.5, "pass": True}], "pass"))

    monkeypatch.setitem(cli.COMMANDS, "count", (handler, "", []))
    error = {"error": "cannot serialize float to JSON"}
    assert run(capsys, "count") == (1, error)
    target = tmp_path / "report.json"
    assert main(["count", "--out", str(target)]) == 1
    assert capsys.readouterr().out == ""
    assert json.loads(target.read_text()) == error


def test_seeded_commands_are_deterministic(capsys):
    code1, doc1 = run(capsys, "cone-reciprocity", cone_file("skew_3cone"),
                      "--seed", "99")
    code2, doc2 = run(capsys, "cone-reciprocity", cone_file("skew_3cone"),
                      "--seed", "99")
    assert (code1, doc1) == (code2, doc2)


def sweep_invocations() -> list[list[str]]:
    """Every subcommand over the corpus, with file names relative to
    corpus_dir() so that echoed paths do not depend on the install."""
    polytopes = [f"{name}.json" for name in list_polytopes()]
    cones = [f"cones/{name}.json" for name in list_cones()]
    runs = []
    for path in polytopes:
        runs += [["count", path], ["count", path, "--dilate", "3", "--region", "interior"]]
        runs += [[command, path] for command in ("ehrhart", "hstar", "reciprocity", "specialize",
                                                 "inequalities", "hibi", "ab")]
        for command in ("decompose", "triangulate"):
            runs += [[command, path], [command, path, "--all-points"]]
    runs += [["cone-reciprocity", path, "--trials", "3", "--seed", "5"] for path in cones]
    runs += [["monotonic", f"{inner}.json", f"{outer}.json"] for inner, outer in MONOTONE_PAIRS]
    runs.append(["semimagic", "--n", "3"])
    return runs


def test_every_subcommand_output_is_pinned(capsys, monkeypatch):
    monkeypatch.chdir(corpus_dir())
    digest = hashlib.md5()
    for argv in sweep_invocations():
        code = main(argv)
        digest.update(f"{' '.join(argv)} -> {code}\n".encode())
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == "090372c37f8f4dd86e265c406ebaae62"
