import json

import pytest

from xpviews import CapExceeded
from xpviews.cli import main
from xpviews.documents import generate_tree, print_xml, TreeGenConfig


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_and_print(capsys):
    code, out, _ = run(capsys, "parse", 'doc("L") //a [b]')
    assert code == 0 and out.strip() == 'doc("L")//a[b]'
    code, out, _ = run(capsys, "print", 'doc("L")/a&doc("L")//a')
    assert code == 0 and out.strip() == 'doc("L")/a & doc("L")//a'


def test_parse_error_exit_code(capsys):
    code, out, err = run(capsys, "parse", 'doc("L")/')
    assert code == 2 and "error" in err


def test_dialect_violation_exit_code(capsys):
    code, _, err = run(capsys, "parse", 'doc("a")/a & doc("b")/b', "--dialect", "xp")
    assert code == 2


def test_contains_and_equiv(capsys):
    code, out, _ = run(
        capsys, "contains", 'doc("L")//figure/image', 'doc("L")/lib//figure/image'
    )
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(
        capsys, "contains", 'doc("L")/lib//figure/image', 'doc("L")//figure/image'
    )
    assert code == 1 and out.strip() == "false"
    code, out, _ = run(capsys, "equiv", 'doc("L")//a[b][b]', 'doc("L")//a[b]')
    assert code == 0 and out.strip() == "true"


def test_minimize(capsys):
    code, out, _ = run(capsys, "minimize", 'doc("L")//a[b][b/c]')
    assert code == 0 and out.strip() == 'doc("L")//a[b/c]'


def test_interleave_count_and_union_free(capsys):
    expr = (
        'doc("L")/lib/paper//section//figure[caption[.//label]]/image'
        ' & doc("L")//paper//section[theorem]//figure/image'
    )
    code, out, _ = run(capsys, "interleave", expr, "--count")
    assert code == 0 and out.strip() == "7"
    code, out, _ = run(capsys, "interleave", 'doc("L")//a & doc("L")/a', "--union-free")
    assert code == 0 and out.strip() == 'doc("L")/a'
    code, out, _ = run(capsys, "union-free", 'doc("L")//x/y//o & doc("L")//y/z//o')
    assert code == 1


def test_apply_rules_trace(capsys):
    code, out, _ = run(
        capsys,
        "apply-rules",
        'doc("L")/paper//s/x & doc("L")/paper/s/x',
        "--trace",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == 'doc("L")/paper/s/x'
    steps = [json.loads(l) for l in lines[:-1]]
    assert steps and all("rule" in s and "mbnBefore" in s for s in steps)


def test_rewrite_eval_generate_roundtrip(tmp_path, capsys):
    qf = tmp_path / "q.txt"
    qf.write_text('doc("L")//paper//section[theorem]//figure/image\n')
    vf = tmp_path / "views.txt"
    vf.write_text(
        'v1 = doc("L")//paper//section\nv2 = doc("L")//section[theorem]\n'
    )
    code, out, _ = run(
        capsys, "rewrite", "--query", str(qf), "--views", str(vf), "--out", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "rewritten" and doc["plan"].endswith("//figure/image")
    assert doc["prefixIndex"] == 2
    phases = ("mappingMs", "rulesMs", "containmentMs")
    assert set(doc["timings"]) == {"rewriteMs", *phases}
    assert 0 <= sum(doc["timings"][k] for k in phases) <= doc["timings"]["rewriteMs"]
    assert doc["interleavingFallbacks"] == 0
    # v1's head is contained in v2's at the section prefix
    assert (doc["viewsMapped"], doc["pairsSeen"], doc["pairsKept"], doc["leastPairRetries"]) == (2, 2, 1, 0)
    assert doc["viewsRootMapped"] == 2
    assert (doc["candidatesExamined"], doc["witnessRefutations"]) == (1, 0)

    # negative decision exits 1
    vf2 = tmp_path / "none.txt"
    vf2.write_text('w = doc("L")//zz\n')
    code, out, _ = run(
        capsys, "rewrite", "--query", str(qf), "--views", str(vf2), "--out", "json"
    )
    assert code == 1 and json.loads(out)["status"] == "noRewriting"

    # nested mode
    code, out, _ = run(
        capsys,
        "rewrite", "--query", str(qf), "--views", str(vf), "--nested",
        "--out", "xpath",
    )
    assert code == 0 and "doc(" in out

    # eval a query over a document
    doc_path = tmp_path / "doc.xml"
    doc_path.write_text(
        "<L><lib><paper><section><theorem/><figure><image/></figure>"
        "</section></paper></lib></L>"
    )
    code, out, _ = run(
        capsys, "eval", "--doc", str(doc_path), "--query",
        'doc("L")//paper//section[theorem]//figure/image',
    )
    assert code == 0 and json.loads(out)["count"] == 1
    # an intersection of paths over two documents is the empty pattern
    code, out, _ = run(
        capsys, "eval", "--doc", str(doc_path), "--query", 'doc("L")//image & doc("M")//image',
    )
    assert code == 0 and json.loads(out) == {"count": 0, "nodes": []}

    # eval the plan over materialized views matches
    code, out, _ = run(
        capsys, "eval", "--doc", str(doc_path), "--views", str(vf),
        "--plan", doc["plan"],
    )
    assert code == 0 and json.loads(out)["count"] == 1


def test_generate_and_bench(tmp_path, capsys):
    out_dir = tmp_path / "wl"
    code, out, _ = run(
        capsys, "generate", "--seed", "1", "--size", "5", "--views", "40",
        "--out-dir", str(out_dir),
    )
    assert code == 0
    assert (out_dir / "doc.xml").exists()
    assert (out_dir / "query.txt").exists()
    lines = (out_dir / "views.txt").read_text().strip().splitlines()
    assert len(lines) == 40

    code, out, _ = run(
        capsys, "bench", "--view-sizes", "40", "--cases", "1", "--format", "json",
    )
    assert code == 0
    rows = json.loads(out)
    assert rows[0]["status"] == "rewritten"
    assert rows[0]["candidatesExamined"] >= 1 and rows[0]["pairsSeen"] >= rows[0]["pairsKept"] >= 1
    assert rows[0]["witnessRefutations"] >= 0 and rows[0]["leastPairRetries"] >= 0


def test_rewrite_all_flag(tmp_path, capsys):
    qf = tmp_path / "q.txt"
    qf.write_text('doc("L")//paper//section[theorem]//figure/image\n')
    vf = tmp_path / "views.txt"
    vf.write_text('v1 = doc("L")//paper//section\nv2 = doc("L")//section[theorem]\n')
    code, out, _ = run(
        capsys, "rewrite", "--query", str(qf), "--views", str(vf), "--all",
        "--out", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "rewritten" and len(doc["plans"]) >= 1


def test_bench_seed_env_and_config(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("REWRITER_SEED", "9")
    cfgf = tmp_path / "bench.cfg"
    cfgf.write_text("cases = 1\nview_sizes = 40\nformat = csv\n")
    code, out, _ = run(capsys, "bench", "--config", str(cfgf))
    assert code == 0
    header, row = out.strip().splitlines()[:2]
    assert "seed" in header
    assert {"viewsMapped", "viewsRootMapped", "pairsSeen", "pairsKept", "leastPairRetries", "witnessRefutations",
            "interleavingFallbacks"} <= set(header.split(","))
    assert row.startswith("9,")


def test_interleave_cap_exceeded_exit_code(capsys, monkeypatch):
    def overrun(d, cap=None):
        raise CapExceeded("more than 0 interleavings")
        yield

    monkeypatch.setattr("xpviews.cli.interleavings", overrun)
    code, _, err = run(capsys, "interleave", 'doc("L")//a & doc("L")/a', "--count")
    assert code == 2 and "cap exceeded" in err

