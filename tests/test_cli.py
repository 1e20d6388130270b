import json
import os

from k3pencil.claims import CLAIMS, FLAGGED_CHECKS, render_markdown
from k3pencil.cli import build_parser, main, run_identities, run_series


def test_usage_error_exit_2(capsys):
    assert main(["bogus-command"]) == 2
    capsys.readouterr()


def test_series_report_shape(capsys):
    code = main(["series", "--op", "apery"])
    out = capsys.readouterr().out
    report = json.loads(out)
    assert report["schema"] == "k3pencil/1"
    assert code == 0
    ids = [c["check_id"] for c in report["checks"]]
    assert "apery-annihilation" in ids
    for c in report["checks"]:
        assert set(c) == {"check_id", "claim_ref", "status", "details", "runtime_ms"}
        assert c["claim_ref"] == CLAIMS[c["check_id"]][0]


def test_flagged_statuses():
    checks = run_series("domb")
    by_id = {c["check_id"]: c for c in checks}
    assert by_id["domb-stated-operator"]["status"] == "flagged"
    assert by_id["domb-corrected-operator"]["status"] == "pass"
    assert by_id["domb-stated-operator"]["details"]["predicted_b2"] == "825/8"


def test_identities_only_filter():
    checks = run_identities(only="symmetry-group-48")
    assert [c["check_id"] for c in checks] == ["symmetry-group-48"]


def test_lattice_subcommand(capsys):
    code = main(["lattice", "--spec", "U + <12>"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["data"]["rank"] == 3
    assert out["data"]["invariant_factors"] == [12]


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["identities", "--only", "mandelstam-f2-surface", "--out", str(target)])
    capsys.readouterr()
    assert code == 0
    report = json.loads(target.read_text())
    assert report["checks"][0]["status"] == "pass"


def test_report_determinism():
    a = run_identities()
    b = run_identities()

    def strip(checks):
        return [{k: v for k, v in c.items() if k != "runtime_ms"} for c in checks]

    assert json.dumps(strip(a), sort_keys=True) == json.dumps(strip(b), sort_keys=True)


def test_every_check_has_a_claim_and_doc_is_in_sync():
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    doc = open(os.path.join(here, "docs", "claims.md")).read()
    assert doc == render_markdown()
    for check_id, (ref, text) in CLAIMS.items():
        assert ref in doc
        assert ref.startswith("claim:")
    assert FLAGGED_CHECKS <= set(CLAIMS)


def test_parser_subcommands():
    p = build_parser()
    args = p.parse_args(["picard", "--fiber", "generic", "--jobs", "2"])
    assert args.fiber == "generic" and args.jobs == 2


def test_negative_s_values_parse():
    p = build_parser()
    args = p.parse_args(["singularities", "--surface", "branch", "--s", "-1"])
    assert args.s_value == "-1"


def test_all_subcommand_exit_code_runs_quick_sections(capsys):
    # a cheap composite: series + identities sections both behave
    code = main(["identities"])
    rep = json.loads(capsys.readouterr().out)
    assert code == 0
    assert all(c["status"] == "pass" for c in rep["checks"])


def test_singularities_rejects_unknown_fibre(capsys):
    assert main(["singularities", "--surface", "branch", "--s", "7"]) == 2
    assert "invalid choice" in capsys.readouterr().err


def test_invalid_jet_order_exits_2(monkeypatch, capsys):
    for value in ("abc", "2.5", "0", "-3"):
        monkeypatch.setenv("K3PENCIL_JET_ORDER", value)
        assert main(["identities", "--only", "symmetry-group-48"]) == 2
        captured = capsys.readouterr()
        assert "K3PENCIL_JET_ORDER" in captured.err and not captured.out
