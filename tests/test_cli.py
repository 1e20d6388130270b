import json
import os
import platform
import re
import shlex

import pytest

from k3pencil import __version__, cli, lattice, series
from k3pencil.claims import CLAIMS, FLAGGED_CHECKS
from k3pencil.cli import CHECKS, build_parser, main
from k3pencil.singular import DEFAULT_JET_ORDER

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _report(capsys, argv):
    code = main(argv)
    return code, json.loads(capsys.readouterr().out)


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


def test_flagged_statuses(capsys):
    _, report = _report(capsys, ["series", "--op", "domb"])
    by_id = {c["check_id"]: c for c in report["checks"]}
    assert by_id["domb-stated-operator"]["status"] == "flagged"
    assert by_id["domb-corrected-operator"]["status"] == "pass"
    assert by_id["domb-stated-operator"]["details"]["predicted_b2"] == "825/8"


def test_identities_only_filter(capsys):
    _, report = _report(capsys, ["identities", "--only", "symmetry-group-48"])
    assert [c["check_id"] for c in report["checks"]] == ["symmetry-group-48"]


def test_only_computes_just_the_named_identity(monkeypatch, capsys):
    def boom():
        raise RuntimeError("must not run")

    monkeypatch.setattr(cli, "remarkable_identity_check", boom)
    code, report = _report(capsys, ["identities", "--only", "symmetry-group-48"])
    assert code == 0
    assert [c["status"] for c in report["checks"]] == ["pass"]


def test_raising_check_becomes_fail_record(monkeypatch, capsys):
    def boom(*args):
        raise RuntimeError("boom")

    # comb is used by domb-sequence only among the domb checks
    monkeypatch.setattr(cli, "comb", boom)
    code = main(["series", "--op", "domb"])
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert code == 1
    by_id = {c["check_id"]: c for c in report["checks"]}
    assert list(by_id) == ["domb-sequence", "domb-stated-operator", "domb-corrected-operator"]
    assert by_id["domb-sequence"]["status"] == "fail"
    assert by_id["domb-sequence"]["details"] == {"error": "RuntimeError: boom"}
    assert by_id["domb-stated-operator"]["status"] == "flagged"
    assert by_id["domb-corrected-operator"]["status"] == "pass"
    assert report["data"]["operator"] == "domb"
    assert "RuntimeError: boom" in captured.err


def test_sequence_terms_computed_once_per_command(monkeypatch, capsys):
    """The Run memoizes each A_n for one command only: every check and the
    data view of `series --op apery` read A_0..A_100 (apery-sequence tests
    the recurrence to 100), each computed once, and a second command
    computes them all again."""
    calls = []
    real = series.apery

    def counting(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(series, "apery", counting)
    for _ in range(2):
        calls.clear()
        assert main(["series", "--op", "apery", "--n", "60"]) == 0
        capsys.readouterr()
        assert sorted(calls) == list(range(101))


def test_check_table_matches_claims():
    ids = [check_id for _, _, check_id, _ in CHECKS]
    assert len(ids) == len(set(ids))
    assert set(ids) == set(CLAIMS)


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


def test_report_determinism(capsys):
    a = _report(capsys, ["identities"])[1]
    b = _report(capsys, ["identities"])[1]

    def strip(report):
        checks = [{k: v for k, v in c.items() if k != "runtime_ms"} for c in report["checks"]]
        return {**{k: v for k, v in report.items() if k != "header"}, "checks": checks}

    assert json.dumps(strip(a), sort_keys=True) == json.dumps(strip(b), sort_keys=True)


def test_report_header(capsys):
    _, report = _report(capsys, ["series", "--op", "apery", "--n", "5"])
    header = report["header"]
    assert list(report)[:2] == ["schema", "header"]
    assert set(header) == {"version", "python", "jet_order", "total_ms"}
    assert header["version"] == __version__
    assert header["python"] == platform.python_version()
    assert header["jet_order"] == DEFAULT_JET_ORDER
    assert isinstance(header["total_ms"], int)
    assert header["total_ms"] >= sum(c["runtime_ms"] for c in report["checks"])


# The line and w strings of the generic fibre and of s = -1, as printed when
# QQ(s)(alpha) elements were stored as a + b*alpha over QQ(s): elements of
# QQ(m) must print as the same pair.
_L4_W = "(alpha)*x^3 + ((-1)*alpha)*x^2*y + ((-1)*alpha)*x*y^2 + (alpha)*y^3"
PINNED_LINES = {
    "generic": [
        ("L1", "z", "2*x^2*y + 2*x*y^2"),
        ("L2", "-2*x + z", "2*x^3 - 2*x^2*y"),
        ("L3", "-2*y + z", "-2*x*y^2 + 2*y^3"),
        ("L4", "-x - y + z", _L4_W),
        ("L5", "-x + (s + (1)*alpha)*z", "(1/(s))*x^2*y + (-1 + (-1/(s))*alpha)*x*y^2"),
        ("L6", "-x + (s + (-1)*alpha)*z", "(1/(s))*x^2*y + (-1 + (1/(s))*alpha)*x*y^2"),
        ("L7", "-y + (s + (1)*alpha)*z", "(-1 + (-1/(s))*alpha)*x^2*y + (1/(s))*x*y^2"),
        ("L8", "-y + (s + (-1)*alpha)*z", "(-1 + (1/(s))*alpha)*x^2*y + (1/(s))*x*y^2"),
    ],
    "-1": [
        ("L1", "z", "2*x^2*y + 2*x*y^2"),
        ("L2", "-2*x + z", "2*x^3 - 2*x^2*y"),
        ("L3", "-2*y + z", "-2*x*y^2 + 2*y^3"),
        ("L4", "-x - y + z", _L4_W),
        ("L5", "-x + (-1 + (1)*alpha)*z", "-x^2*y + (-1 + (1)*alpha)*x*y^2"),
        ("L6", "-x + (-1 + (-1)*alpha)*z", "-x^2*y + (-1 + (-1)*alpha)*x*y^2"),
        ("L7", "-y + (-1 + (1)*alpha)*z", "(-1 + (1)*alpha)*x^2*y - x*y^2"),
        ("L8", "-y + (-1 + (-1)*alpha)*z", "(-1 + (-1)*alpha)*x^2*y - x*y^2"),
    ],
}


@pytest.mark.parametrize("s_value", sorted(PINNED_LINES))
def test_line_strings_pinned(s_value):
    rows = cli.lines_data(s_value)["lines"]
    assert [(r["label"], r["line"], r["w"]) for r in rows] == PINNED_LINES[s_value]


def render_markdown() -> str:
    """docs/claims.md as generated from the claim registry."""
    lines = [
        "# Verified claims",
        "",
        "Every check emitted by the `k3pencil` CLI refers to one of the",
        "claims below via its `claim_ref`.  Flagged checks record a verified",
        "inconsistency in a commonly stated form, together with the",
        "corrected form that the toolkit verifies.",
        "",
    ]
    for check_id, (ref, text) in CLAIMS.items():
        flag = " *(flagged)*" if check_id in FLAGGED_CHECKS else ""
        lines.append(f"## `{ref}`{flag}")
        lines.append("")
        lines.append(f"Check id: `{check_id}`")
        lines.append("")
        lines.append(text)
        lines.append("")
    return "\n".join(lines)


def test_every_check_has_a_claim_and_doc_is_in_sync():
    doc = open(os.path.join(HERE, "docs", "claims.md")).read()
    assert doc == render_markdown()
    for check_id, (ref, text) in CLAIMS.items():
        assert ref in doc
        assert ref.startswith("claim:")
    assert FLAGGED_CHECKS <= set(CLAIMS)


def test_parser_subcommands():
    p = build_parser()
    args = p.parse_args(["picard", "--fiber", "generic"])
    assert args.fiber == "generic"


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


# the part of stderr that locates the fault: the bad block, or the reason
LATTICE_SPEC_ERRORS = {"U + <x>": "'<x>'", "U^x + <2>": "'U^x'", "<1>": "even lattice"}


@pytest.mark.parametrize("spec", LATTICE_SPEC_ERRORS)
def test_malformed_lattice_spec_exits_2(spec, capsys):
    assert main(["lattice", "--spec", spec]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("k3pencil: error:") and not captured.out
    assert LATTICE_SPEC_ERRORS[spec] in captured.err
    if "x" in spec:
        assert "U, E8, E8(-1) or <n>" in captured.err and "^k" in captured.err


@pytest.mark.parametrize(
    "argv", [["lines", "--s", "5"], ["lines", "--s", "1/2"], ["identities", "--only", "bogus"]]
)
def test_rejects_unknown_option_value(argv, capsys):
    assert main(argv) == 2
    assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("n", ["-1", "-50", "x"])
def test_series_rejects_a_negative_or_malformed_order(n, capsys):
    assert main(["series", "--op", "apery", "--n", n]) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert "argument --n: expected a non-negative integer" in captured.err


def test_series_order_bound_in_parser(capsys):
    # parsed only: no check runs at an order above the bound
    parser = build_parser()
    assert parser.parse_args(["series", "--n", str(cli.SERIES_ORDER_MAX)]).n == cli.SERIES_ORDER_MAX
    for n in (cli.SERIES_ORDER_MAX + 1, 100000000000):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(["series", "--n", str(n)])
        assert exc.value.code == 2
        assert f"argument --n: expected an order of at most {cli.SERIES_ORDER_MAX}" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        parser.parse_args(["series", "--help"])
    assert f"0 to {cli.SERIES_ORDER_MAX}" in capsys.readouterr().out


def test_lattice_rank_bound_exits_2_before_any_gram_matrix(monkeypatch, capsys):
    # the rank is summed from the blocks alone: no Gram matrix larger than
    # one block is built
    from_rows = lattice.GramLattice.from_rows

    def guarded(rows, labels=None):
        if len(rows) > 8:
            pytest.fail("a Gram matrix was built")
        return from_rows(rows, labels)

    monkeypatch.setattr(lattice.GramLattice, "from_rows", staticmethod(guarded))
    bound = lattice.LATTICE_RANK_MAX
    for spec in ("U^100000000000 + <2>", f"<2>^{bound} + <-2>"):
        assert main(["lattice", "--spec", spec]) == 2
        captured = capsys.readouterr()
        assert f"exceeds the bound of {bound}" in captured.err and not captured.out
    with pytest.raises(SystemExit):
        build_parser().parse_args(["lattice", "--help"])
    assert f"at most {bound}" in capsys.readouterr().out
    monkeypatch.undo()
    assert lattice.standard_lattice(f"E8^{bound // 8}").dim == bound


def test_unwritable_out_exits_2_before_any_check(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_check", lambda *args: pytest.fail("a check ran"))
    target = tmp_path / "missing" / "report.json"
    assert main(["all", "--out", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("k3pencil: error:") and str(target) in captured.err
    assert not captured.out and not target.exists()


@pytest.mark.parametrize("s_value", ["1", "-1"])
def test_no_check_ran_exits_1(s_value, capsys):
    # the special fibres' line tables are data only: the report is written,
    # but a report that verified nothing does not exit 0
    assert main(["lines", "--s", s_value]) == 1
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["checks"] == []
    assert report["data"]["lines"] and report["data"]["matrix"]
    assert captured.err == "k3pencil: error: no check ran\n"


def test_readme_cli_lines_parse():
    readme = open(os.path.join(HERE, "README.md")).read()
    block = re.search(r"## CLI\n\n```sh\n(.*?)```", readme, re.S).group(1)
    lines = [line.split("#")[0] for line in block.splitlines() if line.startswith("k3pencil ")]
    assert lines
    parser = build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])
