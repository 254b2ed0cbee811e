"""Command-line driver: subcommands, formats, exit codes, SVG output."""

import json
import re
from pathlib import Path

import pytest

from ihspoly.cli import main

GEOM_DIR = Path(__file__).resolve().parents[1] / "geometries"
HILB2 = str(GEOM_DIR / "hilb2.geom")
K3 = str(GEOM_DIR / "k3_rank3.geom")
RANK4 = str(GEOM_DIR / "hilb2_k3.geom")
FANO = str(GEOM_DIR / "fano_lines.geom")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "machine")
    assert err == ""
    return code, json.loads(out)


# -- success paths ---------------------------------------------------------------------


def test_decompose_text(capsys):
    code, out, err = run(capsys, "decompose", HILB2, "3*H - E")
    assert code == 0 and err == ""
    assert "positive part   3*H - 2*d" in out
    assert "negative part   0" in out
    assert "q(P)            10" in out
    assert "big             yes" in out


def test_decompose_text_negative_part(capsys):
    code, out, _ = run(capsys, "decompose", HILB2, "d")
    assert code == 0
    assert "positive part   0" in out
    assert "negative part   1/2 * E" in out
    assert "big             no" in out


def test_decompose_machine(capsys):
    code, payload = run_json(capsys, "decompose", HILB2, "3*H - E")
    assert code == 0
    assert payload["status"] == "ok"
    assert payload["command"] == "decompose"
    assert payload["geometry"] == "hilb2-quartic-model"
    assert payload["class"]["coords"] == ["3", "-2"]
    assert payload["positive"]["display"] == "3*H - 2*d"
    assert payload["negative"] == []
    assert payload["q_positive"] == "10"
    assert payload["big"] is True


def test_polygon_machine(capsys):
    code, payload = run_json(capsys, "polygon", HILB2, "H", "E")
    assert code == 0
    assert payload["nu"] == "0"
    assert payload["mu"]["display"] == "1/2"
    assert payload["area"]["display"] == "1"
    got = [(v["t"]["display"], v["y"]["display"]) for v in payload["vertices"]]
    assert got == [("0", "0"), ("1/2", "0"), ("1/2", "4")]
    assert payload["breakpoints"] == []
    assert len(payload["segments"]) == 1
    assert payload["segments"][0]["chamber"] == []


def test_polygon_trapezium_segments(capsys):
    code, payload = run_json(capsys, "polygon", HILB2, "3*H - E", "E'")
    assert code == 0
    assert payload["breakpoints"] == ["2"]
    chambers = [seg["chamber"] for seg in payload["segments"]]
    assert chambers == [[], ["E"]]
    assert payload["mu"]["display"] == "3"
    assert payload["area"]["display"] == "5"


def test_polygon_round_surd_payload(capsys):
    code, payload = run_json(capsys, "polygon", FANO, "A", "S")
    assert code == 0
    mu = payload["mu"]
    assert mu["display"] == "2-sqrt(3)"
    assert (mu["a"], mu["b"], mu["d"]) == ("2", "-1", 3)
    assert payload["area"]["display"] == "1"


def test_polygon_round_ten_digit_class(capsys):
    code, payload = run_json(capsys, "polygon", FANO, "1000000007*A + 1000000009*B", "S")
    assert code == 0
    mu = payload["mu"]
    assert (mu["a"], mu["b"], mu["d"]) == ("3000000023", "-1000000007", 3)


def test_polygon_svg(capsys, tmp_path):
    target = tmp_path / "tri.svg"
    code, out, err = run(capsys, "polygon", HILB2, "H", "E", "--svg", str(target))
    assert code == 0 and err == ""
    assert out == (
        "geometry        hilb2-quartic-model\n"
        "class           H\n"
        "flag prime      E\n"
        "nu              0\n"
        "mu              1/2\n"
        "area            1\n"
        "vertices        (0, 0)  (1/2, 0)  (1/2, 4)\n"
        "breakpoints     none\n"
        "  [0, 1/2] chamber {}: P = H + t * (-2*d)\n"
        f"svg             {target}\n"
    )
    svg = target.read_text()
    assert svg.startswith("<svg ")
    assert "<title>(1/2, 4)</title>" in svg
    assert "nu = 0, mu = 1/2, area = 1" in svg


def test_polygon_svg_of_a_point(capsys, tmp_path):
    """The zero class has the point polygon {(0, 0)}: one vertex, one
    marker, drawn as a degenerate two-point outline."""
    target = tmp_path / "point.svg"
    code, out, err = run(capsys, "polygon", HILB2, "0", "E", "--svg", str(target))
    assert code == 0 and err == ""
    assert "vertices        (0, 0)\n" in out
    svg = target.read_text()
    assert svg.count("<circle") == 1
    assert '<polygon points="40.00,40.00 40.00,40.00"' in svg
    assert "<title>(0, 0)</title>" in svg


def test_polygon_svg_exact_surd_tooltips(capsys, tmp_path):
    target = tmp_path / "round.svg"
    code, payload = run_json(
        capsys, "polygon", FANO, "A", "S", "--svg", str(target)
    )
    assert code == 0
    assert payload["svg"] == str(target)
    svg = target.read_text()
    assert "<title>(2-sqrt(3), 2*sqrt(3))</title>" in svg


def test_volume_text(capsys):
    code, out, _ = run(capsys, "volume", HILB2, "3*H - E")
    assert code == 0
    assert "volume          300" in out


def test_volume_decomposes_once(capsys, monkeypatch):
    from ihspoly import zariski

    calls = []
    real = zariski.decompose

    def counting(geom, d):
        calls.append(d)
        return real(geom, d)

    monkeypatch.setattr(zariski, "decompose", counting)  # the handler imports it per call
    code, payload = run_json(capsys, "volume", HILB2, "3*H - E")
    assert code == 0 and payload["volume"] == "300" and payload["q_positive"] == "10"
    assert len(calls) == 1


def test_restricted_volume_machine(capsys):
    code, payload = run_json(capsys, "restricted-volume", HILB2, "3*H - E", "E'")
    assert code == 0
    assert payload["restricted_volume"] == "60"


def test_minkowski_machine(capsys):
    code, payload = run_json(capsys, "minkowski", HILB2, "3*H - E", "E'")
    assert code == 0
    assert payload["nu"] == "0"
    terms = [
        (t["coefficient"], t["class"]["display"], t["origin"]) for t in payload["terms"]
    ]
    assert terms == [("2", "H - d", "chamber"), ("1", "H", "chamber")]
    assert payload["terms"][0]["chamber"] == []
    assert payload["terms"][1]["chamber"] == ["E"]


def test_minkowski_basis_text(capsys):
    code, out, _ = run(capsys, "minkowski-basis", HILB2, "E'")
    assert code == 0
    assert "basis size      2" in out
    assert "H - d" in out and "chamber {E}" in out


def test_chambers_machine(capsys):
    code, payload = run_json(capsys, "chambers", K3)
    assert code == 0
    primes = [row["primes"] for row in payload["chambers"]]
    assert primes == [[], ["A1"], ["A2"], ["Sec"], ["A1", "Sec"], ["A2", "Sec"]]
    empty = payload["chambers"][0]
    assert [r["display"] for r in empty["closure_rays"]] == [
        "f",
        "2*f + s",
        "4*f + 2*s - c",
    ]


def test_chambers_round_has_no_closures(capsys):
    code, payload = run_json(capsys, "chambers", FANO)
    assert code == 0
    assert payload["chambers"] == [{"primes": []}]


def test_cone_generators_machine(capsys):
    code, payload = run_json(capsys, "cone-generators", HILB2, "E")
    assert code == 0
    rows = {
        (tuple(g["class"]["coords"]), g["t"], g["y"]) for g in payload["generators"]
    }
    assert rows == {
        (("0", "1"), "0", "0"),
        (("0", "2"), "1", "0"),
        (("1", "-1"), "0", "0"),
        (("1", "-1"), "0", "4"),
        (("1", "0"), "0", "0"),
    }


def test_check_command_passes(capsys):
    code, out, _ = run(capsys, "check", HILB2, "--samples", "5", "--seed", "3")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out
    assert "all checks passed" in out


def test_check_machine_deterministic(capsys):
    code1, out1, _ = run(
        capsys, "check", K3, "--samples", "4", "--format", "machine"
    )
    code2, out2, _ = run(
        capsys, "check", K3, "--samples", "4", "--format", "machine"
    )
    assert code1 == code2 == 0
    assert out1 == out2  # no timing or environment fields
    payload = json.loads(out1)
    assert payload["passed"] is True
    assert len(payload["checks"]) == 10


def test_machine_output_byte_identical(capsys):
    for argv in (
        ("decompose", HILB2, "3*H - E"),
        ("polygon", FANO, "A", "S"),
        ("minkowski", RANK4, "4*f + 2*s - c", "F"),
        ("chambers", RANK4),
    ):
        _, out1, _ = run(capsys, *argv, "--format", "machine")
        _, out2, _ = run(capsys, *argv, "--format", "machine")
        assert out1 == out2


# -- failure paths -----------------------------------------------------------------------


def test_missing_file_exits_2(capsys):
    code, out, err = run(capsys, "decompose", "/no/such/catalog.geom", "H")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_invalid_json_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.geom"
    bad.write_text("not a catalog")
    code, _, err = run(capsys, "decompose", str(bad), "H")
    assert code == 2
    assert "invalid JSON" in err


def _zero_denominator_catalog() -> bytes:
    doc = json.loads(Path(HILB2).read_text())
    doc["gram"][0][0] = "2/0"
    return json.dumps(doc).encode()


@pytest.mark.parametrize(
    "content, expression, message",
    [
        (b"\xff\xfe{}", "H", "cannot read geometry file: 'utf-8' codec"),
        (_zero_denominator_catalog(), "H", "gram[0][0]: '2/0' has a zero denominator"),
        (Path(HILB2).read_bytes(), "1/0 H", "divisor term: '1/0' has a zero denominator"),
    ],
    ids=["non-utf8-catalog", "zero-denominator-catalog", "zero-denominator-term"],
)
def test_unreadable_input_exits_2_in_both_formats(capsys, tmp_path, content, expression, message):
    path = tmp_path / "input.geom"
    path.write_bytes(content)
    code, out, err = run(capsys, "decompose", str(path), expression)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err
    code, out, err = run(capsys, "decompose", str(path), expression, "--format", "machine")
    assert (code, err) == (2, "")
    payload = json.loads(out)
    assert (payload["status"], payload["code"]) == ("error", 2)
    assert message in payload["message"]


def test_bad_divisor_expression_exits_2(capsys):
    code, _, err = run(capsys, "decompose", HILB2, "3*")
    assert code == 2
    assert err.startswith("error: ")


def test_unknown_name_in_expression_exits_2(capsys):
    code, _, err = run(capsys, "volume", HILB2, "H + Z")
    assert code == 2
    assert "Z" in err


def test_machine_error_envelope_on_stdout(capsys):
    code, out, err = run(
        capsys, "decompose", HILB2, "3*", "--format", "machine"
    )
    assert code == 2
    assert err == ""
    payload = json.loads(out)
    assert payload["status"] == "error"
    assert payload["code"] == 2
    assert payload["message"]


def test_domain_error_exits_3(capsys):
    # A class outside the pseudo-effective cone has no decomposition;
    # "--" lets a leading-minus expression through the option parser.
    code, _, err = run(capsys, "decompose", HILB2, "--", "-H")
    assert code == 3
    assert "pseudo-effective" in err


def test_unknown_prime_exits_3(capsys):
    code, _, err = run(capsys, "polygon", HILB2, "H", "Q")
    assert code == 3
    assert "Q" in err


def test_restricted_volume_undefined_exits_3(capsys):
    # H - d is not big, so the restricted volume is undefined.
    code, _, err = run(capsys, "restricted-volume", HILB2, "H - d", "E")
    assert code == 3
    assert err.startswith("error: ")


def test_cone_generators_round_exits_3(capsys):
    code, _, err = run(capsys, "cone-generators", FANO, "S")
    assert code == 3
    assert "polyhedral" in err


def test_round_prime_off_eff_exits_3(capsys, tmp_path):
    doc = json.loads(Path(FANO).read_text())
    doc["primes"].append({"name": "T", "class": [-1, 0], "exceptional": False})  # q = 2
    path = tmp_path / "off_eff.geom"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "check", str(path))
    assert (code, out) == (3, "")
    assert err == "error: prime 'T' pairs to -6 <= 0 with the ample class, so it is not pseudo-effective\n"


def _elliptic_5(tmp_path):
    from ihspoly import geometry_to_json
    from families import elliptic_family

    path = tmp_path / "elliptic_5.geom"
    path.write_text(geometry_to_json(elliptic_family(5)))
    return str(path)


def test_cone_generators_on_elliptic_5_exits_0(capsys, tmp_path):
    # Mov's 33 rays, refused by the facet-subset count of an earlier engine
    code, payload = run_json(capsys, "cone-generators", _elliptic_5(tmp_path), "Sec")
    assert (code, payload["status"], len(payload["generators"])) == (0, "ok", 47)


def test_over_the_pair_limit_exits_3(capsys, monkeypatch, tmp_path):
    from ihspoly import linprog

    monkeypatch.setattr(linprog, "EXTREME_RAY_PAIR_LIMIT", 191)  # elliptic k = 5's largest cut pairs 192
    code, payload = run_json(capsys, "cone-generators", _elliptic_5(tmp_path), "Sec")
    assert (code, payload["status"]) == (3, "error")
    assert payload["message"] == ("a cut of a cone in dimension 7 pairs 16 x 12 = 192 rays, "
                                  "more than EXTREME_RAY_PAIR_LIMIT = 191")


def test_over_the_chamber_limit_exits_3(capsys, monkeypatch):
    from ihspoly import geometry

    monkeypatch.setattr(geometry, "CHAMBER_LIMIT", 10)  # hilb2_k3 has 18 chambers
    code, payload = run_json(capsys, "chambers", RANK4)
    assert (code, payload["status"]) == (3, "error")
    assert payload["message"] == ("more than CHAMBER_LIMIT = 10 chambers; "
                                  "the enumeration stopped at supports of 2 primes")


def test_check_bad_sample_count_exits_3(capsys):
    code, _, err = run(capsys, "check", HILB2, "--samples", "0")
    assert code == 3
    assert "--samples" in err


# Breaks only rule (e) of the catalog rules: the big movable ray H of
# Eff = cone(H, H + d) lies on a facet of Eff.  Nothing refuses it before
# sampling, so the self-checks must report it.
BIG_ON_A_FACET = {
    "name": "big_on_a_facet",
    "mode": "polyhedral",
    "half_dim": 2,
    "fujiki": 3,
    "basis": ["H", "d"],
    "gram": [[2, 0], [0, -2]],
    "primes": [{"name": "E", "class": [1, 1], "exceptional": False}],
    "effective_generators": [[1, 0], [1, 1]],
}


def test_check_failures_exit_4(capsys, tmp_path):
    # A catalog whose declared effective cone is smaller than the span
    # of its own primes is refused by name before any sample is drawn.
    doc = {
        "name": "pinched",
        "mode": "polyhedral",
        "half_dim": 2,
        "fujiki": 3,
        "basis": ["H", "d"],
        "gram": [[2, 0], [0, -2]],
        "primes": [
            {"name": "E", "class": [0, 2], "exceptional": True},
            {"name": "E'", "class": [1, -1], "exceptional": False},
        ],
        "effective_generators": [[1, 0]],
    }
    path = tmp_path / "pinched.geom"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "check", str(path), "--samples", "4")
    assert (code, out) == (3, "")
    assert err == "error: declared effective cone misses prime 'E'; every prime must be pseudo-effective\n"
    # A catalog that passes every rule checked so far and still breaks
    # the engine's identities fails the self-checks.
    path = tmp_path / "big_on_a_facet.geom"
    path.write_text(json.dumps(BIG_ON_A_FACET))
    code, out, err = run(capsys, "check", str(path), "--samples", "4")
    assert code == 4 and err == ""
    broke = "terminal cross-check failed: q(P(D - mu E)) != 0; the declared data is inconsistent"
    zero_step = "chamber generator cannot be subtracted; catalog inconsistent"
    classes = ["6*H + 3*d", "6*H + 3*d", "8*H + 4*d", "8*H + 6*d"]
    pairs = [("6*H + 3*d", "6*H + 3*d"), ("6*H + 3*d", "8*H + 4*d"), ("8*H + 4*d", "8*H + 6*d")]
    expected = [
        "geometry        big_on_a_facet",
        "FAIL   polygon-area-identity        4 run(s), 4 failed",
        *(f"       - 2*area != q(P) for D={d}, E=E: {broke}" for d in classes),
        "FAIL   volume-chain                 4 run(s), 4 failed",
        *(f"       - volume chain broke for D={d}: {broke}" for d in classes),
        "FAIL   breakpoint-structure         4 run(s), 4 failed",
        *(f"       - trace structure broke for D={d}: {broke}" for d in classes),
        "FAIL   flag-translation             2 run(s), 2 failed",
        *(f"       - translation by E broke for D=6*H + 3*d: {broke}" for _ in range(2)),
        "FAIL   polygon-superadditivity      3 run(s), 3 failed",
        *(f"       - superadditivity broke for {a} and {b}: {broke}" for a, b in pairs),
        "PASS   volume-log-concavity         3 run(s), 0 failed",
        "FAIL   zariski-idempotence          4 run(s), 4 failed",
        *(f"       - idempotence broke for D={d}: {broke}" for d in classes),
        "FAIL   catalog-order-invariance     1 run(s), 1 failed",
        f"       - catalog order changed results for D=6*H + 3*d: {broke}",
        "FAIL   minkowski-reconstruction     4 run(s), 4 failed",
        *(f"       - reconstruction broke for D={d}: {zero_step}" for d in classes),
        "SKIP   wall-continuity              0 run(s), 0 failed",
    ]
    *body, result, end = out.split("\n")
    assert body == expected and end == ""
    assert re.fullmatch(r"result          26 failure\(s\) in \d+\.\d\ds", result)


def test_check_failures_machine_reports_failed(capsys, tmp_path):
    doc = json.loads(Path(HILB2).read_text())
    doc["name"] = "pinched"
    doc["effective_generators"] = [[1, 0]]
    path = tmp_path / "pinched.geom"
    path.write_text(json.dumps(doc))
    code, payload = run_json(capsys, "check", str(path), "--samples", "4")
    assert code == 3
    assert payload == {"status": "error", "code": 3, "message": "declared effective cone misses prime 'E'; "
                                                                "every prime must be pseudo-effective"}
    path = tmp_path / "big_on_a_facet.geom"
    path.write_text(json.dumps(BIG_ON_A_FACET))
    code, payload = run_json(capsys, "check", str(path), "--samples", "4")
    assert code == 4
    assert payload["passed"] is False
    failed = [c["name"] for c in payload["checks"] if c["failed"] > 0 and c["messages"]]
    assert len(failed) == 8 and "volume-log-concavity" not in failed and "wall-continuity" not in failed


def test_missing_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
