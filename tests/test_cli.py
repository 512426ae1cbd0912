"""End-to-end tests for the command line contract.

Exit codes, the report envelope, byte-identical reruns, and the table
rendering are all part of the published interface, so these tests drive
main() exactly the way a shell would.
"""

import contextlib
import hashlib
import io
import json
import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbconfig import __version__
from orbconfig import arrangement, cli
from orbconfig.arrangement import MAX_FIELD_ORDER, ArrangementSpec, ScalarField, flat_poset
from orbconfig.covering import MAX_FIBER_POINTS
from orbconfig.cli import main
from orbconfig.exactfield import MAX_RATIONAL_DIGITS
from orbconfig.obstruction import MAX_WITNESS_STEPS, NoWitnessError
from orbconfig.orbit_config import rotation_arrangement
from orbconfig.orbmodel import MAX_ROTATION_ORDER
from test_acceptance import _field_rail_spec


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    assert out, f"no output (stderr: {err})"
    return code, json.loads(out)


def explicit_cyclic3(corrupt=False):
    compose = []
    for a in range(3):
        for b in range(3):
            compose.append([f"g{a}", f"g{b}", f"g{(a + b) % 3}"])
    if corrupt:
        compose = [row for row in compose if row[:2] != ["g2", "g2"]]
        compose.append(["g2", "g2", "g2"])  # should close to g1
    return {
        "schema": 1,
        "type": "explicit",
        "objects": ["x"],
        "morphisms": [{"id": f"g{k}", "src": "x", "tgt": "x"} for k in range(3)],
        "identities": {"x": "g0"},
        "compose": compose,
        "inverses": {"g0": "g0", "g1": "g2", "g2": "g1"},
    }


# ---------------------------------------------------------------------------
# Envelope and determinism
# ---------------------------------------------------------------------------


def test_envelope_carries_tool_version_config_seed(capsys):
    code, env = run_json(capsys, ["verify-cover", "q", "--samples", "20", "--seed", "7"])
    assert code == 0
    assert env["tool"] == "orbconfig"
    assert env["version"] == __version__
    assert env["config"]["subcommand"] == "verify-cover"
    assert env["config"]["seed"] == 7
    assert env["config"]["samples"] == 20
    assert env["report"]["seed"] == 7


def test_reruns_are_byte_identical(capsys):
    argv = ["verify-cover", "qE", "--n", "2", "--samples", "40"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second
    assert first.endswith("\n")


# each subcommand records the options it reads and its input, nothing else
_SPEC_AXIS = '{"schema":1,"dim":1,"field":{"type":"Q"},"hyperplanes":[{"normal":[1]}]}'
_ENVELOPE_CONFIGS = [
    pytest.param(["classify", '{"schema":1,"genus":0,"cones":[5]}'], {"input"}, id="classify"),
    pytest.param(["arrangement", "--builder", "braid", "--n", "3"], {"builder", "n", "m"}, id="arrangement-builder"),
    pytest.param(["arrangement", _SPEC_AXIS], {"input"}, id="arrangement-spec"),
    pytest.param(["verify-cover", "q", "--samples", "5"], {"map", "seed", "epsilon", "samples"}, id="verify-cover"),
    pytest.param(
        ["verify-cover", "squaring", "--samples", "5"],
        {"map", "n", "seed", "epsilon", "samples"},
        id="verify-cover-squaring",
    ),
    pytest.param(
        ["verify-cover", "qE", "--samples", "5"],
        {"map", "n", "seed", "epsilon", "samples", "window"},
        id="verify-cover-qE",
    ),
    pytest.param(["obstruction", '{"schema":1,"kind":"rotation","order":2}'], {"input", "n"}, id="obstruction"),
    pytest.param(["groupoid", json.dumps(explicit_cyclic3())], {"input"}, id="groupoid"),
]


@pytest.mark.parametrize("argv, own", _ENVELOPE_CONFIGS)
def test_config_holds_only_the_options_a_subcommand_reads(capsys, argv, own):
    code, env = run_json(capsys, argv)
    assert code == 0
    assert set(env["config"]) == {"subcommand", "format"} | own


def test_case1_without_m_reports_as_m_2(capsys):
    # --m defaults to None, so a spec can refuse it, and to 2 in the builder branch
    argv = ["arrangement", "--builder", "case1", "--n", "2"]
    assert run(capsys, argv) == run(capsys, argv + ["--m", "2"])


@pytest.mark.parametrize(
    "option, value", [("--seed", "1"), ("--epsilon", "1e-6"), ("--samples", "7"), ("--window", "2")]
)
@pytest.mark.parametrize(
    "argv", [param.values[0] for param in _ENVELOPE_CONFIGS if not param.id.startswith("verify-cover")]
)
def test_sampling_options_belong_to_verify_cover(capsys, argv, option, value):
    with pytest.raises(SystemExit) as excinfo:
        main([*argv, option, value])
    captured = capsys.readouterr()
    assert excinfo.value.code == 2
    assert captured.out == ""
    assert "Traceback" not in captured.err and f"unrecognized arguments: {option}" in captured.err


def test_squaring_and_qe_without_n_or_window_report_the_defaults(capsys):
    # --n and --window default to None, so a map can refuse them, and to 2
    # and 3 where the map reads them
    for argv, given in (
        (["verify-cover", "squaring", "--samples", "5"], ["--n", "2"]),
        (["verify-cover", "qE", "--samples", "5"], ["--n", "2", "--window", "3"]),
    ):
        assert run(capsys, argv) == run(capsys, argv + given)


@pytest.mark.parametrize(
    "argv, option",
    [
        (["q", "--n", "3"], "--n"),
        (["q", "--n", "2"], "--n"),
        (["q", "--window", "3"], "--window"),
        (["squaring", "--window", "3"], "--window"),
    ],
    ids=["q-n3", "q-n2", "q-window", "squaring-window"],
)
def test_verify_cover_refuses_an_option_its_map_does_not_read(capsys, argv, option):
    code, out, err = run(capsys, ["verify-cover", *argv, "--samples", "5"])
    assert (code, out) == (2, "")
    assert "Traceback" not in err and f"{option} is not read by map {argv[0]}" in err


def test_arrangement_spec_with_builder_exit_2(capsys):
    # the spec would be dropped and braid(2) reported in its place
    code, out, err = run(capsys, ["arrangement", _SPEC_AXIS, "--builder", "braid", "--n", "2"])
    assert (code, out) == (2, "")
    assert "Traceback" not in err and "--builder" in err


@pytest.mark.parametrize("options", [["--n", "2"], ["--m", "3"], ["--n", "2", "--m", "3"]])
def test_arrangement_spec_with_n_or_m_exit_2(capsys, options):
    code, out, err = run(capsys, ["arrangement", _SPEC_AXIS, *options])
    assert (code, out) == (2, "")
    assert "Traceback" not in err and "--n and --m need --builder" in err


@pytest.mark.parametrize("builder", ["braid", "case3X"])
def test_arrangement_m_without_case1_exit_2(capsys, builder):
    # only case1 reads a field order; braid and case3X would record --m in
    # their config and compute the same report, so it is refused
    code, out, err = run(capsys, ["arrangement", "--builder", builder, "--n", "3", "--m", "5"])
    assert (code, out) == (2, "")
    assert "Traceback" not in err and "--m is read by --builder case1 only" in err
    code, env = run_json(capsys, ["arrangement", "--builder", builder, "--n", "3"])
    assert code == 0 and env["config"]["m"] == 2


def test_out_flag_writes_the_same_bytes(capsys, tmp_path):
    target = tmp_path / "report.json"
    argv = ["arrangement", "--builder", "braid", "--n", "3"]
    code, out, _ = run(capsys, argv + ["--out", str(target)])
    assert code == 0 and out == ""
    _, stdout_copy, _ = run(capsys, argv)
    assert target.read_text(encoding="utf-8") == stdout_copy


def test_table_format_renders_the_report(capsys):
    code, out, _ = run(capsys, ["arrangement", "--builder", "braid", "--n", "3", "--format", "table"])
    assert code == 0
    assert "label: braid(3)" in out
    assert "total: 6" in out
    assert "t^3" in out


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


def test_classify_sphere_with_one_cone_is_bad(capsys):
    code, env = run_json(capsys, ["classify", '{"schema":1,"genus":0,"cones":[5]}'])
    assert code == 0
    verdict = env["report"]["classification"]
    assert verdict["is_good"] == "no"
    assert verdict["is_aspherical"] == "no"


def test_classify_plane_with_cone_is_good_and_aspherical(capsys):
    code, env = run_json(
        capsys, ["classify", '{"schema":1,"genus":0,"punctures":1,"cones":[3]}']
    )
    assert code == 0
    verdict = env["report"]["classification"]
    assert verdict["is_good"] == "yes"
    assert verdict["is_aspherical"] == "yes"


def test_classify_reflector_features_exit_3(capsys):
    code, out, err = run(capsys, ["classify", '{"schema":1,"genus":0,"reflectors":[2]}'])
    assert code == 3
    assert out == ""
    assert "reflector" in err


# ---------------------------------------------------------------------------
# arrangement
# ---------------------------------------------------------------------------


def test_arrangement_case3X_n2_is_simplicial(capsys):
    code, env = run_json(capsys, ["arrangement", "--builder", "case3X", "--n", "2"])
    assert code == 0
    assert env["report"]["simplicial"]["simplicial"] is True
    assert env["report"]["label"] == "case3X(2)"


def test_arrangement_braid_n4_has_24_chambers(capsys):
    code, env = run_json(capsys, ["arrangement", "--builder", "braid", "--n", "4"])
    assert code == 0
    assert env["report"]["chambers"]["total"] == 24


def test_arrangement_case1_poincare(capsys):
    code, env = run_json(
        capsys, ["arrangement", "--builder", "case1", "--n", "2", "--m", "2"]
    )
    assert code == 0
    assert env["report"]["poincare"]["coefficients"] == [1, 2, 1]
    assert env["report"]["poincare"]["text"] == "1 + 2t + t^2"


def test_arrangement_complex_field_skips_chambers(capsys):
    code, env = run_json(
        capsys, ["arrangement", "--builder", "case1", "--n", "2", "--m", "3"]
    )
    assert code == 0
    assert env["report"]["chambers"] is None
    assert env["report"]["simplicial"] is None
    assert env["report"]["field"] == {"type": "cyclotomic", "m": 3}


def test_arrangement_from_inline_spec(capsys):
    spec = {
        "schema": 1,
        "dim": 2,
        "field": {"type": "Q"},
        "label": "axes",
        "hyperplanes": [
            {"normal": ["1", "0"], "offset": "0"},
            {"normal": ["0", "1"], "offset": "0"},
        ],
    }
    code, env = run_json(capsys, ["arrangement", json.dumps(spec)])
    assert code == 0
    assert env["report"]["chambers"] == {"total": 4, "bounded": 0}


def test_arrangement_guard_rails_exit_4(capsys):
    code, out, err = run(capsys, ["arrangement", "--builder", "braid", "--n", "7"])
    assert code == 4
    assert out == ""


@pytest.mark.parametrize(
    "builder, n, m",
    [("case1", 2, 600), ("braid", 120, 2), ("case3X", 100, 2), ("braid", 600, 2)],
)
def test_builder_rails_refuse_before_building(capsys, builder, n, m):
    # each of these builds for seconds to minutes when the rails are
    # checked only on the built arrangement
    start = time.monotonic()
    code, out, err = run(capsys, ["arrangement", "--builder", builder, "--n", str(n), "--m", str(m)])
    assert time.monotonic() - start < 1.0
    assert code == 4
    assert out == ""
    assert "exceeds the CLI rails" in err


def test_arrangement_builder_requires_n(capsys):
    code, _, err = run(capsys, ["arrangement", "--builder", "braid"])
    assert code == 2
    assert "--n" in err


def test_arrangement_without_input_exit_2(capsys):
    assert run(capsys, ["arrangement"])[0] == 2


def _cyclotomic_spec(m, dim=4, count=8):
    """count hyperplanes in Q^dim over Q(zeta_m), each coefficient a + b zeta
    with a and b drawn from -1, 0 and 1 by a generator seeded with m."""
    rng = random.Random(m)

    def scalar():
        return {"coeffs": [rng.randint(-1, 1), rng.randint(-1, 1)]}

    return json.dumps({
        "schema": 1,
        "dim": dim,
        "field": {"type": "cyclotomic", "m": m},
        "hyperplanes": [
            {"normal": [scalar() for _ in range(dim)], "offset": {"coeffs": [0]}}
            for _ in range(count)
        ],
    })


def _forget_spec(group, action, n):
    return json.dumps({"schema": 1, "type": "forget", "group": group, "action": action, "n": n})


@pytest.mark.parametrize("m", [MAX_FIELD_ORDER + 1, 30011])
def test_arrangement_field_order_rail_exit_4(capsys, m):
    # three lines in Q^2 over Q(zeta_30011) ran past 30 s when the order was
    # not read against a rail
    start = time.monotonic()
    code, out, err = run(capsys, ["arrangement", _cyclotomic_spec(m, dim=2, count=3)])
    assert time.monotonic() - start < 1.0
    assert code == 4
    assert out == ""
    assert f"m <= {MAX_FIELD_ORDER}" in err


@pytest.mark.parametrize("m", [1, 2])
def test_arrangement_cyclotomic_order_below_3_exit_2(capsys, m):
    # Q(zeta_1) = Q(zeta_2) = Q: the report would claim complex coefficients
    # and drop the chamber counts of what is a rational arrangement
    with pytest.raises(ValueError, match="m >= 3"):
        ScalarField("cyclotomic", m)
    code, out, err = run(capsys, ["arrangement", _cyclotomic_spec(m, dim=2, count=2)])
    assert (code, out) == (2, "")
    assert '{"type": "Q"}' in err


@pytest.mark.parametrize("m, count", [(3, 15), (5, 14), (13, 10), (MAX_FIELD_ORDER, 12)])
def test_field_rail_caps_hyperplanes_by_phi(capsys, m, count):
    # over Q(zeta_m) at most 16 - phi(m) // 2 hyperplanes, counted as listed
    # and refused before any element is built; the admitted count runs
    code, out, err = run(capsys, ["arrangement", _cyclotomic_spec(m, dim=3, count=count + 1)])
    assert (code, out) == (4, ""), err
    assert f"{count + 1} hyperplanes over Q(zeta_{m}) exceed the rail" in err
    assert run(capsys, ["arrangement", _cyclotomic_spec(m, dim=3, count=count)])[0] == 0


@pytest.mark.parametrize("n, m, code", [(3, 4, 0), (3, 5, 4), (2, 12, 0), (2, 13, 4), (1, MAX_FIELD_ORDER + 1, 4)])
def test_case1_builder_meets_the_field_rail_before_building(capsys, n, m, code):
    # m * n(n-1)/2 hyperplanes over Q(zeta_m), from --n and --m
    assert run(capsys, ["arrangement", "--builder", "case1", "--n", str(n), "--m", str(m)])[0] == code


def test_arrangement_at_the_field_order_rail_within_budget(capsys):
    # MAX_FIELD_ORDER is the largest admitted order, and 13 (phi = 12) the
    # costliest below it.  About 0.4 s together on a 2-core host; the
    # budget keeps wide headroom.
    start = time.perf_counter()
    for m in (MAX_FIELD_ORDER, 13):
        code, env = run_json(capsys, ["arrangement", _cyclotomic_spec(m)])
        assert code == 0
        assert env["report"]["field"] == {"type": "cyclotomic", "m": m}
        assert env["report"]["rank"] == 4
    elapsed = time.perf_counter() - start
    assert elapsed < 3.0, f"arrangements at the field order rail took {elapsed:.1f} s"


# ---------------------------------------------------------------------------
# verify-cover
# ---------------------------------------------------------------------------


def test_verify_cover_quotient_map_passes(capsys):
    code, env = run_json(capsys, ["verify-cover", "q", "--samples", "50"])
    assert code == 0
    assert env["report"]["pass"] is True
    assert env["report"]["fiber_sizes"] == [[2, 50]]


def test_verify_cover_squaring_degree_eight(capsys):
    code, env = run_json(capsys, ["verify-cover", "squaring", "--n", "3", "--samples", "40"])
    assert code == 0
    assert env["report"]["declared_degree"] == 8
    assert env["report"]["pass"] is True


def test_verify_cover_composite_reports_skips(capsys):
    code, env = run_json(
        capsys, ["verify-cover", "qE", "--n", "2", "--window", "3", "--samples", "60"]
    )
    assert code == 0
    assert env["report"]["pass"] is True
    assert "skipped_singular" in env["report"]


def test_verify_cover_failure_exits_5(capsys):
    code, env = run_json(
        capsys,
        ["verify-cover", "qE", "--n", "2", "--samples", "40", "--epsilon", "1e-16"],
    )
    assert code == 5
    assert env["report"]["pass"] is False


def test_verify_cover_unknown_map_exit_2(capsys):
    assert run(capsys, ["verify-cover", "zeta"])[0] == 2


# verify-cover records --epsilon in its report, and verify_cover refuses inf
# (and 1e400, which float() reads as inf) before any sample: it would print
# as Infinity, which is not JSON.  Other subcommands take no --epsilon.
@pytest.mark.parametrize("epsilon", ["inf", "1e400"])
@pytest.mark.parametrize(
    "argv",
    [["verify-cover", "q", "--samples", "5"], ["arrangement", "--builder", "braid", "--n", "3"]],
    ids=["verify-cover", "arrangement"],
)
def test_infinite_epsilon_exit_2(capsys, argv, epsilon):
    if argv[0] == "verify-cover":
        code = main([*argv, "--epsilon", epsilon])
        message = "orbconfig: epsilon must be positive and finite"
    else:
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--epsilon", epsilon])
        code = excinfo.value.code
        message = "unrecognized arguments: --epsilon"
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "Traceback" not in captured.err and message in captured.err


def test_verify_cover_squaring_n_rail_exit_4(capsys):
    # the squaring n is bounded by samples * 2^n <= MAX_FIBER_POINTS alone:
    # one sample at n = 14 (16,384 fiber points) runs, n = 15 and a huge n
    # exit 4 before any sample, and without computing 2^n
    assert 2**14 <= MAX_FIBER_POINTS < 2**15
    code, env = run_json(capsys, ["verify-cover", "squaring", "--n", "14", "--samples", "1"])
    assert code == 0 and env["report"]["fiber_sizes"] == [[2**14, 1]]
    for n in ("15", "20", str(10**9)):
        code, out, err = run(capsys, ["verify-cover", "squaring", "--n", n, "--samples", "1"])
        assert (code, out) == (4, ""), n
        assert "squaring verification capped at samples * degree <= 20000" in err


def test_verify_cover_largest_admitted_runs_within_budget(capsys):
    # samples * degree <= MAX_FIBER_POINTS and, for qE, samples *
    # (2 * window)^n <= MAX_EXP_COMBINATIONS, read before any sample.  On a
    # 2-core host the qE run takes about 1.2 s and each squaring run about
    # 0.2 s, and up to twice that under load; the budget keeps room for all.
    start = time.perf_counter()
    for argv in (
        ["squaring", "--n", "10", "--samples", "19"],
        ["squaring", "--n", "14", "--samples", "1"],
        ["qE", "--n", "6", "--window", "5", "--samples", "1"],
    ):
        code, env = run_json(capsys, ["verify-cover", *argv])
        assert code == 0 and env["report"]["pass"] is True, argv
    elapsed = time.perf_counter() - start
    assert elapsed < 15.0, f"the largest admitted verify-cover runs took {elapsed:.1f} s"
    for argv, message in (
        (["q", "--samples", "10001"], "samples * degree <= 20000"),
        (["squaring", "--n", "10", "--samples", "20"], "samples * degree <= 20000"),
        (["qE", "--n", "1", "--samples", "10001"], "samples * degree <= 20000"),
        (["qE", "--n", "6", "--window", "5", "--samples", "2"], "samples * (2 * window)^n <= 1000000"),
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, ["verify-cover", *argv])
        assert (code, out) == (4, ""), argv
        assert message in err and time.perf_counter() - start < 0.5, argv


def test_verify_cover_qe_combination_rail_exit_4(capsys):
    # (2 * 3)^3 = 216 logarithm combinations per sample pass; (2 * 3)^8,
    # (2 * 6)^6 and a huge n exceed the 1,000,000 rail before any sampling
    code, env = run_json(capsys, ["verify-cover", "qE", "--n", "3", "--window", "3", "--samples", "1"])
    assert code == 0 and env["report"]["window"] == 3
    for n, window in ((8, 3), (6, 6), (10**9, 3)):
        argv = ["verify-cover", "qE", "--n", str(n), "--window", str(window), "--samples", "1"]
        code, out, err = run(capsys, argv)
        assert (code, out) == (4, ""), (n, window)
        assert "qE verification capped" in err


# ---------------------------------------------------------------------------
# obstruction
# ---------------------------------------------------------------------------


def test_obstruction_rotation_witness(capsys):
    code, env = run_json(
        capsys, ["obstruction", '{"schema":1,"kind":"rotation","order":2}', "--n", "3"]
    )
    assert code == 0
    assert env["report"]["b1_pair"] == [3, 4]
    assert env["report"]["verdict"] == "not-quasifibration"


def test_obstruction_high_order_pair(capsys):
    code, env = run_json(
        capsys, ["obstruction", '{"schema":1,"kind":"rotation","order":5}', "--n", "2"]
    )
    assert code == 0
    assert env["report"]["b1_pair"] == [1, 5]


def test_obstruction_infinite_group_exit_2(capsys):
    code, _, err = run(capsys, ["obstruction", '{"schema":1,"kind":"integer_dihedral"}'])
    assert code == 2


def test_obstruction_fixed_point_free_exit_6(capsys, monkeypatch):
    def refuse(action, n):
        raise NoWitnessError("the action has no fixed point to anchor the fiber at")

    monkeypatch.setattr(cli, "quasifibration_witness", refuse)
    code, out, err = run(
        capsys, ["obstruction", '{"schema":1,"kind":"rotation","order":2}']
    )
    assert code == 6
    assert "fixed point" in err


def test_obstruction_n_past_the_witness_steps_exits_6_without_searching(capsys):
    code, out, err = run(
        capsys,
        ["obstruction", '{"schema":1,"kind":"rotation","order":4}', "--n", "1000000000"],
    )
    assert code == 6
    assert out == ""
    assert "could not place enough free witness coordinates" in err


@pytest.mark.parametrize("n", [400, MAX_WITNESS_STEPS + 1])
def test_obstruction_n_within_the_witness_steps_succeeds(capsys, n):
    code, env = run_json(
        capsys, ["obstruction", '{"schema":1,"kind":"rotation","order":4}', "--n", str(n)]
    )
    assert code == 0
    assert env["report"]["b1_pair"] == [1 + 4 * (n - 2), 4 * (n - 1)]


@pytest.mark.parametrize(
    "center",
    [{"re": 0.5, "im": 0.25, "mode": "approx", "eps": 1e-9}, {"re": "1/2", "im": "0", "mode": "bogus"}],
    ids=["approx", "bogus"],
)
def test_obstruction_non_exact_center_exit_2(capsys, center):
    spec = json.dumps({"schema": 1, "kind": "rotation", "order": 4, "center": center})
    code, out, err = run(capsys, ["obstruction", spec, "--n", "3"])
    assert code == 2
    assert out == ""
    assert err.startswith("orbconfig: ") and "Traceback" not in err
    assert repr(center["mode"]) in err


@pytest.mark.parametrize("order", ["2.7", "true", '"3"', "null"])
def test_obstruction_non_integer_rotation_order_exit_2(capsys, order):
    spec = '{"schema":1,"kind":"rotation","order":%s}' % order
    code, out, err = run(capsys, ["obstruction", spec, "--n", "3"])
    assert code == 2
    assert out == ""
    assert "rotation order must be an integer" in err


def test_obstruction_rotation_order_rail_exit_4(capsys):
    spec = json.dumps({"schema": 1, "kind": "rotation", "order": MAX_ROTATION_ORDER + 1})
    code, out, err = run(capsys, ["obstruction", spec, "--n", "30"])
    assert code == 4
    assert out == ""
    assert f"order <= {MAX_ROTATION_ORDER}" in err


def test_obstruction_at_the_rotation_order_rail_within_budget(capsys):
    # order 1024 about a center with a 4000-digit denominator, 400 free
    # coordinates: the witness search hashes one orbit invariant per
    # candidate.  About 2 s on a 2-core host; the budget keeps 3x headroom.
    den = 10**3999 + 7
    center = {"re": f"1/{den}", "im": f"-2/{den}"}
    spec = json.dumps({"schema": 1, "kind": "rotation", "order": MAX_ROTATION_ORDER, "center": center})
    start = time.perf_counter()
    code, env = run_json(capsys, ["obstruction", spec, "--n", "401"])
    elapsed = time.perf_counter() - start
    assert code == 0
    m, n = MAX_ROTATION_ORDER, 401
    assert env["report"]["b1_pair"] == [1 + m * (n - 2), m * (n - 1)]
    assert elapsed < 10.0, f"obstruction at the rotation order rail took {elapsed:.1f} s"


def _rotation_center(re: str) -> str:
    center = {"re": re, "im": "0"}
    return json.dumps({"schema": 1, "kind": "rotation", "order": 4, "center": center})


@pytest.mark.parametrize(
    "re",
    [
        f"1/{10**MAX_RATIONAL_DIGITS + 7}",
        f"-{10**MAX_RATIONAL_DIGITS}/3",
        f"{10**MAX_RATIONAL_DIGITS}",
        "1e999999",
    ],
    ids=["denominator", "numerator", "integer", "exponent"],
)
def test_obstruction_rational_past_the_digit_bound_exit_2(capsys, re):
    # one digit more than MAX_RATIONAL_DIGITS is refused when read, with the
    # field named; the 4000-digit rail test above is the admitted side
    code, out, err = run(capsys, ["obstruction", _rotation_center(re), "--n", "3"])
    assert code == 2
    assert out == ""
    assert err.startswith("orbconfig: ") and "Traceback" not in err
    assert f"center re has more than {MAX_RATIONAL_DIGITS} digits" in err


def test_obstruction_rational_at_the_digit_bound_writes_its_report(capsys):
    # a 4000-digit numerator and denominator: witness points s + k/2 print
    # a few digits longer, still under the int-to-str limit
    big = 10**MAX_RATIONAL_DIGITS - 1
    code, env = run_json(capsys, ["obstruction", _rotation_center(f"{big}/{big - 2}"), "--n", "3"])
    assert code == 0
    assert env["report"]["fixed_anchor"]["base"][0]["re"] == f"{big}/{big - 2}"


@pytest.mark.parametrize("offset", [f"1/{10**MAX_RATIONAL_DIGITS}", "1/0", "x"])
def test_arrangement_bad_rational_names_the_field_exit_2(capsys, offset):
    spec = json.dumps(
        {
            "schema": 1,
            "dim": 2,
            "field": {"type": "Q"},
            "hyperplanes": [{"normal": ["1", "0"]}, {"normal": ["0", "1"], "offset": offset}],
        }
    )
    code, out, err = run(capsys, ["arrangement", spec])
    assert code == 2
    assert out == ""
    assert "Traceback" not in err and "hyperplanes[1] offset" in err


# Reports of exact runs are pinned byte for byte.  qE is left out: its
# max_defect is a float that depends on the platform's libm.
GOLDEN_STDOUT_SHA256 = [
    pytest.param(
        ["verify-cover", "q", "--samples", "200", "--seed", "3"],
        "c54725ecd9fbd75a3bcc32596cb05d933a19b5a9a06331b30ab73360769afd26",
        id="q",
    ),
    pytest.param(
        ["verify-cover", "squaring", "--n", "3", "--samples", "20", "--seed", "2"],
        "fdef475f5eaa8cb7ada2f876ec70001f8b0ecc7254e83d5a3d3ee6bfcd9ead3c",
        id="squaring",
    ),
    # q at covering.MAX_FIBER_POINTS, the rail edge: 10,000 samples of degree 2
    pytest.param(
        ["verify-cover", "q", "--samples", "10000"],
        "7d8c7e514ed779265d7f2f28924f178f7c8bf1e176ab9a10af312e5f226b83fe",
        id="q-samples10000",
    ),
    pytest.param(
        ["classify", '{"schema":1,"genus":0,"punctures":1,"cones":[3]}'],
        "0e42a1dc31fe371aed3b35848f0197e7ff902ba42b4a67aca98c49fcc10a186c",
        id="classify-plane-cone3",
    ),
    pytest.param(
        ["groupoid", json.dumps(explicit_cyclic3())],
        "74eb45127de6a170598981e18ce8e43f3779795afc8ed593e92f8ede9ca392b8",
        id="explicit-cyclic3",
    ),
    pytest.param(
        ["obstruction", '{"schema":1,"kind":"rotation","order":2}'],
        "3ba9bd1ae48b68cb75b34486bec6e6fe40d2f35733a2cfacc8e0530fdf1f5f3b",
        id="rotation",
    ),
    pytest.param(
        ["obstruction", '{"schema":1,"kind":"rotation","order":4,"center":{"re":"1/2","im":"-3/4"}}', "--n", "5"],
        "f5f5f3aaf1ab85063fac4e98a7f2584ff3cef526d630e7500bbf352e9b6fd22e",
        id="rotation-center",
    ),
    pytest.param(
        ["obstruction", '{"schema":1,"kind":"sign_flip"}', "--n", "4"],
        "43f77aac08c798b189fcd70c1af6d552ca202e666ffd73de4de75e7ca2e435d7",
        id="sign-flip",
    ),
    pytest.param(
        ["arrangement", "--builder", "case1", "--n", "3", "--m", "3"],
        "dd9297d68c69778fc8f75d63f9b5fcdf64c3304e7b2920d2684f2cb22d98bcef",
        id="case1-n3-m3",
    ),
    pytest.param(
        ["arrangement", "--builder", "case1", "--n", "3", "--m", "4"],
        "ac7397fe1c34b56ccd2d40b8129794372b49ceee242470b3834c3670efdce5d8",
        id="case1-n3-m4",
    ),
    pytest.param(
        ["arrangement", "--builder", "case1", "--n", "4", "--m", "2"],
        "ecc51ac021280adfadc95ca2cfe8a2f200a0cd34a4373e0e464ad498227d095b",
        id="case1-n4-m2",
    ),
    # Q(zeta_5) gives leads outside Z, Q(zeta_13) the largest phi(m) = 12
    # and MAX_FIELD_ORDER the largest order
    pytest.param(["arrangement", _cyclotomic_spec(5)], "478d213f74811c889f29901b86ebe54038f2616697aa2a3faaf5c5e4c338190b", id="cyclotomic-m5"),
    pytest.param(["arrangement", _cyclotomic_spec(13)], "5e9514492f74fde58a224d9b92d891414880de4f554845f2a2b4273221ccf97f", id="cyclotomic-m13"),
    pytest.param(["arrangement", _cyclotomic_spec(16)], "30a84ce6d7a5831ce617a11b40324a895438017c50868bc735ef866bf974df6a", id="cyclotomic-m16"),
    # 11 generic hyperplanes in Q^6 over Q(zeta_11), at the field rail: 1,486
    # flats, walked over F_p and certified exactly
    pytest.param(["arrangement", _field_rail_spec(11, 11)], "dc9affbde24f867e7b1e043a29e14114f07f4f91a39e163d76a4f7b405c0f321", id="field-rail-m11"),
    pytest.param(
        ["arrangement", "--builder", "braid", "--n", "5"],
        "1afa6cf9b4aa995abe06ad601baeda2a40b41b7936e562ef371a11fab7effa1f",
        id="braid-n5",
    ),
    # central about (2, 0, 2, 0), rank 3 in Q^4 and not simplicial; its
    # wall counts 3, 4 and 5 are uneven, so their order is pinned too
    pytest.param(
        ["arrangement", '{"schema":1,"dim":4,"field":{"type":"Q"},"hyperplanes":[{"normal":[1,-1,0,0],"offset":2},{"normal":[0,0,1,0],"offset":2},{"normal":[0,0,0,1],"offset":0},{"normal":[1,-1,1,1],"offset":4},{"normal":[1,-1,-2,3],"offset":-2}]}'],
        "bb7f0e293ad2e1b38fd8b604b96e896d87e75a9a4bc49052cafd9ffd98a18866",
        id="central-lineality-uneven-walls",
    ),
    # central reports whose chambers come from the affine slice
    # (_cone_chambers), then by deletion and restriction one dimension lower
    pytest.param(
        ["arrangement", "--builder", "braid", "--n", "6"],
        "7669ab96c4108af393cbe378209ac46d296beb0148dee11f186f20f2a9d8e74f",
        id="braid-n6",
    ),
    pytest.param(
        ["arrangement", "--builder", "case3X", "--n", "3"],
        "bf72faddd0c87ace82d8b11cdd8b9780181259851bc20585c8be9e7f79c2c9e5",
        id="case3X-n3",
    ),
    # the moment curve x . (1, t, t^2, t^3) = t^4, t = 1..8: generic in Q^4
    pytest.param(
        ["arrangement", '{"schema":1,"dim":4,"field":{"type":"Q"},"hyperplanes":[{"normal":[1,1,1,1],"offset":1},{"normal":[1,2,4,8],"offset":16},{"normal":[1,3,9,27],"offset":81},{"normal":[1,4,16,64],"offset":256},{"normal":[1,5,25,125],"offset":625},{"normal":[1,6,36,216],"offset":1296},{"normal":[1,7,49,343],"offset":2401},{"normal":[1,8,64,512],"offset":4096}]}'],
        "d7d5d8d8f0b87cec0983eff766e1fd63ca5188ced5e8b98a52120772688c78ee",
        id="moment-curve",
    ),
    # groupoid `forget` reports name the first two morphisms that share an
    # image and a source, so they pin the morphism order of the
    # configuration groupoids; rotation 128 under C2 at n = 2 is the
    # largest input the forget rail admits
    pytest.param(
        ["groupoid", _forget_spec({"kind": "cyclic", "n": 2}, {"kind": "negation", "n": 6}, 2)],
        "a7833b2bc7843a7555571951cc0d49b7d674d0e5e0364b68a329d541bcd0f2db",
        id="forget-negation6-n2",
    ),
    pytest.param(
        ["groupoid", _forget_spec({"kind": "cyclic", "n": 2}, {"kind": "negation", "n": 6}, 3)],
        "1f5c41df061d11340260a338883d80ed9f51081c999108ee60ab7801ee0da3e0",
        id="forget-negation6-n3",
    ),
    pytest.param(
        ["groupoid", _forget_spec({"kind": "cyclic", "n": 4}, {"kind": "rotation", "n": 8}, 2)],
        "47f4776bf8806cfb60485710d321849daf62a7f506773ff32674012e458d747a",
        id="forget-rotation8-c4-n2",
    ),
    pytest.param(
        ["groupoid", _forget_spec({"kind": "dihedral", "n": 3}, {"kind": "regular"}, 2)],
        "66ff1e69e5d61bdcedf082e8fbe0a74e509cc217939feca9f65fe6893dcc03b4",
        id="forget-regular-d3-n2",
    ),
    pytest.param(
        ["groupoid", _forget_spec({"kind": "cyclic", "n": 2}, {"kind": "rotation", "n": 128}, 2)],
        "7adde04bb7a23d92cb47c664da04dde0ba23181026966c64d56758d2da10ee03",
        id="forget-rotation128-c2-n2",
    ),
    pytest.param(
        ["groupoid", '{"schema":1,"type":"skeleton","group":{"kind":"cyclic","n":2},"action":{"kind":"negation","n":128}}'],
        "4272ac2ea5d9b398eb8bc2781b4c7a834895125ddff0939170bd4d9a3279d4b0",
        id="skeleton-negation128",
    ),
    pytest.param(
        ["groupoid", '{"schema":1,"type":"morita","group":{"kind":"product","factors":[{"kind":"cyclic","n":4},{"kind":"cyclic","n":4}]},"n1":[[0,0],[0,2]],"n2":[[0,0],[2,0]]}'],
        "34f689fed4026bb8948a47bad4f2d6d92134eab1c2dbbdc265cbf85d3fa50261",
        id="morita-c4xc4",
    ),
]


@pytest.mark.parametrize("argv, digest", GOLDEN_STDOUT_SHA256)
def test_exact_reports_are_pinned_byte_for_byte(capsys, argv, digest):
    code, out, err = run(capsys, argv)
    assert code == 0, err
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize(
    "spec",
    [
        rotation_arrangement(3, 3),
        rotation_arrangement(3, 4),
        *(ArrangementSpec.from_json(json.loads(_cyclotomic_spec(m))) for m in (5, 13, 16)),
    ],
    ids=["case1-n3-m3", "case1-n3-m4", "cyclotomic-m5", "cyclotomic-m13", "cyclotomic-m16"],
)
def test_pinned_cyclotomic_flat_posets_equal_the_exact_walk(spec):
    # the pinned reports' flat posets, walked over F_p and certified, against
    # the walk on the exact integer rows, called directly, flat for flat
    assert flat_poset(spec).flats == arrangement._flats(arrangement._exact_walk(spec))


# ---------------------------------------------------------------------------
# groupoid
# ---------------------------------------------------------------------------


def test_groupoid_subgroup_cover_passes(capsys):
    model = {
        "schema": 1,
        "type": "subgroup_cover",
        "group": {"kind": "cyclic", "n": 4},
        "subgroup": [0, 2],
    }
    code, env = run_json(capsys, ["groupoid", json.dumps(model)])
    assert code == 0
    assert env["report"]["pass"] is True
    subjects = [entry["subject"] for entry in env["report"]["checks"]]
    assert any("covering" in s for s in subjects)


def test_groupoid_morita_klein_passes(capsys):
    model = {
        "schema": 1,
        "type": "morita",
        "group": {"kind": "klein"},
        "n1": [[0, 0], [0, 1]],
        "n2": [[0, 0], [1, 0]],
    }
    code, env = run_json(capsys, ["groupoid", json.dumps(model)])
    assert code == 0
    assert env["report"]["pass"] is True
    assert env["report"]["middle"] == {"objects": 4, "morphisms": 16}
    assert env["report"]["to_first"]["pass"] is True
    assert env["report"]["to_second"]["pass"] is True


def test_groupoid_skeleton_equivalence(capsys):
    model = {
        "schema": 1,
        "type": "skeleton",
        "group": {"kind": "cyclic", "n": 2},
        "action": {"kind": "negation", "n": 6},
    }
    code, env = run_json(capsys, ["groupoid", json.dumps(model)])
    assert code == 0
    assert env["report"]["pass"] is True


def test_groupoid_forget_failure_is_a_result(capsys):
    model = {
        "schema": 1,
        "type": "forget",
        "group": {"kind": "cyclic", "n": 2},
        "action": {"kind": "negation", "n": 6},
        "n": 2,
    }
    code, env = run_json(capsys, ["groupoid", json.dumps(model)])
    assert code == 0
    assert env["report"]["pass"] is False


def test_groupoid_explicit_axioms_pass(capsys):
    code, env = run_json(capsys, ["groupoid", json.dumps(explicit_cyclic3())])
    assert code == 0
    assert env["report"]["pass"] is True
    assert env["report"]["summary"] == {"objects": 1, "morphisms": 3}


def test_groupoid_corrupted_table_names_the_triple(capsys):
    code, env = run_json(capsys, ["groupoid", json.dumps(explicit_cyclic3(corrupt=True))])
    assert code == 0
    assert env["report"]["pass"] is False
    details = [
        row["detail"]
        for entry in env["report"]["checks"]
        for row in entry["checks"]
        if not row["pass"]
    ]
    assert any("triple" in detail for detail in details)


def test_groupoid_unknown_model_exit_2(capsys):
    assert run(capsys, ["groupoid", '{"schema":1,"type":"mystery"}'])[0] == 2


def test_groupoid_non_normal_subgroup_exit_2(capsys):
    model = {
        "schema": 1,
        "type": "morita",
        "group": {"kind": "dihedral", "n": 3},
        "n1": [[0, 0], [0, 1]],
        "n2": [[0, 0], [1, 0]],
    }
    assert run(capsys, ["groupoid", json.dumps(model)])[0] == 2


def _negation_forget(n):
    return {
        "schema": 1,
        "type": "forget",
        "group": {"kind": "cyclic", "n": 2},
        "action": {"kind": "negation", "n": 6},
        "n": n,
    }


def test_groupoid_null_group_order_exit_2(capsys):
    model = {"schema": 1, "type": "subgroup_cover", "group": {"kind": "cyclic", "n": None}, "subgroup": [0]}
    code, out, err = run(capsys, ["groupoid", json.dumps(model)])
    assert (code, out) == (2, "")
    assert "cyclic n must be an integer" in err


def test_groupoid_string_forget_n_exit_2(capsys):
    code, out, err = run(capsys, ["groupoid", json.dumps(_negation_forget("4"))])
    assert (code, out) == (2, "")
    assert "forget n must be an integer" in err


def test_groupoid_float_negation_n_exit_2(capsys):
    model = _negation_forget(2)
    model["action"]["n"] = 4.7
    code, out, err = run(capsys, ["groupoid", json.dumps(model)])
    assert (code, out) == (2, "")
    assert "negation n must be an integer" in err


def test_groupoid_product_factors_not_a_list_exit_2(capsys):
    model = {"schema": 1, "type": "subgroup_cover", "group": {"kind": "product", "factors": 3}, "subgroup": [0]}
    code, out, err = run(capsys, ["groupoid", json.dumps(model)])
    assert (code, out) == (2, "")
    assert "factors must be a list" in err


def test_groupoid_group_order_rail_exit_4(capsys):
    def cover(group):
        return json.dumps({"schema": 1, "type": "subgroup_cover", "group": group, "subgroup": [0]})

    assert run(capsys, ["groupoid", cover({"kind": "cyclic", "n": 32})])[0] == 0
    for group in (
        {"kind": "cyclic", "n": 33},
        {"kind": "cyclic", "n": 128},
        {"kind": "dihedral", "n": 17},
        {"kind": "product", "factors": [{"kind": "cyclic", "n": 8}, {"kind": "dihedral", "n": 4}]},
    ):
        code, out, err = run(capsys, ["groupoid", cover(group)])
        assert (code, out) == (4, ""), group
        assert "group order" in err


def test_groupoid_forget_size_rail_exit_4(capsys):
    # the rail bounds (|points| * |group|)^n and |group|^2n: (6 * 2)^5 =
    # 248,832 passes (the old (|points| * |group|^2)^n bound refused it), and
    # n = 6 and a huge n exceed the 500,000 rail before a configuration
    # table is built
    assert (6 * 2) ** 5 <= cli.MAX_FORGET_SIZE < (6 * 2) ** 6
    assert run(capsys, ["groupoid", json.dumps(_negation_forget(5))])[0] == 0
    for n in (6, 10**9):
        code, out, err = run(capsys, ["groupoid", json.dumps(_negation_forget(n))])
        assert (code, out) == (4, ""), n
        assert "forget" in err

    # the table bound: a cyclic group fixing two points at n = 2 has at most
    # (2 |G|)^2 morphisms, but the table of G^2 has |G|^4 entries
    def fixing_two_points(order):
        table = [{"g": g, "x": x, "y": x} for g in range(order) for x in ("a", "b")]
        action = {"kind": "table", "points": ["a", "b"], "table": table}
        return {**_negation_forget(2), "group": {"kind": "cyclic", "n": order}, "action": action}

    assert 26**4 <= cli.MAX_FORGET_SIZE < 27**4
    assert run(capsys, ["groupoid", json.dumps(fixing_two_points(26))])[0] == 0
    code, out, err = run(capsys, ["groupoid", json.dumps(fixing_two_points(27))])
    assert (code, out) == (4, "")
    assert "|group|^2n" in err


@pytest.mark.parametrize(
    "change, message",
    [
        ({"group": 3}, "group model must be an object"),
        ({"action": 3}, "action model must be an object"),
        ({"group": {"kind": "product", "factors": [3, 4]}}, "group model must be an object"),
        ({"subgroup": 3}, "subgroup must be a list"),
        ({"type": "morita", "n1": 3, "n2": [0]}, "n1 must be a list"),
    ],
    ids=["group", "action", "factors", "subgroup", "morita_n1"],
)
def test_groupoid_wrong_json_shape_exit_2(capsys, change, message):
    # no "subgroup" here: the morita case would refuse it as an unknown key
    model = {
        "schema": 1,
        "type": "subgroup_cover",
        "group": {"kind": "cyclic", "n": 2},
        "action": {"kind": "negation", "n": 6},
    }
    model.update(change)
    code, out, err = run(capsys, ["groupoid", json.dumps(model)])
    assert (code, out) == (2, "")
    assert message in err


@pytest.mark.parametrize(
    "change, message",
    [
        ({"objects": "a"}, "objects must be a list"),
        ({"compose": ["eee"]}, "compose[0] must be a list"),
        ({"compose": [{"e": 1, "f": 2, "g": 3}]}, "compose[0] must be a list"),
        ({"compose": [["e", "e"]]}, "compose[0] must be a list of 3"),
        ({"morphisms": "e"}, "morphisms must be a list"),
        ({"identities": ["a"]}, "identities must be an object"),
        ({"inverses": "e"}, "inverses must be an object"),
    ],
    ids=["objects", "compose_string", "compose_object", "compose_pair", "morphisms", "identities", "inverses"],
)
def test_explicit_groupoid_wrong_json_shape_exit_2(capsys, change, message):
    # a string of objects or a compose entry that is a string or an object
    # once iterated into labels and passed the axioms
    model = {
        "schema": 1,
        "type": "explicit",
        "objects": ["a"],
        "morphisms": [{"id": "e", "src": "a", "tgt": "a"}],
        "compose": [["e", "e", "e"]],
        "identities": {"a": "e"},
        "inverses": {"e": "e"},
    }
    assert run_json(capsys, ["groupoid", json.dumps(model)])[1]["report"]["pass"] is True
    model.update(change)
    code, out, err = run(capsys, ["groupoid", json.dumps(model)])
    assert (code, out) == (2, "")
    assert message in err


def test_groupoid_action_point_rail_exit_4(capsys):
    def skeleton(action, order):
        group = {"kind": "cyclic", "n": order}
        return json.dumps({"schema": 1, "type": "skeleton", "group": group, "action": action})

    assert run(capsys, ["groupoid", skeleton({"kind": "negation", "n": 128}, 2)])[0] == 0
    for action, order in (
        ({"kind": "negation", "n": 129}, 2),
        ({"kind": "negation", "n": 10**7}, 2),
        ({"kind": "rotation", "n": 10**9}, 4),
    ):
        code, out, err = run(capsys, ["groupoid", skeleton(action, order)])
        assert (code, out) == (4, ""), action
        assert "exceeds the groupoid rail (n <= 128)" in err


# ---------------------------------------------------------------------------
# Input plumbing
# ---------------------------------------------------------------------------


def test_malformed_json_exit_2(capsys):
    assert run(capsys, ["classify", '{"schema":1, "genus": '])[0] == 2


def test_missing_schema_exit_2(capsys):
    code, _, err = run(capsys, ["classify", '{"genus": 0}'])
    assert code == 2
    assert "schema" in err


def test_classify_cones_not_a_list_exit_2(capsys):
    code, out, err = run(
        capsys, ["classify", '{"schema":1,"genus":0,"punctures":1,"cones":3}']
    )
    assert code == 2
    assert out == ""
    assert "cones must be a list of integers" in err


def test_classify_null_cone_order_exit_2(capsys):
    code, out, err = run(
        capsys, ["classify", '{"schema":1,"genus":0,"punctures":1,"cones":[null]}']
    )
    assert code == 2
    assert out == ""
    assert "cone order must be an integer" in err


def test_arrangement_string_dim_exit_2(capsys):
    spec = {
        "schema": 1,
        "dim": "2",
        "field": {"type": "Q"},
        "hyperplanes": [{"normal": ["1", "0"], "offset": "0"}],
    }
    code, out, err = run(capsys, ["arrangement", json.dumps(spec)])
    assert code == 2
    assert out == ""
    assert "dim must be an integer" in err


@pytest.mark.parametrize(
    "field, hyperplanes, message",
    [
        ({"type": "Q"}, [5], "hyperplanes[0] must be an object"),
        ({"type": "Q"}, [{"normal": [1, 0]}, {"normal": 5}], "hyperplanes[1] normal must be a list"),
        ({"type": "Q"}, {"a": 1}, "hyperplanes must be a list"),
        ({"type": "cyclotomic", "m": 3}, [{"normal": ["1", 0]}], "hyperplanes[0] normal[0] must be an object"),
        (
            {"type": "cyclotomic", "m": 3},
            [{"normal": [{"coeffs": 1}, 0]}],
            "hyperplanes[0] normal[0] coeffs must be a list",
        ),
        ({"type": "Q"}, [{"normal": [1, 0], "offest": "3"}], "unknown hyperplanes[0] key 'offest'"),
    ],
    ids=["hyperplane", "normal", "hyperplane_list", "cyclotomic_scalar", "coeffs", "hyperplane_key"],
)
def test_arrangement_wrong_json_shape_names_the_path_exit_2(capsys, field, hyperplanes, message):
    spec = {"schema": 1, "dim": 2, "field": field, "hyperplanes": hyperplanes}
    code, out, err = run(capsys, ["arrangement", json.dumps(spec)])
    assert (code, out) == (2, "")
    assert message in err


@pytest.mark.parametrize("label", [{"a": [1]}, 5, None, ["x"]], ids=["object", "int", "null", "list"])
def test_arrangement_non_string_label_exit_2(capsys, label):
    spec = {"schema": 1, "dim": 2, "field": {"type": "Q"}, "hyperplanes": [], "label": label}
    code, out, err = run(capsys, ["arrangement", json.dumps(spec)])
    assert (code, out) == (2, "")
    assert "label must be a string" in err


def test_arrangement_cyclotomic_offset_defaults_to_zero(capsys):
    normal = [{"coeffs": ["1"]}, {"coeffs": ["0", "1"]}]
    spec = {"schema": 1, "dim": 2, "field": {"type": "cyclotomic", "m": 3}, "hyperplanes": [{"normal": normal}]}
    implicit = run_json(capsys, ["arrangement", json.dumps(spec)])
    spec["hyperplanes"][0]["offset"] = {"coeffs": ["0"]}
    explicit = run_json(capsys, ["arrangement", json.dumps(spec)])
    assert implicit[0] == explicit[0] == 0
    assert implicit[1]["report"] == explicit[1]["report"]


@pytest.mark.parametrize(
    "subcommand, model, key",
    [
        ("arrangement", {"dim": 2, "field": {"type": "Q"}, "hyperplanes": [], "lable": "x"}, "'lable'"),
        (
            "groupoid",
            {"type": "forget", "group": {"kind": "cyclic", "n": 2}, "action": {"kind": "negation", "n": 6}, "N": 3},
            "'N'",
        ),
        ("groupoid", {"type": "skeleton", "group": {"kind": "cyclic", "n": 2}, "n": 2}, "'n'"),
        ("groupoid", {**explicit_cyclic3(), "identity": {}}, "'identity'"),
        (
            "groupoid",
            {
                **explicit_cyclic3(),
                "morphisms": [{"id": f"g{k}", "src": "x", "tgt": "x", "inv": "g0"} for k in range(3)],
            },
            "'inv'",
        ),
        ("groupoid", {"type": "skeleton", "group": {"kind": "cyclic", "n": 2, "order": 4}}, "'order'"),
        (
            "groupoid",
            {
                "type": "skeleton",
                "group": {"kind": "cyclic", "n": 1},
                "action": {"kind": "table", "points": [0], "table": [{"g": 0, "x": 0, "y": 0, "h": 0}]},
            },
            "'h'",
        ),
        ("arrangement", {"dim": 2, "field": {"type": "Q", "m": 3}, "hyperplanes": []}, "'m'"),
        ("obstruction", {"kind": "rotation", "order": 2, "centre": "1"}, "'centre'"),
        ("obstruction", {"kind": "rotation", "order": 2, "center": {"re": "1", "img": "2"}}, "'img'"),
    ],
    ids=[
        "arrangement",
        "forget",
        "skeleton",
        "explicit",
        "morphism",
        "group",
        "action_table_row",
        "field",
        "action",
        "center",
    ],
)
def test_unknown_key_exit_2(capsys, subcommand, model, key):
    code, out, err = run(capsys, [subcommand, json.dumps({**model, "schema": 1})])
    assert (code, out) == (2, "")
    assert f"key {key}" in err


def test_missing_file_exit_2(capsys, tmp_path):
    assert run(capsys, ["classify", str(tmp_path / "absent.json")])[0] == 2


def test_spec_from_file(capsys, tmp_path):
    path = tmp_path / "orbifold.json"
    path.write_text('{"schema": 1, "genus": 0, "cones": [2, 3]}', encoding="utf-8")
    code, env = run_json(capsys, ["classify", str(path)])
    assert code == 0
    assert env["report"]["classification"]["is_good"] == "no"


def test_argparse_errors_exit_2():
    with pytest.raises(SystemExit) as excinfo:
        main(["verify-cover"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["arrangement", "--builder", "nope", "--n", "2"])
    assert excinfo.value.code == 2


def test_unwritable_out_exit_2(capsys):
    code, out, err = run(capsys, ["classify", '{"schema":1}', "--out", "/nonexistent/report.json"])
    assert (code, out) == (2, "")
    assert err.startswith("orbconfig: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["groupoid", '{"schema":1,"type":"subgroup_cover","group":{"kind":"cyclic","n":2},"subgroup":[' + "[" * 900 + "]" * 900 + "]}"],
        ["classify", '{"schema":1,"genus":' + "[" * 100_000 + "]" * 100_000 + "}"],
    ],
    ids=["groupoid-900", "classify-100k"],
)
def test_json_nested_too_deep_exit_2(capsys, argv):
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert f"deeper than {cli.MAX_JSON_DEPTH} levels" in err


def test_json_nesting_bound_counts_brackets_outside_strings():
    at_bound = "[" * (cli.MAX_JSON_DEPTH - 1) + "]" * (cli.MAX_JSON_DEPTH - 1)
    assert cli._load_input('{"schema":1,"x":' + at_bound + "}")["schema"] == 1
    assert cli._load_input('{"schema":1,"x":"' + "[{" * 500 + '\\"["}')["schema"] == 1
    with pytest.raises(ValueError, match="deeper than"):
        cli._load_input('{"schema":1,"x":[' + at_bound + "]}")


@pytest.mark.parametrize(
    "order, action",
    [(2, {"kind": "negation", "n": 0}), (2, {"kind": "negation", "n": -4}), (4, {"kind": "rotation", "n": -4})],
    ids=["negation-0", "negation-minus-4", "rotation-minus-4"],
)
def test_groupoid_point_count_below_1_exit_2(capsys, order, action):
    model = {"schema": 1, "type": "skeleton", "group": {"kind": "cyclic", "n": order}, "action": action}
    code, out, err = run(capsys, ["groupoid", json.dumps(model)])
    assert (code, out) == (2, "")
    assert f"{action['kind']} n must be at least 1" in err


@pytest.mark.parametrize(
    "model",
    [
        {"type": "skeleton", "group": {"kind": "dihedral", "n": 4}, "action": {"kind": "rotation", "n": 8}},
        # [0, 2] names no Klein elements; it once passed as a subgroup of C4
        {"type": "morita", "group": {"kind": "klein"}, "action": {"kind": "rotation", "n": 4}, "n1": [0, 2], "n2": [0]},
    ],
    ids=["dihedral4", "klein"],
)
def test_groupoid_rotation_through_a_group_that_is_not_cyclic_exit_2(capsys, model):
    code, out, err = run(capsys, ["groupoid", json.dumps({"schema": 1, **model})])
    assert (code, out) == (2, "")
    assert "rotation acts through a cyclic group" in err


def test_classify_unknown_key_exit_2(capsys):
    code, out, err = run(capsys, ["classify", '{"schema":1,"genus":0,"cone_orders":[2,3]}'])
    assert (code, out) == (2, "")
    assert "'cone_orders'" in err


def test_missing_field_names_the_key(capsys):
    code, out, err = run(capsys, ["obstruction", '{"schema":1,"kind":"rotation"}'])
    assert (code, out) == (2, "")
    assert err == "orbconfig: missing field 'order'\n"


# ---------------------------------------------------------------------------
# Fuzzing: every argv and JSON input ends in a documented exit code
# ---------------------------------------------------------------------------

_C2 = {"kind": "cyclic", "n": 2}
FUZZ_SEEDS = {
    "classify": [{"schema": 1, "genus": 0, "punctures": 1, "cones": [3]}],
    "arrangement": [
        {
            "schema": 1,
            "dim": 2,
            "field": {"type": "Q"},
            "hyperplanes": [{"normal": ["1", "0"], "offset": "0"}, {"normal": ["0", "1"], "offset": "1/2"}],
        },
        {"schema": 1, "dim": 2, "field": {"type": "cyclotomic", "m": 3}, "hyperplanes": [{"normal": [1, -1]}]},
        {
            "schema": 1,
            "dim": 2,
            "field": {"type": "cyclotomic", "m": 3},
            "hyperplanes": [
                {"normal": [{"coeffs": ["1"]}, {"coeffs": ["0", "-1"]}]},
                {"normal": [{"coeffs": ["0"]}, {"coeffs": ["1"]}], "offset": {"coeffs": ["1/2", "1"]}},
            ],
        },
    ],
    "obstruction": [
        {"schema": 1, "kind": "rotation", "order": 2},
        {"schema": 1, "kind": "rotation", "order": 3, "center": {"re": "1/2", "im": "0"}},
        {"schema": 1, "kind": "sign_flip"},
    ],
    "groupoid": [
        {"schema": 1, "type": "subgroup_cover", "group": {"kind": "cyclic", "n": 4}, "subgroup": [0, 2]},
        {"schema": 1, "type": "morita", "group": {"kind": "klein"}, "n1": [[0, 0], [0, 1]], "n2": [[0, 0], [1, 0]]},
        {"schema": 1, "type": "skeleton", "group": _C2, "action": {"kind": "negation", "n": 6}},
        {"schema": 1, "type": "forget", "group": _C2, "action": {"kind": "rotation", "n": 4}, "n": 2},
        {
            "schema": 1,
            "type": "skeleton",
            "group": {"kind": "product", "factors": [_C2, _C2]},
            "action": {"kind": "table", "points": [0], "table": [{"g": [a, b], "x": 0, "y": 0} for a in (0, 1) for b in (0, 1)]},
        },
        explicit_cyclic3(),
    ],
}
FUZZ_KEYS = sorted(
    {key for seeds in FUZZ_SEEDS.values() for seed in seeds for key in seed}
    | {"normal", "offset", "m", "re", "im", "mode", "n", "factors", "g", "x", "y", "id", "src", "tgt", "reflectors"}
)
# a placeholder that the JSON text replaces by that many nested lists
_DEEP = "deep-nesting-{}"
_DEEP_TEXT = re.compile(r'"deep-nesting-(\d+)"')
_json_leaves = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-3, max_value=12)
    | st.floats(width=16)
    | st.sampled_from(["0", "1/2", "-3/4", "1/0", "x", "Q", "cyclotomic", "cyclic", "dihedral", "klein", "product",
                       "regular", "negation", "rotation", "table", "exact", "approx", "explicit", "forget", "g0"])
    | st.text(max_size=4)
    | st.integers(min_value=95, max_value=1100).map(_DEEP.format)
)
_json_values = st.recursive(
    _json_leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(FUZZ_KEYS) | st.text(max_size=3), inner, max_size=4),
    max_leaves=8,
)


def _containers(value):
    """The arrays and objects inside value, value first."""
    found = [value]
    for container in found:
        items = container.values() if isinstance(container, dict) else container
        found.extend(item for item in items if isinstance(item, (dict, list)))
    return found


@st.composite
def mutated_json(draw, subcommand):
    """JSON text of a valid input with up to three entries of its arrays and
    objects replaced, dropped or added."""
    doc = json.loads(json.dumps(draw(st.sampled_from(FUZZ_SEEDS[subcommand]))))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        parent = draw(st.sampled_from(_containers(doc)))
        keys = list(parent) if isinstance(parent, dict) else list(range(len(parent)))
        change = draw(st.sampled_from(["replace", "drop", "add"])) if keys else "add"
        value = draw(_json_values)
        if change == "add" and isinstance(parent, dict):
            parent[draw(st.sampled_from(FUZZ_KEYS))] = value
        elif change == "add":
            parent.append(value)
        elif change == "drop":
            del parent[draw(st.sampled_from(keys))]
        else:
            parent[draw(st.sampled_from(keys))] = value
    return re.sub(_DEEP_TEXT, lambda m: "[" * int(m[1]) + "]" * int(m[1]), json.dumps(doc))


# mostly valid option values, so most examples get past argparse
_option_values = st.one_of(
    st.integers(min_value=1, max_value=4).map(str),
    st.integers(min_value=-2, max_value=5).map(str),
    st.sampled_from(["x", "1.5", "nan", "inf", "1e-300", ""]),
)
_SHARED_OPTIONS = ["--format", "--out"]
_OWN_OPTIONS = {
    "arrangement": ["--builder", "--n", "--m"],
    "verify-cover": ["--n", "--seed", "--epsilon", "--samples", "--window"],
    "obstruction": ["--n"],
}
_ALL_OPTIONS = sorted(set(_SHARED_OPTIONS).union(*_OWN_OPTIONS.values()))


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    deep = root / "deep.json"
    deep.write_text('{"schema":1,"x":' + "[" * 100_000 + "]" * 100_000 + "}", encoding="utf-8")
    return {"deep": str(deep), "out": str(root / "report.json"), "dir": str(root)}


def _fuzz_argv(data, files) -> list:
    subcommand = data.draw(st.sampled_from(["classify", "arrangement", "verify-cover", "obstruction", "groupoid"]))
    argv = [subcommand]
    source = data.draw(st.integers(min_value=0, max_value=9))
    if subcommand == "verify-cover":
        argv.append(data.draw(st.sampled_from(["q", "squaring", "qE"]) if source < 8 else st.text(max_size=3)))
    elif subcommand == "arrangement" and source == 9:
        pass  # a --builder run, or no input at all
    elif source < 8:
        argv.append(data.draw(mutated_json(subcommand)))
    else:
        argv.append(data.draw(st.sampled_from([files["deep"], files["dir"], "/nonexistent/spec.json"]) | st.text(max_size=8)))
    options = _SHARED_OPTIONS + _OWN_OPTIONS.get(subcommand, [])
    if data.draw(st.integers(min_value=0, max_value=9)) == 0:
        # now and then an option the subcommand does not take, which argparse refuses
        options += [option for option in _ALL_OPTIONS if option not in options]
    for option in data.draw(st.lists(st.sampled_from(options), max_size=3, unique=True)):
        if option == "--builder":
            value = data.draw(st.sampled_from(["braid", "case1", "case3X", "nope"]))
        elif option == "--format":
            value = data.draw(st.sampled_from(["json", "table"]))
        elif option == "--out":
            value = data.draw(st.sampled_from([files["out"], files["dir"], "/nonexistent/report.json"]))
        else:
            value = data.draw(_option_values)
        argv += [option, value]
    return argv


def _refuse_non_json(token):
    """parse_constant for json.loads: Python reads Infinity, -Infinity and
    NaN, which are not JSON, so a report holding one fails here."""
    raise AssertionError(f"report holds the non-JSON token {token}")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_fuzzed_cli_ends_in_a_documented_exit_code(fuzz_files, data):
    argv = _fuzz_argv(data, fuzz_files)
    stdout, stderr = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
    except SystemExit as exc:  # argparse refusing the argv
        code = exc.code
    assert code in (0, 2, 3, 4, 5, 6), (argv, stderr.getvalue())
    out = stdout.getvalue()
    if code in (0, 5) and "--out" in argv:
        assert out == "", argv
        with open(fuzz_files["out"], encoding="utf-8") as report:
            out = report.read()
    if code not in (0, 5):
        assert out == "", argv
    elif "table" in argv:
        assert out.startswith("config:\n") and out.endswith("\n")
    else:
        envelope = json.loads(out, parse_constant=_refuse_non_json)
        assert set(envelope) == {"tool", "version", "config", "report"}
        assert out == json.dumps(envelope, sort_keys=True, separators=(",", ":")) + "\n"


@pytest.mark.parametrize("out", [False, True])
def test_non_finite_float_in_a_report_exits_2_without_output(capsys, monkeypatch, tmp_path, out):
    class Diverged:
        passed = True

        def to_json(self):
            return {"pass": True, "max_defect": float("inf")}

    monkeypatch.setattr(cli, "verify_cover", lambda *args, **kwargs: Diverged())
    target = tmp_path / "report.json"
    argv = ["verify-cover", "q", "--samples", "1"] + (["--out", str(target)] if out else [])
    code, stdout, stderr = run(capsys, argv)
    assert code == 2
    assert stdout == ""
    assert not target.exists()
    assert stderr.startswith("orbconfig: ") and "Traceback" not in stderr
