import ast
import decimal
import hashlib
import itertools
import json
import math
import os
import resource
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import ramcount
from ramcount import cli, counting
from ramcount.cli import _heavy_parts, main
from ramcount.cli import run_argv as run
from ramcount.counting import (
    INFINITY,
    CharClass,
    _four_closed,
    n_gen_recursive,
    validate_profile,
)
from ramcount.degeneration import MapFamily
from ramcount.schubert import intersection_number

pytestmark = pytest.mark.filterwarnings("ignore")


def run_json(argv):
    code, out = run(argv)
    assert code == 0, out
    return json.loads(out)


# README's four-simple-points family over F_3: x^3 + t x^2 over t x + (t - 1)
README_QUARTET = {
    "schema": 1, "p": 3, "k": 1,
    "F": "[(0),(0),(0,1),(1)]",
    "G": "[(2,1),(0,1)]",
    "sections": [{"num": "0", "order": 2}, {"point": "inf", "order": 2},
                 {"num": "1", "order": 2}, {"num": "2,1", "order": 2}],
}


class TestMain:
    def test_success_goes_to_stdout(self, capsys):
        argv = ["count", "--p", "3", "--orders", "2,2,2,2", "--format", "text"]
        assert main(argv) == 0
        assert capsys.readouterr() == (run(argv)[1], "")

    @pytest.mark.parametrize("argv,code", [
        (["count", "--p", "4", "--orders", "2,2,2,2"], 1),
        (["search", "--p", "5", "--k", "2", "--orders", "2,2,2,2", "--budget", "10"], 2),
    ])
    def test_failure_goes_to_stderr(self, capsys, argv, code):
        assert main(argv) == code
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestCount:
    def test_four_simple_points_char3(self):
        payload = run_json(["count", "--p", "3", "--orders", "2,2,2,2"])
        assert payload["count"] == 1
        assert payload["class"] == "MID"

    def test_infinity(self):
        payload = run_json(["count", "--p", "inf", "--orders", "2,2,3,3"])
        assert payload["count"] == 2

    def test_json_payload(self):
        payload = run_json(["count", "--p", "5", "--orders", "2,2,2,2"])
        assert payload == {"schema": 1, "class": "HIGH", "count": 2, "d": 3,
                           "orders": [2, 2, 2, 2], "p": 5,
                           "trace": [{"dprime": 2, "e": 1}, {"dprime": 3, "e": 3}]}

    def test_p2_rejected(self):
        code, out = run(["count", "--p", "2", "--orders", "2,2,2,2"])
        assert code == 1
        assert "error" in out

    def test_parity_rejected(self):
        code, _ = run(["count", "--p", "5", "--orders", "2,2,2"])
        assert code == 1

    def test_low_char_unknown(self):
        payload = run_json(["count", "--p", "3", "--orders", "2,2,5,5"])
        assert payload["count"] == "unknown"

    def test_text_format(self):
        code, out = run(["count", "--p", "3", "--orders", "2,2,2,2",
                         "--format", "text"])
        assert code == 0 and "= 1" in out

    def test_csv_format_is_a_usage_error(self, capsys):
        # only table writes CSV; argparse refuses the choice elsewhere
        code, out = run(["count", "--p", "3", "--orders", "2,2,2,2",
                         "--format", "csv"])
        assert (code, out) == (1, "")
        assert "invalid choice: 'csv'" in capsys.readouterr().err

    def test_deep_simple_orders(self):
        # 1100 simple points (d = 551) give the Catalan number C_550; the
        # count is one series coefficient, so no stack depth limits it
        payload = run_json(["count", "--p", "inf", "--orders", ",".join(["2"] * 1100)])
        assert payload["count"] == math.comb(1100, 550) // 551

    def test_large_prime_answers_fast(self):
        # 2^61 - 1 is proved prime by Miller-Rabin, not by trial division
        start = time.perf_counter()
        code, out = run(["count", "--p", str(2 ** 61 - 1), "--orders", "2,2,2,2",
                         "--format", "text"])
        assert time.perf_counter() - start < 1
        assert (code, out) == (0, "N_gen(2, 2, 2, 2) at p=2305843009213693951 [HIGH] = 2\n")

    def test_primality_beyond_its_limit_refused(self):
        limit = 3_317_044_064_679_887_385_961_981  # psi_13, composite
        assert run(["count", "--p", str(limit), "--orders", "2,2,2,2"]) == (
            1, f"error: cannot decide whether {limit} is prime: "
               f"primality is decided below {limit}\n")
        # a factor <= 41 still decides, with the usual message
        assert run(["count", "--p", str(3 * limit), "--orders", "2,2,2,2"]) == (
            1, f"error: p must be a prime >= 3 or INFINITY, got {3 * limit}\n")


class TestSchubert:
    def test_catalan_at_d_600(self):
        payload = run_json(["schubert", "--d", "600", "--orders", ",".join(["2"] * 1198)])
        assert payload["count"] == math.comb(1198, 599) // 600

    def test_catalan_at_d_3000(self):
        payload = run_json(["schubert", "--d", "3000", "--orders", ",".join(["2"] * 5998)])
        assert payload["count"] == math.comb(5998, 2999) // 3000

    def test_stdout_pinned_at_d_450(self):
        # the benchmark's largest schubert op; the digest of its stdout was
        # recorded from the Pieri-step implementation of intersection_number
        code, out = run(["schubert", "--d", "450", "--orders", ",".join(["2"] * 898)])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "173199cfdb264dc08a13aa6a4d3387c174fee681332857ad3ca3c82281fd2825"

    def test_catalan_beyond_4300_digits(self):
        # C_7199 has 4329 digits, more than Python converts to str by
        # default; Decimal parses it without that cap
        limit = sys.get_int_max_str_digits()
        code, out = run(["schubert", "--d", "7200", "--format", "text",
                         "--orders", ",".join(["2"] * 14398)])
        assert sys.get_int_max_str_digits() == limit
        assert code == 0 and len(out.strip()) == 4329
        assert decimal.Decimal(out) == math.comb(14398, 7199) // 7200

    @pytest.mark.parametrize("argv", [
        ["schubert", "--d", "9" * 5000, "--orders", "2,2"],
        ["count", "--p", "inf", "--orders", "9" * 5000 + ",2"],
    ])
    def test_5000_digit_argument_is_refused(self, argv, capsys):
        # argv is parsed under the 4300-digit cap
        limit = sys.get_int_max_str_digits()
        code, out = run(argv)
        assert sys.get_int_max_str_digits() == limit
        assert code in (1, 2)
        assert "error:" in out + capsys.readouterr().err

    def test_four_simple(self):
        payload = run_json(["schubert", "--d", "3", "--orders", "2,2,2,2"])
        assert payload["count"] == 2

    def test_codim_mismatch(self):
        code, _ = run(["schubert", "--d", "3", "--orders", "2,2"])
        assert code == 1


class TestSolve3:
    def test_high(self):
        payload = run_json(["solve3", "--p", "5", "--orders", "2,2,3"])
        assert payload["m"] == 0
        assert payload["count"] == 1
        assert payload["separable"] is True

    def test_char3_inseparable(self):
        payload = run_json(["solve3", "--p", "3", "--k", "2", "--orders", "2,2,3"])
        assert payload["count"] == 0
        assert payload["separable"] is False

    def test_positive_dimensional(self):
        # d = 4: the pencils with order 3 at 0, inf and 1 over F_3 form a P^1,
        # so there is no unique pencil to classify
        payload = run_json(["solve3", "--p", "3", "--orders", "3,3,3"])
        assert (payload["m"], payload["count"]) == (1, 0)
        assert payload["pencil"] is None and payload["separable"] is None

    def test_over_budget_system_exits_2(self, monkeypatch, capsys):
        # d = 5: the system has (2d + 1)(2d + 2) = 132 entries
        monkeypatch.setenv("RAMCOUNT_BUDGET", "100")
        argv = ["solve3", "--p", "3", "--orders", "1,5,5"]
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 0.1
        assert capsys.readouterr() == ("", "error: 132 system entries exceed budget 100\n")
        monkeypatch.setenv("RAMCOUNT_BUDGET", "200")
        assert run_json(argv)["count"] == 1

    def test_order_above_d_exits_1_within_any_budget(self, monkeypatch):
        monkeypatch.setenv("RAMCOUNT_BUDGET", "1")
        assert run(["solve3", "--p", "3", "--orders", "1,7,3"]) == (
            1, "error: order e = 7 outside 1..d\n")


class TestSearch:
    def test_explicit_points(self):
        payload = run_json(["search", "--p", "3", "--k", "2", "--orders",
                            "2,2,2,2", "--points", "00,inf,01,10"])
        assert payload["separable"] == 1
        assert payload["inseparable"] == 1

    def test_sampled_points_deterministic(self):
        a = run(["search", "--p", "5", "--k", "2", "--orders", "2,2,2,2",
                 "--seed", "11"])
        b = run(["search", "--p", "5", "--k", "2", "--orders", "2,2,2,2",
                 "--seed", "11"])
        assert a == b and a[0] == 0

    def test_budget_exit_code(self):
        code, out = run(["search", "--p", "5", "--k", "2", "--orders",
                         "2,2,2,2", "--points", "00,inf,01,02",
                         "--budget", "10"])
        assert code == 2

    def test_budget_env_var(self, monkeypatch):
        monkeypatch.setenv("RAMCOUNT_BUDGET", "10")
        code, _ = run(["search", "--p", "5", "--k", "2", "--orders",
                       "2,2,2,2", "--points", "00,inf,01,02"])
        assert code == 2
        monkeypatch.setenv("RAMCOUNT_BUDGET", "1000000")
        code, _ = run(["search", "--p", "5", "--k", "2", "--orders",
                       "2,2,2,2", "--points", "00,inf,01,02"])
        assert code == 0

    @pytest.mark.parametrize("env", ["10^9", "0"])
    def test_budget_env_var_must_be_a_positive_integer(self, monkeypatch, env):
        monkeypatch.setenv("RAMCOUNT_BUDGET", env)
        argv = ["search", "--p", "5", "--orders", "2,2,2,2", "--points", "0,inf,1,2"]
        assert run(argv) == (
            1, f"error: RAMCOUNT_BUDGET must be an integer >= 1, got {env!r}\n")
        # an explicit --budget takes precedence, and count reads no budget
        assert run(argv + ["--budget", "1000"])[0] == 0
        assert run(["count", "--p", "5", "--orders", "2,2,2,2"])[0] == 0

    def test_mismatched_lengths(self):
        code, _ = run(["search", "--p", "5", "--orders", "2,2,2,2",
                       "--points", "0,1"])
        assert code == 1

    @pytest.mark.parametrize("point", ["000", "0a"])
    def test_point_must_be_k_digits(self, point):
        assert run(["search", "--p", "3", "--k", "2", "--orders", "2,2,2,2",
                    "--points", f"{point},inf,01,10"]) == (
            1, f"error: element {point!r} must be at most 2 base-3 digits\n")

    def test_field_beyond_the_sampling_range_is_refused(self):
        # 3^40 > sys.maxsize: random.sample cannot draw from range(q)
        code, out = run(["search", "--p", "3", "--k", "40", "--orders", "2,2,3"])
        assert code == 1
        assert out.startswith("error: field of size 12157665459056928801 too large")
        assert out.count("\n") == 1

    def test_sampled_points_below_the_sampling_range(self):
        # 3^39 < sys.maxsize: the refusal above must not move the points
        # drawn from any smaller field (pinned values)
        from ramcount.algebra import finite_field
        from ramcount.pencil import sample_general_points

        points = sample_general_points(3, finite_field(3, 39), 0)
        assert [pt.i for pt in points] == [
            1776630401191380941, 186701255205885013, 2240945956782794338]


class TestFamilyTransform:
    def test_family_and_transform(self, tmp_path):
        out_path = tmp_path / "family.json"
        payload = run_json(["family", "--p", "3", "--k", "2",
                            "--f", "0,1,0,0,0,1", "--g", "1",
                            "--out", str(out_path)])
        assert payload["members"] == 9
        assert payload["distinct_pencils"] == 9
        assert payload["ramification"]["inf"] == 5
        assert out_path.exists()

        # the written family is not an inseparable-limit family, so a raw
        # transform step must fail cleanly
        code, out = run(["transform", "--family", str(out_path)])
        assert code == 1

    def test_family_profiles_the_map_once(self, monkeypatch):
        # member 0 of f - t x^p is f itself, which the family builder has
        # already profiled: the splitting field is scanned once
        import ramcount.cli
        import ramcount.degeneration

        calls = []
        profile = ramcount.degeneration.ramification_profile

        def counted(rmap):
            calls.append(rmap)
            return profile(rmap)

        for module in (ramcount.degeneration, ramcount.cli):
            monkeypatch.setattr(module, "ramification_profile", counted, raising=False)
        payload = run_json(["family", "--p", "3", "--k", "2", "--f", "0,1,0,0,0,1"])
        assert payload["ramification"]["inf"] == 5
        assert len(calls) == 1

    def test_family_stdout_over_a_large_splitting_field(self):
        # the Wronskian's roots lie in F_{7^6}, of 117,649 elements; the
        # stdout was recorded when the roots were found by scanning it, and
        # the sections are infinity and the two roots 1 and 5 that lie in F_7
        code, out = run(["family", "--p", "7", "--f", "0,1,0,0,0,0,0,0,1,0,0,0,1"])
        assert code == 0
        assert out == (
            '{"F":"[(0),(1),(0),(0),(0),(0),(0),(0,6),(1),(0),(0),(0),(1)]",'
            '"G":"[(1)]","distinct_pencils":7,"k":1,"members":7,"p":7,'
            '"ramification":{"000001":2,"000005":2,"000101":2,"000201":2,'
            '"000401":2,"135252":2,"255462":2,"362142":2,"465132":2,"552412":2,'
            '"632222":2,"inf":12},"schema":1,'
            '"sections":[{"order":12,"point":"inf"},{"num":"1","order":2},'
            '{"num":"5","order":2}]}\n')

    def test_family_refuses_a_finite_order_at_least_p(self):
        # x^4 over F_3: order 4 at infinity is tame and above p, but order 4
        # at 0 is not below p
        assert run(["family", "--p", "3", "--f", "0,0,0,0,1"]) == \
            (1, "error: finite ramification order 4 at 0 is not < p\n")

    def test_family_over_a_field_with_no_irreducible_binomial(self):
        # 3 does not divide 65537 - 1, so no x^3 + c is irreducible: the
        # modulus search skips them, and x over F_{65537^3} is refused at once
        start = time.perf_counter()
        assert run(["family", "--p", "65537", "--k", "3", "--f", "0,1"]) == \
            (1, "error: order at infinity must exceed p: got 1 <= 65537\n")
        assert time.perf_counter() - start < 1

    @staticmethod
    def _quintic(k):
        return ["family", "--p", "3", "--k", str(k), "--f", "0,1,0,0,0,1",
                "--format", "text"]

    def test_family_splits_within_the_shared_budget(self, monkeypatch):
        # the profile check splits the Wronskian of x^5 + x over F_{3^14},
        # within the default budget of 10^7 that censuses and tables obey
        monkeypatch.delenv("RAMCOUNT_BUDGET", raising=False)
        assert run(self._quintic(7)) == \
            (0, "members = 2187\ndistinct_pencils = 2187\n")

    def test_family_obeys_the_environment_budget(self, monkeypatch):
        # over F_{3^9} the Wronskian splits over F_{3^18}, above 10^7
        monkeypatch.setenv("RAMCOUNT_BUDGET", str(10 ** 9))
        assert run(self._quintic(9)) == \
            (0, "members = 19683\ndistinct_pencils = 19683\n")
        monkeypatch.setenv("RAMCOUNT_BUDGET", str(10 ** 6))
        assert run(self._quintic(7)) == \
            (2, "error: splitting field F_{3^m} with m >= 14 exceeds budget 1000000\n")

    def test_family_counts_pencils_without_building_members(self):
        # the q members of f - t x^p are q distinct pencils, so F_{3^12}
        # (531,441 members, on the raw digit routines) answers at once;
        # the timeout turns a member-by-member run into a failure
        src = str(Path(ramcount.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-m", "ramcount.cli", "family", "--p", "3", "--k", "12",
             "--f", "0,1,0,0,0,1", "--format", "text"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
            timeout=30)
        assert out.returncode == 0, out.stderr
        assert out.stdout == "members = 531441\ndistinct_pencils = 531441\n"

    def test_family_refuses_a_shared_irreducible_factor(self, monkeypatch):
        # f = x h and g = h with h = x^3 + x + 1, irreducible over F_101: the
        # shared factor is refused by its degree, though its roots lie in
        # F_{101^3}, over the budget
        monkeypatch.setenv("RAMCOUNT_BUDGET", str(101 ** 3 - 1))
        assert run(["family", "--p", "101", "--f", "0,1,1,0,1", "--g", "1,1,0,1"]) == \
            (1, "error: input pair must be coprime\n")

    def test_transform_analyze(self, tmp_path):
        fam_payload = {
            "schema": 1, "p": 3, "k": 1,
            "F": "[(0),(0),(0,1),(1)]",       # x^3 + t x^2
            "G": "[(2,1),(0,1)]",             # t x + (t - 1)
            "sections": [
                {"num": "0", "order": 2},
                {"point": "inf", "order": 2},
                {"num": "1", "order": 2},
                {"num": "2,1", "order": 2},
            ],
        }
        path = tmp_path / "fam.json"
        path.write_text(json.dumps(fam_payload))
        payload = run_json(["transform", "--family", str(path), "--analyze"])
        assert payload["iterations"] >= 1
        assert payload["hypotheses_ok"] is False

    def test_transform_analyze_refuses_a_failed_limit_law(self, tmp_path):
        # the marked sections pass every hypothesis check, yet the limit has
        # ramification that none of them shows, so the limit laws fail
        path = tmp_path / "fam.json"
        path.write_text(json.dumps({
            "schema": 1, "p": 3,
            "F": "[(1,1),(2,2)]", "G": "[(0),(0),(0),(1,1),(2)]",
            "sections": [{"num": "1", "order": 1}, {"num": "1,1", "order": 1}]}))
        code, out = run(["transform", "--family", str(path), "--analyze"])
        assert code == 1
        assert out.startswith("error: limit law failed: ") and out.count("\n") == 1
        assert "e_infinity = 2 != 2m-1 = 5" in out

    def test_transform_analyze_warns_on_marked_orders_and_collisions(self, tmp_path):
        # README's quartet with an order 3 = p at 0, and t and 2t, which also
        # meet 0 at t = 0: the failed limit laws are warnings, not an error
        path = tmp_path / "fam.json"
        path.write_text(json.dumps(dict(README_QUARTET, sections=[
            {"num": "0", "order": 3}, {"point": "inf", "order": 2},
            {"num": "0,1", "order": 1}, {"num": "0,2", "order": 1}])))
        payload = run_json(["transform", "--family", str(path), "--analyze"])
        assert payload["hypotheses_ok"] is False
        assert payload["warnings"] == [
            "marked order 3 is not < p", "a marked section meets infinity",
            "more than two sections collide", "e_infinity = 4 != 2m-1 = 5",
            "degree bookkeeping 2d~-2 = 2d-2+e_inf-1 failed"]

    def test_other_arithmetic_errors_propagate(self, tmp_path, monkeypatch):
        # only the limit-law refusal is an input error: a fault in the
        # arithmetic stays a traceback
        def fail(fam):
            raise ZeroDivisionError("inverting zero")
        monkeypatch.setattr(cli, "analyze_limit", fail)
        path = tmp_path / "fam.json"
        path.write_text(json.dumps(README_QUARTET))
        with pytest.raises(ZeroDivisionError):
            run(["transform", "--family", str(path), "--analyze"])

    def test_transform_one_step(self, tmp_path):
        # README's quartet family: one step removes the t in the Wronskian
        # and leaves a separable special fiber
        path = tmp_path / "fam.json"
        path.write_text(json.dumps(README_QUARTET))
        before = MapFamily.from_json(README_QUARTET)
        assert before.wronskian().t_valuation() == 1
        assert not before.special_fiber_separable()
        payload = run_json(["transform", "--family", str(path)])
        after = MapFamily.from_json(payload)
        assert after.wronskian().t_valuation() == 0
        assert after.special_fiber_separable()
        assert payload["sections"] == README_QUARTET["sections"]

        # --format text falls back to one sorted `key = value` line per key,
        # with list and dict values as JSON, so each line reads back
        code, out = run(["transform", "--family", str(path), "--format", "text"])
        assert code == 0
        lines = dict(line.split(" = ", 1) for line in out.splitlines())
        assert list(lines) == sorted(payload)
        assert (lines["F"], lines["G"]) == (payload["F"], payload["G"])
        assert json.loads(lines["sections"]) == payload["sections"]

    @pytest.mark.parametrize("F", [
        "[(0),(0),(0),(1)]",        # x^3, constant in t
        "[(0,0,1),(0),(0),(1)]",    # x^3 + t^2
    ])
    def test_inseparable_generic_fiber_refused(self, tmp_path, F):
        # one transform step needs a separable generic fiber, as --analyze does
        path = tmp_path / "fam.json"
        path.write_text(json.dumps({"schema": 1, "p": 3, "F": F, "G": "[(1)]"}))
        for analyze in ([], ["--analyze"]):
            assert run(["transform", "--family", str(path)] + analyze) == \
                (1, "error: generic fiber must be separable\n")

    def test_missing_file(self):
        code, _ = run(["transform", "--family", "/nonexistent.json"])
        assert code == 1

    def test_empty_family_path(self, capsys):
        # argparse checks only that --family is given: an empty path is
        # refused by transform itself, before any file is opened
        assert main(["transform", "--family", ""]) == 1
        assert capsys.readouterr() == ("", "error: transform needs --family <path>\n")

    def test_family_json_not_an_object(self, tmp_path):
        path = tmp_path / "fam.json"
        path.write_text("[1, 2]")
        assert run(["transform", "--family", str(path)]) == \
            (1, "error: family JSON must be an object\n")

    def test_one_member_vanishing_at_t0(self, tmp_path):
        # the family x/t: only G vanishes at t = 0, and the limit pencil is
        # <x, 1>, already separable
        path = tmp_path / "fam.json"
        path.write_text(json.dumps({"p": 3, "F": "[(0),(1)]", "G": "[(0,1)]"}))
        payload = run_json(["transform", "--family", str(path), "--analyze"])
        assert payload["iterations"] == 0 and payload["separable_limit"]
        code, out = run(["transform", "--family", str(path)])
        assert (code, out) == (1, "error: special fiber is already separable\n")

    def test_shared_factor_refused_in_bounded_time(self, tmp_path):
        # F = (x - t) x and G = x - t share x - t over k(t).  The family
        # is refused once more values of t fail than the resultant's degree
        # allows, not after a scan of all 3001^2 values of F_{3001^2}; the
        # timeout turns such a scan into a failure instead of a hang
        path = tmp_path / "fam.json"
        path.write_text(json.dumps({"schema": 1, "p": 3001,
                                    "F": "[(0),(0,3000),(1)]", "G": "[(0,3000),(1)]"}))
        src = str(Path(ramcount.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-m", "ramcount.cli", "transform", "--family", str(path)],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
            timeout=30)
        assert out.returncode == 1
        assert out.stderr == "error: family members share a factor over k(t)\n"

    def _transform_payload(self, tmp_path, **changes):
        payload = {"schema": 1, "p": 3, "k": 1,
                   "F": "[(0),(0),(0,1),(1)]", "G": "[(2,1),(0,1)]",
                   "sections": [{"num": "0", "order": 2},
                                {"point": "inf", "order": 2}]}
        payload.update(changes)
        path = tmp_path / "fam.json"
        path.write_text(json.dumps(payload))
        return run(["transform", "--family", str(path), "--analyze"])

    @pytest.mark.parametrize("F", [
        "[(0),(0),(0,1),(1),x]", "[junk(0),(0),(0,1),(1)]",
        "[(0),(0),,(0,1),(1)]", "[(0),(0),(0,1),(1))]"])
    def test_malformed_family_text(self, tmp_path, F):
        code, out = self._transform_payload(tmp_path, F=F)
        assert code == 1
        assert out.startswith("error:") and "family polynomial" in out

    def test_family_polynomial_not_a_string(self, tmp_path):
        code, out = self._transform_payload(tmp_path, F=5)
        assert code == 1
        assert out.startswith("error:") and "'F'" in out

    def test_section_without_order(self, tmp_path):
        code, out = self._transform_payload(
            tmp_path, sections=[{"num": "0", "order": 2}, {"num": "1"}])
        assert code == 1
        assert out.startswith("error:") and "sections[1]" in out \
            and "'order'" in out

    @pytest.mark.parametrize("changes,field", [
        ({"p": "three"}, "'p'"),
        ({"k": None}, "'k'"),
        ({"G": None}, "'G'"),
        ({"sections": {"num": "0"}}, "'sections'"),
        ({"sections": ["inf"]}, "sections[0]"),
        ({"sections": [{"order": 2}]}, "'num'"),
        ({"sections": [{"num": 0, "order": 2}]}, "'num'"),
        ({"sections": [{"num": "0", "den": 1, "order": 2}]}, "'den'"),
        ({"sections": [{"point": "inf", "order": "2"}]}, "'order'"),
        # a section the format cannot mean
        ({"sections": [{"num": "0", "order": -3}]}, "sections[0]: field 'order'"),
        ({"sections": [{"point": "inf", "order": 0}]}, "sections[0]: field 'order'"),
        ({"sections": [{"num": "0", "den": "0", "order": 2}]},
         "sections[0]: fields 'num' and 'den'"),
        # two faults: every field is checked before F is parsed
        ({"F": "[x]", "sections": [{"num": "0"}]}, "sections[0]: missing field 'order'"),
        # a finite section is num/den: the only named point is "inf"
        ({"sections": [{"point": "0", "num": "1", "order": 2}]},
         "sections[0]: field 'point'"),
        ({"sections": [{"num": "0", "order": 2}, {"point": 7, "num": "2", "order": 1}]},
         "sections[1]: field 'point'"),
        # and the point at infinity has no num or den
        ({"sections": [{"point": "inf", "num": "1", "order": 2}]},
         "sections[0]: field 'num'"),
        ({"sections": [{"num": "0", "order": 2}, {"point": "inf", "den": "1", "order": 2}]},
         "sections[1]: field 'den'"),
    ])
    def test_family_schema_errors_name_the_field(self, tmp_path, changes, field):
        code, out = self._transform_payload(tmp_path, **changes)
        assert code == 1
        assert out.startswith("error:") and field in out


class TestTable:
    def test_csv_shape_and_values(self):
        code, out = run(["table", "--p", "3,5,inf", "--d", "4", "--n-max", "4"])
        assert code == 0
        lines = out.strip().split("\n")
        header = lines[0].split(",")
        assert header == ["schema", "orders", "n", "d", "p", "class", "count",
                          "closed4", "schubert", "match", "reason"]
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        lookup = {(r["orders"], r["p"]): r for r in rows}
        r = lookup[("2 2 2 2", "5")]
        assert r["count"] == "2" and r["closed4"] == "2" and r["match"] == "true"
        r = lookup[("2 2 2 2", "inf")]
        assert r["count"] == "2" and r["schubert"] == "2" and r["match"] == "true"
        r = lookup[("2 2 3 3", "inf")]
        assert r["count"] == "2" and r["schubert"] == "2" and r["match"] == "true"
        r = lookup[("2 2 3", "3")]
        assert r["count"] == "0" and r["reason"] == "wild excluded"
        r = lookup[("1 1 4 4", "3")]  # tame low range: no formula applies
        assert r["count"] == "unknown" and r["class"] == "LOW"

    def test_deterministic(self):
        a = run(["table", "--p", "3,5,7", "--d", "4"])
        b = run(["table", "--p", "3,5,7", "--d", "4"])
        assert a == b

    def test_json_format(self):
        code, out = run(["table", "--p", "3", "--d", "3", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == 1 and payload["rows"]

    def test_text_format_is_the_csv(self, capsys):
        # text has no line format of its own here: it prints the CSV, byte
        # for byte, as README and --help say
        argv = ["table", "--p", "3,5,inf", "--d", "6", "--n-max", "4"]
        csv_out = run(argv)
        assert csv_out[0] == 0 and csv_out[1].startswith("schema,orders,")
        assert run(argv + ["--format", "text"]) == csv_out
        assert run(argv + ["--format", "csv"]) == csv_out
        assert run(["table", "--help"]) == (0, "")
        assert "text prints the CSV, byte for byte" in " ".join(
            capsys.readouterr().out.split())

    def test_a_disagreeing_closed_form_reads_false(self, monkeypatch):
        # match compares closed4 with the count: off by one, every closed4
        # row reads false, and the others are unchanged
        argv = ["--p", "3,7,inf", "--d", "6", "--n-max", "5"]
        before = self._rows(argv)
        monkeypatch.setattr(cli, "_four_closed",
                            lambda orders, p, d: _four_closed(orders, p, d) + 1)
        after = self._rows(argv)
        assert any(r["closed4"] != "" for r in before)
        for old, new in zip(before, after, strict=True):
            if old["closed4"] == "":
                assert new == old
            else:
                assert new["closed4"] == old["closed4"] + 1 and new["match"] == "false"

    def test_no_cross_check_failures(self):
        # every populated closed-form / Schubert column must agree
        code, out = run(["table", "--p", "3,5,7,11,13,inf", "--d", "8",
                         "--n-max", "5", "--format", "json"])
        assert code == 0
        rows = json.loads(out)["rows"]
        assert len(rows) > 400
        assert all(r["match"] != "false" for r in rows)
        assert any(r["match"] == "true" for r in rows)

    @pytest.mark.parametrize("argv", [
        ["--p", "9", "--d", "8", "--n-max", "2"],  # no profile to print
        ["--p", "4", "--d", "1"],
    ])
    def test_bad_prime_is_refused_before_enumerating(self, argv):
        code, out = run(["table"] + argv)
        assert code == 1
        assert out == f"error: p must be a prime >= 3 or INFINITY, got {argv[1]}\n"

    @staticmethod
    def _oracle_profiles(n_max, d_max):
        # the plain filter over every multiset of orders in 1..d_max
        for n in range(3, n_max + 1):
            for orders in itertools.combinations_with_replacement(
                    range(1, d_max + 1), n):
                total = sum(e - 1 for e in orders)
                if total % 2 or total == 0:
                    continue
                d = 1 + total // 2
                if d > d_max or any(e > d for e in orders):
                    continue
                yield orders, d

    @staticmethod
    def _heavy(n_max, d_max):
        # the table's heavy parts, degree by degree, as (heavy, d)
        if n_max < 3:
            return []
        return [(heavy, d) for d in range(2, d_max + 1)
                for heavy in _heavy_parts(2 * (d - 1), n_max, d - 1)]

    @staticmethod
    def _rows(argv):
        code, out = run(["table"] + argv + ["--format", "json"])
        assert code == 0, out
        return json.loads(out)["rows"]

    def test_heavy_parts_are_the_partitions(self):
        # every partition of total into at most `most` parts a <= top, as
        # nondecreasing orders a + 1, each once, against the filter
        for most, top in itertools.product(range(1, 8), range(1, 12)):
            want = {}
            for n in range(1, most + 1):
                for orders in itertools.combinations_with_replacement(
                        range(2, top + 2), n):
                    want.setdefault(sum(orders) - n, set()).add(orders)
            for total in range(1, 13):
                got = list(_heavy_parts(total, most, top))
                assert len(got) == len(set(got)), (total, most, top)
                assert set(got) == want.get(total, set()), (total, most, top)

    def test_profiles_match_the_filter(self):
        # the (orders, d) the table prints, padded with order-1 entries from
        # the heavy parts, against the filter; and the heavy parts themselves
        for n_max in range(-1, 8):
            for d_max in range(-1, 11):
                rows = self._rows(["--p", "3", "--d", str(d_max),
                                   "--n-max", str(n_max)])
                got = [(tuple(map(int, r["orders"].split())), r["d"]) for r in rows]
                want = set(self._oracle_profiles(n_max, d_max))
                assert len(got) == len(set(got)), (n_max, d_max)
                assert set(got) == want, (n_max, d_max)
                assert all(r["n"] == len(orders) for r, (orders, _) in zip(rows, got))
                heavy = self._heavy(n_max, d_max)
                assert len(heavy) == len(set(heavy)), (n_max, d_max)
                assert set(heavy) == {(o[o.count(1):], d) for o, d in want}, \
                    (n_max, d_max)

    def test_profile_counts(self):
        # the benchmark's sweep: 212 orders from 111 heavy parts; and a long
        # run of order-1 entries
        rows = self._rows(["--p", "inf", "--d", "8", "--n-max", "5"])
        assert len(rows) == 212
        assert len(self._heavy(5, 8)) == 111
        code, out = run(["table", "--p", "3", "--d", "2", "--n-max", "1500"])
        assert code == 0
        assert out.count("\n") == 1499  # (1, ..., 1, 2, 2) for 3 <= n <= 1500

    @pytest.mark.parametrize("ps, twice", [
        ("3,3", "3"), ("inf,5,inf", "inf"), ("5,3,7,3", "3")])
    def test_repeated_prime_is_refused(self, ps, twice):
        # each (orders, p) is one row: a prime listed twice would print its
        # rows twice
        code, out = run(["table", "--p", ps, "--d", "3", "--n-max", "4"])
        assert (code, out) == (1, f"error: p = {twice} is listed twice\n")
        # before any walk: a table over the budget is refused for it too
        code, out = run(["table", "--p", ps, "--d", str(10 ** 9), "--n-max", "4"])
        assert (code, out) == (1, f"error: p = {twice} is listed twice\n")

    @staticmethod
    def _per_row(orders, d, p):
        # every row on its own, from its padded orders: the per-row path
        # that the cells shared by a heavy part's rows must reproduce
        n = len(orders)
        if p > d:
            profile = validate_profile(orders, INFINITY)
            char_class, count, reason = CharClass.HIGH, intersection_number(d, orders), ""
        else:
            profile = validate_profile(orders, p)
            result = n_gen_recursive(profile)
            char_class, count = result.char_class, result.value
            wild = any(e % p == 0 for e in orders)
            reason = "wild excluded" if wild else result.reason
        closed4 = ""
        if n == 4 and char_class is not CharClass.LOW:
            closed4 = _four_closed(profile.orders, profile.p, profile.d)
        schubert = intersection_number(d, orders) if p == INFINITY else ""
        checks = [v for v in (closed4, schubert) if v != ""]
        match = ""
        if checks:
            match = "true" if all(v == count for v in checks) else "false"
        return {"class": char_class.value, "count": count,
                "closed4": closed4, "schubert": schubert, "match": match,
                "reason": reason}

    def test_rows_match_the_per_row_path(self):
        # each row reuses its heavy part's count; every column must be what
        # the row's own orders give.  The second table has MID cells at
        # primes whose fold has reflected terms (d - 1 >= p)
        for argv, primes, n_max, d_max in [
                (["--p", "3,5,7,11,inf", "--d", "9", "--n-max", "6"], 5, 6, 9),
                (["--p", "11,13,inf", "--d", "14", "--n-max", "4"], 3, 4, 14)]:
            rows = self._rows(argv)
            assert len(rows) == primes * len(list(self._oracle_profiles(n_max, d_max)))
            assert any(r["class"] == "MID" and r["d"] - 1 >= int(r["p"])
                       for r in rows), argv
            for r in rows:
                orders = tuple(map(int, r["orders"].split()))
                p = INFINITY if r["p"] == "inf" else int(r["p"])
                want = self._per_row(orders, r["d"], p)
                assert {k: r[k] for k in want} == want, r

    @pytest.mark.parametrize("argv, digest", [
        # recorded from the per-row implementation, which ran the engines
        # on every padded orders
        (["--p", "3,5,7,inf", "--d", "8", "--n-max", "5"],
         "b3008373857de34ea6acb631eba211cb1d055a20a6c11fbc1bf83e6c116b3adb"),
        (["--p", "3,inf", "--d", "8", "--n-max", "30", "--format", "json"],
         "1f30ae9d4b173ff2fee94948501b8e6f4ae8194fdb6a0d1f39b4ed23c9f52e50"),
    ])
    def test_pinned_output(self, argv, digest):
        code, out = run(["table"] + argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("p, orders, json_line, text_line", [
        # recorded when RamProfile still carried the class and the wild and
        # oversized orders: one profile per outcome of count
        ("7", "2,2,3",
         '{"class":"HIGH","count":1,"d":3,"orders":[2,2,3],"p":7,"schema":1,"trace":[]}',
         "N_gen(2, 2, 3) at p=7 [HIGH] = 1"),
        # MID with reflected fold terms: d - 1 = 6 >= p
        ("5", ",".join(["2"] * 12),
         '{"class":"MID","count":89,"d":7,"orders":[2,2,2,2,2,2,2,2,2,2,2,2],"p":5,'
         '"schema":1,"trace":[{"dprime":6,"e":1},{"dprime":7,"e":3}]}',
         "N_gen(2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2) at p=5 [MID] = 89"),
        ("3", "2,2,5,5",
         '{"class":"LOW","count":"unknown","d":6,"orders":[2,2,5,5],"p":3,'
         '"reason":"low characteristic: formulas do not apply","schema":1,"trace":[]}',
         "N_gen(2, 2, 5, 5) at p=3 [LOW] = unknown"),
        ("3", "3,3,1",
         '{"class":"LOW","count":0,"d":3,"orders":[3,3,1],"p":3,'
         '"reason":"wild excluded: some e_i divisible by p","schema":1,"trace":[]}',
         "N_gen(3, 3, 1) at p=3 [LOW] = 0"),
        ("7", "2,2,5",
         '{"class":"HIGH","count":0,"d":4,"orders":[2,2,5],"p":7,'
         '"reason":"invalid instance: some e_i exceeds d","schema":1,"trace":[]}',
         "N_gen(2, 2, 5) at p=7 [HIGH] = 0"),
    ])
    def test_count_pinned_output(self, p, orders, json_line, text_line):
        argv = ["count", "--p", p, "--orders", orders]
        assert run(argv) == (0, json_line + "\n")
        assert run(argv + ["--format", "text"]) == (0, text_line + "\n")

    def test_engines_run_once_per_heavy_part_and_prime(self, monkeypatch):
        # one n_gen_cells call per degree counts its heavy parts at every
        # prime: each part's series product is built once, its value once per
        # period (every p > d shares period d + 1), each (1 - t)^(-r) tail
        # once, and no cell builds a profile or goes through n_gen_recursive
        log, degrees, parts = [], [], []

        def record(module, name):
            engine = getattr(module, name)

            def wrapper(*args):
                out = engine(*args)
                log.append((name, args, out))
                return out
            monkeypatch.setattr(module, name, wrapper)

        for name in ("validate_profile", "n_gen_recursive"):
            record(cli, name)
        for name in ("_series_product", "_series_tail", "_series_dot"):
            record(counting, name)
        engine = cli.n_gen_cells

        def n_gen_cells(heavy_parts, d, primes):
            degrees.append((d, list(primes)))
            for heavy, cells in engine(heavy_parts, d, primes):
                parts.append((heavy, d))
                yield heavy, cells
        monkeypatch.setattr(cli, "n_gen_cells", n_gen_cells)
        heavy = self._heavy(5, 8)
        assert len(heavy) == 111
        for _ in range(2):  # tails are kept by the call, not across calls
            for seen in (log, degrees, parts):
                seen.clear()
            rows = self._rows(["--p", "3,5,7,inf", "--d", "8", "--n-max", "5"])
            assert len(rows) == 4 * 212
            assert degrees == [(d, [3, 5, 7, INFINITY]) for d in range(2, 9)]
            assert parts == heavy
            # inf is above every d, so every heavy part has a HIGH cell; a
            # part's dots follow its product, and each dot reads the period
            # of the tail it was given.  A MID period is a p <= d above every
            # order
            products, tails, dots = [], [], Counter()
            for name, args, out in log:
                assert name.startswith("_series"), name
                if name == "_series_product":
                    products.append((tuple(args[1]), args[0]))
                elif name == "_series_tail":
                    tails.append((args, out))
                else:
                    [period] = [a[2] for a, tail in tails if tail is args[1]]
                    dots[products[-1], period] += 1
            assert products == heavy
            tail_args = [args for args, _ in tails]
            assert tail_args and len(tail_args) == len(set(tail_args))
            assert dots == Counter(
                ((orders, d), period) for orders, d in heavy
                for period in [d + 1] + [p for p in (3, 5, 7)
                                         if max(orders) < p <= d])

    def test_size_budget(self, monkeypatch):
        # a long run of order-1 entries is refused from its one heavy part,
        # (2, 2), before any row is built.  Built, the table would take GBs,
        # so the call runs in a child under a 512 MiB address-space limit:
        # there a missed refusal ends in MemoryError, not a swapping host
        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

        timed = ("import sys, time\n"
                 "from ramcount.cli import run_argv\n"
                 "start = time.perf_counter()\n"
                 "code, out = run_argv(sys.argv[1:])\n"
                 "print(code, time.perf_counter() - start)\n"
                 "sys.stdout.write(out)\n")
        env = {k: v for k, v in os.environ.items() if k != "RAMCOUNT_BUDGET"}
        env["PYTHONPATH"] = str(Path(ramcount.__file__).resolve().parents[1])
        child = subprocess.run(
            [sys.executable, "-c", timed, "table", "--p", "3", "--d", "2",
             "--n-max", "100000"],
            env=env, capture_output=True, text=True, timeout=60,
            preexec_fn=cap_memory)
        assert child.returncode == 0, child.stderr
        status, out = child.stdout.split("\n", 1)
        code, seconds = status.split()
        assert float(seconds) < 1
        assert int(code) == 2
        assert out == "error: table order entries exceed budget 10000000\n"
        # the budget counts the order entries the rows print, every prime's
        sweep = ["--p", "3,5,7,inf", "--d", "8", "--n-max", "5"]
        entries = sum(len(r["orders"].split()) for r in self._rows(sweep))
        monkeypatch.setenv("RAMCOUNT_BUDGET", str(entries))
        assert run(["table"] + sweep)[0] == 0
        monkeypatch.setenv("RAMCOUNT_BUDGET", str(entries - 1))
        assert run(["table"] + sweep) == \
            (2, f"error: table order entries exceed budget {entries - 1}\n")
        # the count keeps no part and walks only the first degrees of a huge
        # table: so it is refused fast and in little memory (10^4 heavy
        # parts, kept, would take about 2.4 MB)
        monkeypatch.setenv("RAMCOUNT_BUDGET", "30000")
        tracemalloc.start()
        try:
            start = time.perf_counter()
            code, _ = run(["table", "--p", "3", "--d", str(10 ** 9), "--n-max", "3"])
            seconds = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert seconds < 5
        assert peak < 2 ** 20

    def _walked_degrees(self, monkeypatch, n_max):
        # the degrees whose heavy parts cmd_table asks for, in order
        walked, heavy_parts = [], cli._heavy_parts

        def record(total, most, top):
            if most == n_max:  # not a call of the recursion itself
                walked.append(top + 1)
            return heavy_parts(total, most, top)
        monkeypatch.setattr(cli, "_heavy_parts", record)
        return walked

    def test_budget_is_exact(self, monkeypatch):
        # refused exactly when the printed entries, from the filter, pass
        # the budget: a lower bound that trips early never refuses a table
        # within it
        for ps, d_max, n_max in itertools.product(
                ("3", "5,7,inf"), (2, 4, 7), (3, 5, 7)):
            argv = ["table", "--p", ps, "--d", str(d_max), "--n-max", str(n_max)]
            entries = len(ps.split(",")) * sum(
                len(orders) for orders, _ in self._oracle_profiles(n_max, d_max))
            monkeypatch.setenv("RAMCOUNT_BUDGET", str(entries))
            assert run(argv)[0] == 0, argv
            monkeypatch.setenv("RAMCOUNT_BUDGET", str(entries - 1))
            assert run(argv) == \
                (2, f"error: table order entries exceed budget {entries - 1}\n"), argv

    def test_refused_from_the_first_degrees(self, monkeypatch):
        # the degrees seen bound the rest from below, so the count stops
        # while its running total is still within the budget
        walked = self._walked_degrees(monkeypatch, 5)
        by_degree = {}
        for orders, d in self._oracle_profiles(5, 8):
            by_degree[d] = by_degree.get(d, 0) + len(orders)
        budget = sum(by_degree.values()) // 3
        monkeypatch.setenv("RAMCOUNT_BUDGET", str(budget))
        assert run(["table", "--p", "3", "--d", "8", "--n-max", "5"]) == \
            (2, f"error: table order entries exceed budget {budget}\n")
        assert walked == [2, 3, 4]
        assert sum(by_degree[d] for d in walked) <= budget

    def test_a_million_degrees_are_refused_at_the_fifth(self, monkeypatch):
        # degrees 2 to 4 print 18 entries; then four heavy parts of degree 5,
        # 3 entries each, bound the 999,996 degrees left above 10^7.  A walk
        # that counted every part up to the budget took 6 s
        monkeypatch.delenv("RAMCOUNT_BUDGET", raising=False)
        walked = self._walked_degrees(monkeypatch, 3)
        start = time.perf_counter()
        code, out = run(["table", "--p", "3", "--d", str(10 ** 6), "--n-max", "3"])
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "error: table order entries exceed budget 10000000\n")
        assert walked == [2, 3, 4, 5]

    def test_entries_never_decrease_with_the_degree(self):
        # the fact the refusal rests on, from a table of partitions by
        # number of parts (independent of the walk), which the heavy parts
        # must also reproduce
        for n_max in range(3, 11):
            before = 0
            for d in range(2, 31):
                total = 2 * (d - 1)
                ways = [[1] + [0] * total] + [[0] * (total + 1) for _ in range(n_max)]
                for a in range(1, d):  # ways[k][s]: k parts <= a summing to s
                    for k in range(1, n_max + 1):
                        for s in range(a, total + 1):
                            ways[k][s] += ways[k - 1][s - a]
                at_d = sum(ways[k][total] * sum(range(max(3, k), n_max + 1))
                           for k in range(1, n_max + 1))
                assert at_d >= before, (n_max, d)
                before = at_d
                if d <= 16:
                    lengths = Counter(map(len, _heavy_parts(total, n_max, d - 1)))
                    assert lengths == {k: ways[k][total] for k in range(1, n_max + 1)
                                       if ways[k][total]}, (n_max, d)

    def test_no_degree_is_walked_below_three_orders(self, monkeypatch):
        # no profile has fewer than three orders: the header alone, at once
        def walk(total, most, top):
            raise AssertionError(f"walked degree {top + 1}")
        monkeypatch.setattr(cli, "_heavy_parts", walk)
        start = time.perf_counter()
        code, out = run(["table", "--p", "3", "--d", str(10 ** 9), "--n-max", "2"])
        assert time.perf_counter() - start < 1
        assert (code, out) == (0, ",".join(cli.TABLE_COLUMNS) + "\n")


def test_numpy_loaded_only_by_census():
    # importing the CLI (and so running count, schubert, table, ...) must
    # not pay for numpy; the census engine loads it when it runs
    script = ("import sys, ramcount.cli\n"
              "print('numpy' in sys.modules)\n"
              "ramcount.cli.run_argv(['search', '--p', '11', '--orders', '2,2'])\n"
              "print('numpy' in sys.modules)\n")
    src = str(Path(ramcount.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False", "True"]


def _sibling_modules(node):
    """The ramcount modules that an import node reads."""
    if isinstance(node, ast.Import):
        names = [a.name for a in node.names]
    elif node.level == 1:
        names = [f"ramcount.{node.module or a.name}" for a in node.names]
    else:
        names = [f"{node.module}.{a.name}" for a in node.names]
    return {name.split(".")[1] for name in names if name.startswith("ramcount.")}


def test_imports_run_down_the_stack():
    # algebra <- schubert, counting, ratmap <- pencil, degeneration <- cli:
    # the package's own imports form a DAG, ratmap reads algebra alone, and
    # the only imports inside a function are pencil's numpy, which keep
    # numpy out of count
    package = Path(ramcount.__file__).parent
    deps, nested = {}, set()
    for path in package.glob("*.py"):
        tree = ast.parse(path.read_text())
        deps[path.stem] = set().union(*(_sibling_modules(node) for node in ast.walk(tree)
                                        if isinstance(node, (ast.Import, ast.ImportFrom))))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested |= {(path.stem, ast.unparse(node)) for node in ast.walk(func)
                           if isinstance(node, (ast.Import, ast.ImportFrom))}
    assert deps["ratmap"] == {"algebra"}
    assert nested == {("pencil", "import numpy as np")}
    done = set()
    while len(done) < len(deps):  # peel off the modules whose imports are done
        ready = {name for name, needs in deps.items() if name not in done and needs <= done}
        assert ready, {name: deps[name] - done for name in deps if name not in done}
        done |= ready


def test_census_tables_are_linear_in_q():
    # the census over F_3001 scales jets with length-q log/exp arrays; one
    # q x q table of uint16 alone would take 17.2 MiB.  The field's scalar
    # tables are built first, so the peak is the census's own
    import tracemalloc

    from ramcount.algebra import finite_field

    finite_field(3001).add_i(1, 1)
    tracemalloc.start()
    try:
        payload = run_json(["search", "--p", "3001", "--orders", "2,2"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert payload["total"] == payload["separable"] == 1
    assert peak < 16 << 20, peak


def test_out_of_memory_is_exit_2():
    # a budget large enough to admit a d = 5 census over F_81 lets the
    # census allocate past an address-space limit of 1500 MiB; the run must
    # end in exit 2 with an `error:` line, not a traceback
    limit = 1500 << 20

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = str(Path(ramcount.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-m", "ramcount.cli", "search", "--p", "3", "--k", "4",
         "--orders", "2,2,2,2,2,2,2,2", "--budget", str(10 ** 20)],
        env=env, capture_output=True, text=True, timeout=120, preexec_fn=cap_memory)
    assert out.returncode == 2, out.stderr
    assert out.stdout == ""
    assert out.stderr.startswith("error: ") and "Traceback" not in out.stderr


# ---------------------------------------------------------------------------
# exit-code totality on fuzzed argv: every run ends in 0, 1 or 2, and a
# failing run says why on an `error:` line (argparse's own usage errors
# print to stderr and return no text)
# ---------------------------------------------------------------------------

FUZZ = settings(derandomize=True, deadline=None, max_examples=40,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def _csv(values):
    return ",".join(str(v) for v in values)


def _even_profile(orders):
    # pad with a simple point so that sum(e_i - 1) is even
    return orders + [2] * (sum(e - 1 for e in orders) % 2)


# valid values are drawn often enough to reach the solvers and the census;
# the rest probe the input checks
_PRIME = st.sampled_from(["3", "5", "7"])
_P = st.one_of(_PRIME, st.sampled_from([str(n) for n in range(8)] + ["inf"]))
_K = st.one_of(st.sampled_from(["1", "2"]), st.integers(0, 2).map(str))
_ORDERS = st.one_of(
    st.lists(st.integers(1, 9), min_size=3, max_size=6).map(_even_profile),
    st.lists(st.integers(0, 9), min_size=1, max_size=6)).map(_csv)
_FORMAT = st.sampled_from([[], ["--format", "json"], ["--format", "text"],
                           ["--format", "csv"]])


def _poly(p, max_size=6):
    return st.lists(st.integers(0, p - 1), min_size=1, max_size=max_size).map(_csv)


def _family_poly(p):
    return st.lists(_poly(p, 3).map(lambda c: f"({c})"), min_size=1,
                    max_size=6).map(lambda rows: "[" + ",".join(rows) + "]")


def _section(p):
    return st.one_of(
        st.builds(lambda e: {"point": "inf", "order": e}, st.integers(1, 9)),
        st.builds(lambda num, e: {"num": num, "order": e}, _poly(p, 2),
                  st.integers(1, 9)))


def _assert_exit_contract(argv):
    code, out = run(argv)
    assert code in (0, 1, 2), (argv, code, out)
    if code and out:
        assert out.startswith("error:"), (argv, out)


class TestExitCodeFuzz:
    @FUZZ
    @given(_P, _ORDERS, _FORMAT)
    def test_count(self, p, orders, fmt):
        _assert_exit_contract(["count", "--p", p, "--orders", orders] + fmt)

    @FUZZ
    @given(st.integers(-1, 6), _ORDERS, _FORMAT)
    def test_schubert(self, d, orders, fmt):
        _assert_exit_contract(["schubert", "--d", str(d), "--orders", orders] + fmt)

    @FUZZ
    @given(_P, _K, st.one_of(
        st.lists(st.integers(1, 9), min_size=3, max_size=3).map(_csv), _ORDERS),
        _FORMAT)
    def test_solve3(self, p, k, orders, fmt):
        _assert_exit_contract(["solve3", "--p", p, "--k", k, "--orders", orders]
                              + fmt)

    @FUZZ
    @given(_P, _K, _ORDERS, st.integers(0, 10 ** 5),
           st.one_of(st.none(), st.lists(st.sampled_from(
               ["0", "1", "2", "6", "inf", "01", "10", "22", "x"]),
               min_size=1, max_size=5).map(_csv)),
           st.integers(0, 9), _FORMAT)
    def test_search(self, p, k, orders, budget, points, seed, fmt):
        argv = ["search", "--p", p, "--k", k, "--orders", orders,
                "--budget", str(budget), "--seed", str(seed)]
        if points is not None:
            argv += ["--points", points]
        _assert_exit_contract(argv + fmt)

    @FUZZ
    @given(st.sampled_from([3, 5]).flatmap(
        lambda p: st.tuples(st.just(str(p)), _poly(p), _poly(p))), _K, _FORMAT)
    def test_family(self, pfg, k, fmt):
        p, f, g = pfg
        _assert_exit_contract(["family", "--p", p, "--k", k, "--f", f, "--g", g]
                              + fmt)

    @FUZZ
    @given(st.sampled_from([3, 5]).flatmap(lambda p: st.fixed_dictionaries({
        "p": st.just(p), "k": st.sampled_from([1, 1, 2, 0]),
        "F": _family_poly(p), "G": _family_poly(p),
        "sections": st.lists(_section(p), max_size=4)})), st.booleans(), _FORMAT)
    @example({"schema": 1, "p": 3, "F": "[(0),(0),(0),(1)]", "G": "[(1)]"}, False, [])
    @example({"schema": 1, "p": 3, "F": "[(0,0,1),(0),(0),(1)]", "G": "[(1)]"}, False, [])
    def test_transform(self, tmp_path, family, analyze, fmt):
        path = tmp_path / "fam.json"
        path.write_text(json.dumps(family))
        _assert_exit_contract(["transform", "--family", str(path)]
                              + ["--analyze"] * analyze + fmt)

    @FUZZ
    @given(st.lists(_P, min_size=1, max_size=3).map(_csv), st.integers(-1, 6),
           st.integers(-1, 4), _FORMAT)
    def test_table(self, ps, d, n_max, fmt):
        _assert_exit_contract(["table", "--p", ps, "--d", str(d),
                               "--n-max", str(n_max)] + fmt)
