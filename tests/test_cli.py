import decimal
import hashlib
import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ramcount
from ramcount.cli import run_argv as run

pytestmark = pytest.mark.filterwarnings("ignore")


def run_json(argv):
    code, out = run(argv)
    assert code == 0, out
    return json.loads(out)


class TestCount:
    def test_four_simple_points_char3(self):
        payload = run_json(["count", "--p", "3", "--orders", "2,2,2,2"])
        assert payload["count"] == 1
        assert payload["class"] == "MID"

    def test_infinity(self):
        payload = run_json(["count", "--p", "inf", "--orders", "2,2,3,3"])
        assert payload["count"] == 2

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

    def test_mismatched_lengths(self):
        code, _ = run(["search", "--p", "5", "--orders", "2,2,2,2",
                       "--points", "0,1"])
        assert code == 1


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
        # stdout was recorded when the roots were found by scanning it
        code, out = run(["family", "--p", "7", "--f", "0,1,0,0,0,0,0,0,1,0,0,0,1"])
        assert code == 0
        assert out == (
            '{"F":"[(0),(1),(0),(0),(0),(0),(0),(0,6),(1),(0),(0),(0),(1)]",'
            '"G":"[(1)]","distinct_pencils":7,"k":1,"members":7,"p":7,'
            '"ramification":{"000001":2,"000005":2,"000101":2,"000201":2,'
            '"000401":2,"135252":2,"255462":2,"362142":2,"465132":2,"552412":2,'
            '"632222":2,"inf":12},"schema":1,'
            '"sections":[{"order":12,"point":"inf"}]}\n')

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

    def test_missing_file(self):
        code, _ = run(["transform", "--family", "/nonexistent.json"])
        assert code == 1

    def test_one_member_vanishing_at_t0(self, tmp_path):
        # the family x/t: only G vanishes at t = 0, and the limit pencil is
        # <x, 1>, already separable
        path = tmp_path / "fam.json"
        path.write_text(json.dumps({"p": 3, "F": "[(0),(1)]", "G": "[(0,1)]"}))
        payload = run_json(["transform", "--family", str(path), "--analyze"])
        assert payload["iterations"] == 0 and payload["separable_limit"]
        code, out = run(["transform", "--family", str(path)])
        assert (code, out) == (1, "error: special fiber is already separable\n")

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

    def test_no_cross_check_failures(self):
        # every populated closed-form / Schubert column must agree
        code, out = run(["table", "--p", "3,5,7,11,13,inf", "--d", "8",
                         "--n-max", "5", "--format", "json"])
        assert code == 0
        rows = json.loads(out)["rows"]
        assert len(rows) > 400
        assert all(r["match"] != "false" for r in rows)
        assert any(r["match"] == "true" for r in rows)


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
