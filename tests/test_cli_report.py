import dataclasses
import errno
import glob
import hashlib
import json
import os
import stat
import subprocess
import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from recipro import DomainError, UnitPair, __version__, budget, odd_primes_up_to, suites
from recipro.cli_report import SWEEP_FIELDS, build_parser, main
from recipro.reciprocity_pipeline import PairVerdict
from _processes import count_forks, no_child_left, usable_cpus

EXPECTED_HEADER = (
    "p,q,p_mod4,q_mod4,rank,prodL_p,prodL_q,closed_p,closed_q,"
    "leg_qp,leg_pq,relation,qr_holds,all_pass"
)


def run_cli(*args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "recipro", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def csv_body(text):
    return [line for line in text.splitlines() if not line.startswith("#")]


def failed_verdict(p, q):
    """A stand-in for verify_pair: theory guarantees no real pair fails, so
    a stub is the only way to exercise exit 1."""
    return PairVerdict(
        p=p, q=q, rank=1,
        product_L=UnitPair(1, 1), closed_form=UnitPair(1, 1),
        legendre_qp=1, legendre_pq=1, predicted_relation=1,
        qr_identity_holds=False, checks={"qr_identity": False},
    )


def passed_verdict(p, q, tables=None):
    """A stand-in for verify_pair that passes at once, for sweeps too long to verify."""
    return dataclasses.replace(
        failed_verdict(p, q), qr_identity_holds=True, checks={"qr_identity": True}
    )


class TestVerifyCommand:
    def test_csv_row(self):
        result = run_cli("verify", "--p", "3", "--q", "5")
        assert result.returncode == 0
        body = csv_body(result.stdout)
        assert body[0] == EXPECTED_HEADER
        assert body[1] == "3,5,3,1,1,2,1,2,1,-1,-1,equal,true,true"

    def test_json_row(self):
        result = run_cli("verify", "--p", "3", "--q", "7", "--format", "json")
        assert result.returncode == 0
        doc = json.loads(result.stdout)
        assert doc["meta"]["command"] == "verify"
        assert "generated_at" in doc["meta"]
        row = doc["rows"][0]
        assert row["p"] == 3 and row["q"] == 7
        assert row["leg_qp"] == 1 and row["leg_pq"] == -1
        assert row["relation"] == "opposite"
        assert row["qr_holds"] is True and row["all_pass"] is True
        assert list(row) == list(SWEEP_FIELDS)

    def test_not_prime_exits_2(self):
        result = run_cli("verify", "--p", "4", "--q", "5")
        assert result.returncode == 2
        assert "4 is not prime" in result.stderr

    def test_equal_primes_exit_2(self):
        result = run_cli("verify", "--p", "3", "--q", "3")
        assert result.returncode == 2
        assert "distinct" in result.stderr

    def test_over_budget_exits_2(self):
        result = run_cli("verify", "--p", "1021", "--q", "2063")
        assert result.returncode == 2
        assert "cap" in result.stderr

    def test_failed_verdict_exits_1(self, monkeypatch, capsys):
        monkeypatch.setattr("recipro.cli_report.verify_pair", failed_verdict)
        assert main(["verify", "--p", "3", "--q", "5"]) == 1
        out = capsys.readouterr().out
        assert "false" in out


class TestSweepCommand:
    def test_max_20_has_21_rows(self):
        result = run_cli("sweep", "--max", "20")
        assert result.returncode == 0
        body = csv_body(result.stdout)
        assert body[0] == EXPECTED_HEADER
        assert len(body) == 1 + 21
        assert "# summary: pairs=21 failures=0" in result.stdout

    def test_max_3_no_pairs(self):
        result = run_cli("sweep", "--max", "3")
        assert result.returncode == 0
        assert len(csv_body(result.stdout)) == 1  # header only
        assert "no pairs" in result.stdout

    def test_max_2_summary_ends_no_pairs_in_process(self, capsys):
        assert main(["sweep", "--max", "2"]) == 0
        assert capsys.readouterr().out.rstrip("\n").endswith("(no pairs)")

    def test_negative_max_exits_2_in_process(self, capsys):
        assert main(["sweep", "--max", "-1"]) == 2
        assert "--max must be nonnegative, got -1" in capsys.readouterr().err

    def test_rows_sorted(self):
        result = run_cli("sweep", "--max", "30", "--format", "json")
        doc = json.loads(result.stdout)
        keys = [(row["p"], row["q"]) for row in doc["rows"]]
        assert keys == sorted(keys)
        assert all(p < q for p, q in keys)

    def test_out_file(self, tmp_path):
        out = tmp_path / "r.csv"
        result = run_cli("sweep", "--max", "40", "--format", "csv", "--out", str(out))
        assert result.returncode == 0
        text = out.read_text(encoding="utf-8")
        assert "\r" not in text
        assert csv_body(text)[0] == EXPECTED_HEADER
        assert "wrote" in result.stdout

    def test_negative_max_exits_2(self):
        result = run_cli("sweep", "--max", "-5")
        assert result.returncode == 2

    def test_huge_max_exits_2(self):
        result = run_cli("sweep", "--max", "100000")
        assert result.returncode == 2
        assert "cap" in result.stderr

    def test_largest_admitted_max_sweeps_every_pair(self, monkeypatch, capsys):
        # 1439 * 1447 = 2082233 is the largest pair product up to 1450, within
        # the stream cap 2**21; a passing stub stands in for the 30 s of checks
        monkeypatch.setattr("recipro.reciprocity_pipeline.verify_pair", passed_verdict)
        assert main(["sweep", "--max", "1450"]) == 0
        body = csv_body(capsys.readouterr().out)
        assert len(body) == 1 + 25_878
        assert body[-1].split(",")[:2] == ["1439", "1447"]

    def test_first_max_over_the_cap_exits_2_before_verifying(self, monkeypatch, capsys):
        # 1447 * 1451 = 2099597 > 2**21
        monkeypatch.setattr("recipro.reciprocity_pipeline.verify_pair", refuse_verify_pair)
        assert main(["sweep", "--max", "1451"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "2099597" in err

    def test_over_cap_sweep_is_refused_as_verify_refuses_its_pair(self, capsys):
        assert main(["sweep", "--max", "1451"]) == 2
        sweep_err = capsys.readouterr().err
        assert main(["verify", "--p", "1447", "--q", "1451"]) == 2
        assert capsys.readouterr().err == sweep_err
        assert sweep_err == "error: transversal needs 2099597 steps, over the cap of 2097152\n"

    def test_max_over_the_sieve_cap_exits_2_without_sieving(self, monkeypatch, capsys):
        def refuse_sieve(size):
            raise AssertionError("the sieve was allocated before its cap was checked")

        monkeypatch.setattr("recipro.residue_arith.bytearray", refuse_sieve, raising=False)
        assert main(["sweep", "--max", str(budget.SIEVE_CAP + 1)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "prime sieve" in err

    def test_determinism_csv(self):
        first = run_cli("sweep", "--max", "60", "--seed", "1")
        second = run_cli("sweep", "--max", "60", "--seed", "1")
        assert first.returncode == second.returncode == 0
        assert csv_body(first.stdout) == csv_body(second.stdout)

    def test_determinism_json_body(self):
        runs = [run_cli("sweep", "--max", "60", "--format", "json") for _ in range(2)]
        docs = [json.loads(r.stdout) for r in runs]
        bodies = [
            json.dumps({"rows": d["rows"], "summary": d["summary"]}, sort_keys=True)
            for d in docs
        ]
        assert bodies[0] == bodies[1]

    @pytest.mark.parametrize("max_,pairs,qr_only", [("60", 120, False), ("7", 3, True)])
    def test_csv_and_json_rows_carry_the_same_values_in_field_order(
            self, monkeypatch, capsys, max_, pairs, qr_only):
        # the CSV row is one f-string over the row's fields; read back, with
        # true/false as bools and digits as ints, each row must be the JSON
        # row's values in SWEEP_FIELDS order, type for type.  qr_only stubs
        # a verdict whose reciprocity identity holds while another check
        # fails, so the two flags differ and cannot trade places unseen.
        if qr_only:
            monkeypatch.setattr(
                "recipro.reciprocity_pipeline.verify_pair",
                lambda p, q, tables=None: dataclasses.replace(
                    passed_verdict(p, q), checks={"qr_identity": True, "other": False}),
            )
        status = main(["sweep", "--max", max_])
        body = csv_body(capsys.readouterr().out)
        assert main(["sweep", "--max", max_, "--format", "json"]) == status == int(qr_only)
        rows = json.loads(capsys.readouterr().out)["rows"]

        def parse(field):
            if field in ("true", "false"):
                return field == "true"
            return int(field) if field.lstrip("-").isdigit() else field

        assert body[0] == ",".join(SWEEP_FIELDS)
        assert len(body) - 1 == len(rows) == pairs
        for line, row in zip(body[1:], rows):
            assert tuple(row) == SWEEP_FIELDS
            got = [parse(field) for field in line.split(",")]
            assert [(type(v), v) for v in got] == [(type(v), v) for v in row.values()], line
            if qr_only:
                assert line.endswith(",true,false")

    def test_bodies_match_pinned_digests(self, capsys):
        # SHA-256 of known-good report bodies; a change to any reported
        # value, or to how it is rendered, changes a digest
        assert main(["sweep", "--max", "200"]) == 0
        body = "\n".join(csv_body(capsys.readouterr().out)) + "\n"
        assert hashlib.sha256(body.encode()).hexdigest() == (
            "21bb85f5e32d574cb137d62891a93be8ad3e25ca2bea78c0f755258fee0bfc65"
        )
        assert main(["sweep", "--max", "50", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        body = json.dumps({"rows": doc["rows"], "summary": doc["summary"]}, sort_keys=True)
        assert hashlib.sha256(body.encode()).hexdigest() == (
            "4d83901a14558b8a789be2c598787def0c1b3d7d8277d966e8f42bc33102f39b"
        )

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_sweep_200_matches_its_pinned_digest_in_one_process_and_in_two(self, cpus, capsys,
                                                                           monkeypatch):
        # sweep 200's pairs are over the bound at which verify_pairs splits
        usable_cpus(monkeypatch, cpus)
        forks = count_forks(monkeypatch)
        assert main(["sweep", "--max", "200"]) == 0
        body = "\n".join(csv_body(capsys.readouterr().out)) + "\n"
        assert len(forks) == cpus - 1
        no_child_left()
        assert hashlib.sha256(body.encode()).hexdigest() == (
            "21bb85f5e32d574cb137d62891a93be8ad3e25ca2bea78c0f755258fee0bfc65"
        )

    def test_seed_recorded_in_header(self):
        result = run_cli("sweep", "--max", "10", "--seed", "77")
        assert "# seed: 77" in result.stdout


def refuse_verify_pair(p, q, tables=None):
    raise AssertionError("verification ran before the destination was checked")


class TestReportFile:
    def test_missing_directory_exits_2_before_verifying(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("recipro.reciprocity_pipeline.verify_pair", refuse_verify_pair)
        out = tmp_path / "missing" / "x.csv"
        assert main(["sweep", "--max", "30", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "No such file or directory" in err
        assert str(out) in err
        assert list(tmp_path.iterdir()) == []

    def test_directory_destination_exits_2_before_verifying(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("recipro.reciprocity_pipeline.verify_pair", refuse_verify_pair)
        assert main(["sweep", "--max", "30", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Is a directory" in err
        assert list(tmp_path.iterdir()) == []

    def test_empty_destination_exits_2_before_verifying(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("recipro.cli_report.verify_pair", refuse_verify_pair)
        monkeypatch.chdir(tmp_path)
        assert main(["verify", "--p", "3", "--q", "5", "--out", ""]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--out" in err
        assert list(tmp_path.iterdir()) == []

    def test_failed_run_leaves_existing_report_untouched(self, tmp_path, monkeypatch):
        def failing_verify_pair(p, q, tables=None):
            raise DomainError("injected")

        out = tmp_path / "r.csv"
        out.write_text("previous report\n", encoding="utf-8")
        monkeypatch.setattr("recipro.reciprocity_pipeline.verify_pair", failing_verify_pair)
        assert main(["sweep", "--max", "30", "--out", str(out)]) == 2
        assert out.read_text(encoding="utf-8") == "previous report\n"
        assert list(tmp_path.iterdir()) == [out]

    def test_report_replaces_existing_file(self, tmp_path):
        out = tmp_path / "r.csv"
        out.write_text("previous report\n", encoding="utf-8")
        assert main(["verify", "--p", "3", "--q", "5", "--out", str(out)]) == 0
        assert csv_body(out.read_text(encoding="utf-8"))[1] == (
            "3,5,3,1,1,2,1,2,1,-1,-1,equal,true,true"
        )
        assert list(tmp_path.iterdir()) == [out]

    def test_concurrent_calls_share_one_out_path(self, tmp_path, capsys):
        # each call writes its own temp file, so neither collides with the other
        out = tmp_path / "r.csv"
        start = threading.Barrier(2)
        codes = []

        def run():
            start.wait()
            codes.append(main(["sweep", "--max", "100", "--out", str(out)]))

        threads = [threading.Thread(target=run) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert codes == [0, 0]
        capsys.readouterr()
        assert main(["sweep", "--max", "100"]) == 0
        assert csv_body(out.read_text(encoding="utf-8")) == csv_body(capsys.readouterr().out)
        assert list(tmp_path.iterdir()) == [out]

    def test_symlink_destination_stays_a_symlink(self, tmp_path):
        target = tmp_path / "target.csv"
        target.write_text("previous report\n", encoding="utf-8")
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        assert main(["verify", "--p", "3", "--q", "5", "--out", str(link)]) == 0
        assert link.is_symlink() and link.resolve() == target.resolve()
        assert csv_body(target.read_text(encoding="utf-8"))[1] == (
            "3,5,3,1,1,2,1,2,1,-1,-1,equal,true,true"
        )
        assert sorted(tmp_path.iterdir()) == [link, target]

    def test_fifo_destination_is_written_in_place(self, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        # a non-blocking reader lets the report be written without a thread
        fd = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            assert main(["verify", "--p", "3", "--q", "5", "--out", str(fifo)]) == 0
            report = os.read(fd, 1 << 16).decode("utf-8")
        finally:
            os.close(fd)
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert csv_body(report)[1] == "3,5,3,1,1,2,1,2,1,-1,-1,equal,true,true"
        assert list(tmp_path.iterdir()) == [fifo]

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
    def test_full_device_error_names_the_path(self, capsys):
        assert main(["sweep", "--max", "10", "--out", "/dev/full"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), '/dev/full')}\n"
        assert glob.glob("/dev/full*.tmp") == []

    def test_write_error_names_the_path_as_given(self, tmp_path, monkeypatch, capsys):
        def failing_write(text):
            raise OSError(errno.EIO, os.strerror(errno.EIO))

        def open_with_failing_writes(*args, **kwargs):
            handle = open(*args, **kwargs)
            handle.write = failing_write
            return handle

        monkeypatch.setattr("recipro.cli_report.open", open_with_failing_writes, raising=False)
        monkeypatch.chdir(tmp_path)
        assert main(["sweep", "--max", "10", "--out", "r.csv"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {OSError(errno.EIO, os.strerror(errno.EIO), 'r.csv')}\n"
        assert list(tmp_path.iterdir()) == []


class TestLemmaSuiteCommand:
    def test_lemma1(self):
        result = run_cli("lemma-suite", "--which", "lemma1", "--n", "25", "--seed", "42")
        assert result.returncode == 0
        assert "lemma1: 25/25 pass" in result.stdout
        assert "seed: 42" in result.stdout

    def test_lemma2_tally_counts_requested_cases(self):
        result = run_cli("lemma-suite", "--which", "lemma2", "--n", "20", "--seed", "7")
        assert result.returncode == 0
        assert "lemma2: 20/20 pass" in result.stdout

    def test_wilson(self):
        result = run_cli("lemma-suite", "--which", "wilson", "--n", "10", "--seed", "1")
        assert result.returncode == 0
        assert "wilson: 10/10 pass" in result.stdout

    def test_euler(self):
        result = run_cli("lemma-suite", "--which", "euler", "--n", "10", "--seed", "1")
        assert result.returncode == 0

    def test_wilson_over_cap_exits_2(self, monkeypatch, capsys):
        # 26 odd primes need p = 103, one past the largest p a cap of 100 admits
        monkeypatch.setattr(budget, "FACTORIAL_LOOP_CAP", 100)
        assert main(["lemma-suite", "--which", "wilson", "--n", "26"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: factorial loop needs 102 steps, over the cap of 100\n"

    @pytest.mark.parametrize(
        "which,generator",
        [("lemma1", "random_factor_lists"), ("lemma2", "random_even_factor_lists"),
         ("euler", "random_euler_cases"), ("wilson", "first_odd_primes")],
    )
    def test_over_suite_case_cap_exits_2_with_one_line(self, which, generator, monkeypatch,
                                                       capsys):
        def drawn(*args, **kwargs):
            raise AssertionError(f"{generator} ran for an over-cap request")

        monkeypatch.setattr(suites, generator, drawn)
        n = budget.SUITE_CASE_CAP + 1
        assert main(["lemma-suite", "--which", which, "--n", str(n)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            f"error: {which} suite needs {n} cases, over the cap of {budget.SUITE_CASE_CAP}\n"
        )

    def test_unknown_suite_exits_2(self):
        result = run_cli("lemma-suite", "--which", "lemma9", "--n", "5")
        assert result.returncode == 2
        assert "unknown suite" in result.stderr


class TestLegendreCommand:
    def test_prints_symbol(self):
        result = run_cli("legendre", "--a", "5", "--p", "7")
        assert result.returncode == 0
        assert result.stdout.strip() == "-1"
        result = run_cli("legendre", "--a", "2", "--p", "7")
        assert result.stdout.strip() == "1"

    def test_invalid_exits_2(self):
        assert run_cli("legendre", "--a", "14", "--p", "7").returncode == 2
        assert run_cli("legendre", "--a", "2", "--p", "9").returncode == 2


class TestSweepRowShape:
    def test_field_order_is_fixed(self):
        assert SWEEP_FIELDS == (
            "p", "q", "p_mod4", "q_mod4", "rank", "prodL_p", "prodL_q",
            "closed_p", "closed_q", "leg_qp", "leg_pq", "relation",
            "qr_holds", "all_pass",
        )


class TestReportMetadata:
    @pytest.mark.parametrize(
        "argv,bounds",
        [(["verify", "--p", "3", "--q", "5"], [("p", 3), ("q", 5)]),
         (["sweep", "--max", "10"], [("max", 10)])],
        ids=["verify", "sweep"],
    )
    def test_keys_values_and_order(self, argv, bounds, capsys):
        expected = [("version", __version__), ("command", argv[0]), ("seed", 4), *bounds]
        assert main([*argv, "--seed", "4"]) == 0
        lines = capsys.readouterr().out.splitlines()
        head = lines[: lines.index(EXPECTED_HEADER)]
        assert all(line.startswith("# ") for line in head)
        meta = [tuple(line[2:].split(": ", 1)) for line in head]
        assert meta[:-1] == [(key, str(value)) for key, value in [*expected, ("format", "csv")]]
        assert meta[-1][0] == "generated_at"

        assert main([*argv, "--seed", "4", "--format", "json"]) == 0
        meta = json.loads(capsys.readouterr().out)["meta"]
        assert list(meta.items())[:-1] == [*expected, ("format", "json")]
        assert list(meta)[-1] == "generated_at"


class TestSharedParser:
    """main parses every call with one parser, built once per process; no
    call's flags, defaults or errors carry over to the next call."""

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_format_does_not_carry_over(self, capsys):
        assert main(["verify", "--p", "3", "--q", "7", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["meta"]["format"] == "json"
        assert main(["verify", "--p", "3", "--q", "7"]) == 0
        out = capsys.readouterr().out
        assert "# format: csv" in out.splitlines()
        assert csv_body(out)[0] == EXPECTED_HEADER

    def test_seed_does_not_carry_over(self, capsys):
        assert main(["sweep", "--max", "20", "--seed", "5"]) == 0
        assert "# seed: 5" in capsys.readouterr().out.splitlines()
        assert main(["sweep", "--max", "20"]) == 0
        assert "# seed: 0" in capsys.readouterr().out.splitlines()

    def test_usage_error_leaves_next_call_intact(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--p", "3"])
        assert exc.value.code == 2
        assert "--q" in capsys.readouterr().err
        assert main(["verify", "--p", "3", "--q", "5"]) == 0
        cold = run_cli("verify", "--p", "3", "--q", "5")
        assert cold.returncode == 0
        assert csv_body(capsys.readouterr().out) == csv_body(cold.stdout)


def failed_suite(which, n, seed):
    return suites.SuiteResult(which, n - 1, 1, ("stubbed case",))


class TestLateBinding:
    """A subcommand looks up its worker when it runs, not when the shared
    parser is built, so a worker replaced after the first call is the one used."""

    def test_verify_pair_replaced_after_first_call(self, monkeypatch, capsys):
        assert main(["verify", "--p", "3", "--q", "5"]) == 0
        monkeypatch.setattr("recipro.cli_report.verify_pair", failed_verdict)
        assert main(["verify", "--p", "3", "--q", "5"]) == 1
        assert csv_body(capsys.readouterr().out)[-1].endswith(",false")

    def test_run_suite_replaced_after_first_call(self, monkeypatch, capsys):
        assert main(["lemma-suite", "--which", "wilson", "--n", "5"]) == 0
        monkeypatch.setattr("recipro.cli_report.run_suite", failed_suite)
        assert main(["lemma-suite", "--which", "wilson", "--n", "5"]) == 1
        assert "FAIL stubbed case" in capsys.readouterr().out.splitlines()


class TestHelp:
    @pytest.mark.parametrize(
        "argv,names",
        [(["--help"], ["verify", "sweep", "lemma-suite", "legendre"]),
         (["verify", "--help"], ["--p", "--q", "--format", "--out", "--seed"])],
        ids=["recipro", "verify"],
    )
    def test_help_exits_0_from_the_shared_parser(self, argv, names, capsys):
        assert main(["legendre", "--a", "5", "--p", "7"]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        out, err = capsys.readouterr()
        assert err == ""
        # each name starts a line of the listing: a subcommand or a flag
        listed = {line.split()[0] for line in out.splitlines() if line.startswith("  ")}
        for name in names:
            assert name in listed, out


# Values no int flag parses, and ints either side of the 64-bit range is_prime accepts.
ODD_STRINGS = st.sampled_from(["", "x", "1.5", "0x10", "-", "nan", "\u00e9", "--max"])
EDGE_INTS = st.sampled_from([-(2**64), 2**63 - 25, 2**64 - 59, 2**64, 2**64 + 1])
SMALL_INTS = st.integers(-3, 60)


def int_flag(name, *values):
    """`name` with a generated int, or with a string no int flag parses."""
    return st.tuples(st.just(name), st.one_of(*values, ODD_STRINGS).map(str))


def choice_flag(name, choices):
    return st.tuples(st.just(name), st.sampled_from(choices))


def optional(flag):
    return st.one_of(flag, st.just(()))


def argv_for(command, *flags):
    return st.tuples(*flags).map(lambda parts: [command, *(x for part in parts for x in part)])


class TestNoTraceback:
    @given(data=st.data())
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_every_invocation_exits_cleanly(self, data, tmp_path, capsys):
        # --out is a file under tmp_path or in a missing directory, nothing else
        outs = [str(tmp_path / "r.csv"), str(tmp_path / "missing" / "r.csv")]
        seeds = (SMALL_INTS, st.integers(-(2**70), 2**70))
        report = (optional(choice_flag("--format", ["csv", "json", "xml"])),
                  optional(choice_flag("--out", outs)), optional(int_flag("--seed", *seeds)))
        ints = (st.sampled_from(odd_primes_up_to(60)), SMALL_INTS, EDGE_INTS)
        # --max and --n are small, or so far over their cap that they are refused unrun
        over_sweep_cap = st.integers(budget.SIEVE_CAP + 1, 2**70)
        over_case_caps = st.integers(budget.SUITE_CASE_CAP + 1, 2**70)
        argv = data.draw(st.one_of(
            argv_for("verify", int_flag("--p", *ints), int_flag("--q", *ints), *report),
            argv_for("sweep", int_flag("--max", SMALL_INTS, over_sweep_cap), *report),
            argv_for("lemma-suite", choice_flag("--which", [*suites.SUITE_NAMES, "lemma9"]),
                     int_flag("--n", st.integers(-3, 50), over_case_caps),
                     optional(int_flag("--seed", *seeds))),
            argv_for("legendre", int_flag("--a", *ints, *seeds), int_flag("--p", *ints)),
        ))
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refusing the argv
            code = exc.code
        err = capsys.readouterr().err
        assert code in (0, 1, 2), argv
        assert sum("error:" in line for line in err.splitlines()) <= 1, err
        assert list(tmp_path.glob("*.tmp")) == []
