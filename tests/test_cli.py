import argparse
import json

import numpy as np
import pytest

import tenscache.caching as caching_mod
import tenscache.cli as cli_mod
import tenscache.completion as completion_mod
from tenscache.caching import OnlineConfig, run_online
from tenscache.cli import main
from tenscache.ingest import IngestConfig, build_demand_tensor, load_ratings, synth_low_rank
from tenscache.tensors import fold, write_coo_sparse


@pytest.fixture()
def tensor_file(tmp_path):
    obs, _ = synth_low_rank((8, 8, 4, 4), (2, 2, 2, 2), observe_fraction=0.5, seed=3)
    path = tmp_path / "observed.coo"
    write_coo_sparse(path, obs)
    return path


def read_csv_rows(path):
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]


class TestCompleteCommand:
    def test_writes_trace_csv(self, tensor_file, tmp_path):
        out = tmp_path / "out"
        rc = main(["--out", str(out), "complete", str(tensor_file), "--rank", "8"])
        assert rc == 0
        header, rows = read_csv_rows(out / "trace-R8.csv")
        assert header == ["iter", "rse", "elapsed_s", "mode", "gamma"]
        assert rows[0][0] == "0" and float(rows[0][1]) == 1.0
        assert float(rows[-1][1]) <= 1e-6

    @pytest.mark.parametrize("update", ["multi", "rank1"])
    def test_never_builds_the_dense_iterate(self, tensor_file, tmp_path, monkeypatch, update):
        # only the traces are written, so no step tensor is ever folded
        calls = []

        def counting_fold(*args):
            calls.append(args[1].mode)
            return fold(*args)

        monkeypatch.setattr(completion_mod, "fold", counting_fold)
        rc = main(["--out", str(tmp_path), "complete", str(tensor_file), "--rank", "2,5,8",
                   "--update", update])
        assert rc == 0
        _, rows = read_csv_rows(tmp_path / "trace-R8.csv")
        assert len(rows) > 1  # a step was taken
        assert calls == []

    def test_blow_up_exits_1(self, tensor_file, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(completion_mod, "line_search", lambda residual, s_obs: np.inf)
        with np.errstate(all="ignore"):
            rc = main(["--out", str(tmp_path), "complete", str(tensor_file), "--rank", "8"])
        assert rc == 1
        assert "internal error: non-finite iterate after mode-" in capsys.readouterr().err
        assert not list(tmp_path.glob("trace-*.csv"))

    def test_rank_sweep_emits_one_trace_per_rank(self, tensor_file, tmp_path):
        out = tmp_path / "out"
        ranks = [8, 16, 24, 32, 40, 48]  # 2N..12N at N=4
        rc = main(
            ["--out", str(out), "complete", str(tensor_file), "--rank",
             ",".join(map(str, ranks))]
        )
        assert rc == 0
        for r in ranks:
            assert (out / f"trace-R{r}.csv").exists()

    def test_non_finite_input_exits_2_naming_line(self, tmp_path, capsys):
        path = tmp_path / "nan.coo"
        path.write_text("# shape: 2x2x2\n1,1,1,1.0\n2,2,2,nan\n")
        assert main(["--out", str(tmp_path), "complete", str(path)]) == 2
        assert f"{path}:3: non-finite value" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "entry, message",
        [("1,1,1,abc", "bad value 'abc'"),
         ("1,x,1,1.0", "bad index"),
         ("0,1,1,1.0", "index out of range for shape 2x2x2"),
         ("1,3,1,1.0", "index out of range for shape 2x2x2")],
    )
    def test_malformed_entry_exits_2_naming_line(self, tmp_path, capsys, entry, message):
        path = tmp_path / "bad.coo"
        path.write_text(f"# shape: 2x2x2\n1,1,1,1.0\n\n{entry}\n")
        assert main(["--out", str(tmp_path / "out"), "complete", str(path)]) == 2
        assert f"{path}:4: {message}" in capsys.readouterr().err

    def test_duplicate_index_exits_2_naming_both_lines(self, tmp_path, capsys):
        path = tmp_path / "dup.coo"
        path.write_text("# shape: 2x2x2\n1,1,1,1.0\n\n# note\n2,1,1,2.0\n1,1,1,3.0\n2,1,1,4.0\n")
        assert main(["--out", str(tmp_path / "out"), "complete", str(path)]) == 2
        assert f"{path}:6: duplicate index 1,1,1 (first at line 2)" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [("# shape: 2xax2\n1,1,1,1.0\n", "1: bad shape '2xax2'"),
         ("# shape: 2x2\n1,1,1.0\n", "1: tensor order must be >= 3, got 2"),
         ("# shape: 2x0x2\n", "1: all dimensions must be >= 1, got (2, 0, 2)"),
         ("# shape: 2x2x2\n1,1,1,1.0\n# shape: 3x3x3\n3,3,3,1.0\n",
          "3: second '# shape:' header (first at line 1)")],
    )
    def test_bad_header_exits_2_naming_line(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.coo"
        path.write_text(text)
        assert main(["--out", str(tmp_path / "out"), "complete", str(path)]) == 2
        assert f"{path}:{message}" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--rank"])
    def test_empty_sweep_list_exits_2(self, tensor_file, tmp_path, capsys, flag):
        out = tmp_path / "out"
        assert main(["--out", str(out), "complete", str(tensor_file), flag, ""]) == 2
        assert f"{flag[2:]} needs at least one value" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())  # no manifest without traces

    def test_beta_flag_rejected(self, tensor_file, tmp_path):
        # the step scale is internal to the solver, not a setting
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as info:
            main(["--out", str(out), "complete", str(tensor_file), "--beta", "1"])
        assert info.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--mode-select=sigma", "--max-iter=5"])
    def test_removed_solver_flag_rejected(self, tensor_file, tmp_path, flag):
        # sigma is the one mode-selection rule, and the budget bounds the steps
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as info:
            main(["--out", str(out), "complete", str(tensor_file), flag])
        assert info.value.code == 2
        assert not out.exists()

    def test_beta_config_key_exits_2(self, tensor_file, tmp_path, capsys):
        cfg = tmp_path / "run.toml"
        cfg.write_text("beta = 1e5\n")
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "complete", str(tensor_file)]) == 2
        assert f"{cfg}:1: unknown key 'beta'" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_input_exits_2(self, tmp_path):
        assert main(["--out", str(tmp_path), "complete", str(tmp_path / "nope.coo")]) == 2

    def test_seed_flag_rejected(self, tensor_file, tmp_path):
        # the solver is deterministic; complete takes no seed
        with pytest.raises(SystemExit) as info:
            main(["--out", str(tmp_path), "complete", str(tensor_file), "--seed", "1"])
        assert info.value.code == 2

    def test_manifest_referenced_from_csv(self, tensor_file, tmp_path):
        out = tmp_path / "out"
        main(["--out", str(out), "complete", str(tensor_file), "--rank", "8"])
        first = (out / "trace-R8.csv").read_text().splitlines()[0]
        assert first.startswith("# manifest: ")
        manifest = json.loads((out / first.split(": ", 1)[1]).read_text())
        assert manifest["command"] == "complete"
        assert manifest["config"]["rank"] == [8]

    def test_numeric_columns_reproducible(self, tensor_file, tmp_path):
        cols = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            main(["--out", str(out), "complete", str(tensor_file), "--rank", "8"])
            _, rows = read_csv_rows(out / "trace-R8.csv")
            # all numeric columns except wall-clock elapsed_s
            cols.append([(r[0], r[1], r[3], r[4]) for r in rows])
        assert cols[0] == cols[1]


class TestSimulateCommand:
    def test_synthetic_grid(self, tmp_path):
        out = tmp_path / "out"
        rc = main(
            ["--out", str(out), "simulate", "--files", "10", "--bs", "2", "--tau", "4",
             "--order", "2", "--cache", "3", "--slots", "10", "--ranks", "4,8",
             "--shift", "2"]
        )
        assert rc == 0
        header, rows = read_csv_rows(out / "summary.csv")
        assert header == ["method", "rank", "avg_hit_rate"]
        methods = {(r[0], r[1]) for r in rows}
        # full {lp, mean} x {completed, raw} x {4, 8} grid plus the oracle row
        expected = {
            (f"{pred}-{kind}", rank)
            for pred in ("lp", "mean")
            for kind in ("completed", "raw")
            for rank in ("4", "8")
        }
        assert expected <= methods
        assert ("oracle", "0") in methods
        # raw rows repeat the same average at every grid rank
        raw_by_rank = {r[1]: r[2] for r in rows if r[0] == "lp-raw"}
        assert raw_by_rank["4"] == raw_by_rank["8"]
        header, rows = read_csv_rows(out / "slots.csv")
        assert header == ["slot", "bs", "method", "hit_rate"]
        for r in rows:
            assert 0.0 <= float(r[3]) <= 1.0

    def test_ratings_stream_scores_its_nonzero_entries_as_observed(self, tmp_path):
        # simulate --ratings end to end: its averages are run_online's on the
        # ingested stream with the nonzero entries observed
        rng = np.random.default_rng(5)
        n = 600
        days = np.sort(rng.integers(0, 6 * 30 * 86400, size=n))  # six 30-day slots
        ratings = tmp_path / "ratings.csv"
        ratings.write_text("user_id,movie_id,rating,timestamp\n" + "".join(
            f"{u},{m},4.0,{10**9 + t}\n" for u, m, t in
            zip(rng.integers(1, 40, size=n), rng.integers(1, 14, size=n), days)))
        out = tmp_path / "out"
        assert main(["--out", str(out), "simulate", "--ratings", str(ratings), "--files", "8",
                     "--bs", "2", "--tau", "3", "--order", "2", "--cache", "2",
                     "--ranks", "2,5"]) == 0
        stream = build_demand_tensor(load_ratings(ratings), IngestConfig(top_f=8, n_bs=2)).slots
        assert len(stream) >= 4 and 0 < np.count_nonzero(stream) < stream.size
        cfg = OnlineConfig(tau=3, order=2, cache_size=2, predictors=("lp", "mean"),
                           completion=(True, False), rank_budgets=(2, 5))
        result = run_online(stream, cfg, stream != 0.0)
        want = [[method, str(rank), str(result.average(key))]
                for method, rank, key in result.runs(repeat_raw=True)]
        _, rows = read_csv_rows(out / "summary.csv")
        assert rows == want + [["oracle", "0", str(result.average())]]

    def test_paired_methods_share_slot_column(self, tmp_path):
        out = tmp_path / "out"
        main(
            ["--out", str(out), "simulate", "--files", "8", "--bs", "2", "--tau", "3",
             "--order", "2", "--cache", "2", "--slots", "8", "--ranks", "4",
             "--predictor", "mean"]
        )
        _, rows = read_csv_rows(out / "slots.csv")
        by_method = {}
        for slot, bs, method, _ in rows:
            by_method.setdefault(method, []).append((slot, bs))
        assert by_method["mean-completed"] == by_method["mean-raw"]

    def test_both_treatments_are_on_rows_plus_off_rows(self, tmp_path):
        argv = ["simulate", "--files", "8", "--bs", "2", "--tau", "3", "--order", "2",
                "--cache", "2", "--slots", "8", "--ranks", "4,2,4", "--shift", "2"]
        rows = {}
        for completion in ("both", "on", "off"):
            out = tmp_path / completion
            assert main(["--out", str(out), *argv, "--completion", completion]) == 0
            rows[completion] = {name: read_csv_rows(out / name)[1]
                                for name in ("slots.csv", "summary.csv")}
        for name, col in (("slots.csv", 2), ("summary.csv", 0)):
            on, off, got = (rows[c][name] for c in ("on", "off", "both"))
            oracle = [r for r in on if r[col] == "oracle"]
            assert oracle == [r for r in off if r[col] == "oracle"]
            runs = [r for p in ("lp", "mean") for rs in (on, off) for r in rs
                    if r[col].startswith(p + "-")]
            # slots.csv: the oracle block follows the first run's; summary.csv: last row
            at = [r[col] for r in on].index("oracle") if name == "slots.csv" else len(runs)
            assert got == runs[:at] + oracle + runs[at:]

    def test_one_online_run_per_command(self, tmp_path, monkeypatch):
        calls = []

        def counting_run(*args):
            calls.append(args[1].completion)
            return caching_mod.run_online(*args)

        monkeypatch.setattr(cli_mod, "run_online", counting_run)
        rc = main(["--out", str(tmp_path), "simulate", "--files", "8", "--bs", "2", "--tau", "3",
                   "--order", "2", "--cache", "2", "--slots", "6", "--ranks", "2,4"])
        assert rc == 0
        assert calls == [(True, False)]

    @pytest.mark.parametrize("observe", ["-0.5", "nan", "0", "1.5"])
    def test_observe_outside_unit_interval_exits_2(self, tmp_path, capsys, observe):
        out = tmp_path / "out"
        rc = main(["--out", str(out), "simulate", "--files", "8", "--bs", "2", "--tau", "3",
                   "--order", "2", "--cache", "2", "--slots", "6", "--observe", observe])
        assert rc == 2
        assert "observe_fraction must be in (0, 1]" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_ranks_exits_2(self, tmp_path, capsys):
        rc = main(["--out", str(tmp_path), "simulate", "--files", "8", "--bs", "2",
                   "--tau", "3", "--order", "2", "--cache", "2", "--slots", "6", "--ranks", ""])
        assert rc == 2
        assert "ranks needs at least one value" in capsys.readouterr().err

    @pytest.mark.parametrize("bs", ["0", "-1"])
    def test_bs_below_one_exits_2(self, tmp_path, capsys, bs):
        out = tmp_path / "out"
        rc = main(["--out", str(out), "simulate", "--bs", bs, "--files", "8", "--cache", "2",
                   "--tau", "3", "--order", "2", "--slots", "12"])
        assert rc == 2
        assert f"bs must be >= 1, got {bs}" in capsys.readouterr().err
        assert not out.exists()

    def test_too_short_stream_exits_2(self, tmp_path):
        rc = main(
            ["--out", str(tmp_path), "simulate", "--files", "8", "--bs", "2",
             "--slots", "5", "--tau", "10"]
        )
        assert rc == 2

    @pytest.mark.parametrize(
        "flags, cause",
        [(["--cache", "9", "--files", "8"], "cache size 9"),
         (["--order", "12", "--tau", "10"], "prediction order 12")],
    )
    def test_infeasible_online_config_exits_2(self, tmp_path, capsys, flags, cause):
        rc = main(["--out", str(tmp_path), "simulate", "--bs", "2", "--slots", "12", *flags])
        assert rc == 2
        assert cause in capsys.readouterr().err

    def test_internal_error_prints_cause(self, tmp_path, capsys, monkeypatch):
        def failing_fit(*args):
            raise np.linalg.LinAlgError("solver blew up")

        monkeypatch.setattr(caching_mod, "fit_predict", failing_fit)
        rc = main(["--out", str(tmp_path), "simulate", "--files", "8", "--bs", "2",
                   "--tau", "3", "--order", "2", "--cache", "2", "--slots", "6",
                   "--completion", "off"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "internal error: online loop failed at slot 3" in err
        assert "solver blew up" in err

    def test_summary_reproducible_across_runs(self, tmp_path):
        argv = ["simulate", "--files", "8", "--bs", "2", "--tau", "3", "--order", "2",
                "--cache", "2", "--slots", "8", "--ranks", "4", "--seed", "7"]
        texts = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert main(["--out", str(out), *argv]) == 0
            texts.append((out / "summary.csv").read_text() + (out / "slots.csv").read_text())
        assert texts[0] == texts[1]

    def test_order_one_lp_equals_mean(self, tmp_path):
        # a single-lag fit with the sum-to-one constraint forces c = (1,)
        out = tmp_path / "out"
        rc = main(
            ["--out", str(out), "simulate", "--files", "8", "--bs", "2", "--tau", "3",
             "--order", "1", "--cache", "2", "--slots", "10", "--ranks", "4",
             "--completion", "off"]
        )
        assert rc == 0
        _, rows = read_csv_rows(out / "summary.csv")
        avg = {r[0]: r[2] for r in rows}
        assert avg["lp-raw"] == avg["mean-raw"]


@pytest.mark.parametrize(
    "argv, cause",
    [(["complete", "F", "--shift", "0"], "shift must be >= 1"),
     (["complete", "F", "--shift", "4"], "shift 4 invalid for order 4"),
     (["complete", "F", "--rank", "4,0"], "rank must be >= 1, got 0"),
     (["simulate", "--ranks", "8,0"], "ranks must be >= 1, got 0"),
     (["simulate", "--tau", "3"], "too short for prediction order 6"),
     (["simulate", "--cache", "40", "--files", "16"], "cache size 40 must be in 1..16"),
     (["simulate", "--shift", "4", "--slots", "12", "--files", "16", "--cache", "4"],
      "shift 4 invalid for the 4th-order windows"),
     (["simulate", "--seed", "-1"], "seed must be >= 0, got -1"),
     (["synth", "6,5,4", "--seed", "-1"], "seed must be >= 0, got -1"),
     (["simulate", "--slots", "-3"], "slots must be >= 1, got -3"),
     (["simulate", "--order", "0", "--slots", "12"], "order must be >= 1, got 0"),
     (["synth", "6,5,4", "--name", "a.coo", "--truth-out", "a.coo"],
      "--truth-out a.coo would overwrite the observed tensor a.coo"),
     (["synth", "6,5,4", "--truth-out", "observed.coo"],
      "--truth-out observed.coo would overwrite the observed tensor observed.coo"),
     (["synth", "6,5,4", "--truth-out", "nodir/t.coo"], "--truth-out nodir/t.coo: directory"),
     (["synth", "6,5,4", "--name", "nodir/o.coo"], "--name nodir/o.coo: directory")],
)
def test_settings_error_exits_2_leaving_no_out_dir(tensor_file, tmp_path, capsys, argv, cause):
    out = tmp_path / "out"
    argv = [str(tensor_file) if arg == "F" else arg for arg in argv]
    assert main(["--out", str(out), *argv]) == 2
    assert cause in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "line, argv, cause",
    [("mode_select = sigma", ["complete", "F"], "unknown key 'mode_select'"),
     ("max_iter = 5", ["complete", "F"], "unknown key 'max_iter'"),
     ('predictor = "bogus"', ["simulate", "--slots", "12", "--files", "16", "--cache", "4"],
      "unknown predictor mode 'bogus'")],
)
def test_config_error_exits_2_leaving_no_out_dir(tensor_file, tmp_path, capsys, line, argv,
                                                 cause):
    cfg = tmp_path / "run.toml"
    cfg.write_text(line + "\n")
    out = tmp_path / "out"
    argv = [str(tensor_file) if arg == "F" else arg for arg in argv]
    assert main(["--config", str(cfg), "--out", str(out), *argv]) == 2
    assert cause in capsys.readouterr().err
    assert not out.exists()


class TestIngestCommand:
    def test_ratings_to_slot_files(self, tmp_path):
        ratings = tmp_path / "ratings.csv"
        lines = ["user_id,movie_id,rating,timestamp"]
        lines += [f"{u},{m},4.0,{1000 + m}" for u, m in zip(range(1, 7), range(1, 7))]
        lines += ["3,1,5.0,2592800000"]  # far in the future: forces a second slot
        ratings.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        rc = main(["--out", str(out), "ingest", str(ratings), "--top-f", "6", "--bs", "2"])
        assert rc == 0
        slot_files = sorted(out.glob("slot_*.coo"))
        assert len(slot_files) > 1
        manifests = list(out.glob("manifest-ingest-*.json"))
        assert len(manifests) == 1
        manifest = json.loads(manifests[0].read_text())
        assert manifest["config"]["top_f"] == 6

    def test_empty_ratings_exits_2(self, tmp_path):
        ratings = tmp_path / "empty.csv"
        ratings.write_text("")
        assert main(["--out", str(tmp_path), "ingest", str(ratings)]) == 2

    def test_missing_ratings_exits_2(self, tmp_path):
        assert main(["--out", str(tmp_path), "ingest", str(tmp_path / "nope.csv")]) == 2

    @pytest.mark.parametrize(
        "record, message",
        [("x,10,4.0,1000", "2: bad field in 'x,10,4.0,1000'"),
         ("1,10,4.0,inf", "2: bad field in '1,10,4.0,inf'"),
         ("1,10,nan,1000", "2: rating must be finite and >= 0")],
    )
    def test_bad_record_exits_2_naming_line(self, tmp_path, capsys, record, message):
        ratings = tmp_path / "bad.csv"
        ratings.write_text(f"user_id,movie_id,rating,timestamp\n{record}\n1,11,4.0,1000\n")
        out = tmp_path / "out"
        assert main(["--out", str(out), "ingest", str(ratings), "--top-f", "1",
                     "--weight", "stars"]) == 2
        assert f"{ratings}:{message}" in capsys.readouterr().err
        assert not out.exists() or not any(out.glob("slot_*.coo"))


    @pytest.mark.parametrize("gap", ["-1", "nan"])
    def test_bad_gap_hours_exits_2(self, tmp_path, capsys, gap):
        ratings = tmp_path / "ratings.csv"
        ratings.write_text("1,10,4.0,1000\n1,11,4.0,2000\n")
        out = tmp_path / "out"
        rc = main(["--out", str(out), "ingest", str(ratings), "--top-f", "2",
                   "--pairing", "cosession", "--gap-hours", gap])
        assert rc == 2
        assert "session_gap_hours must be >= 0" in capsys.readouterr().err
        assert not out.exists()


class TestSynthCommand:
    def test_generates_coo_fixture(self, tmp_path):
        out = tmp_path / "out"
        rc = main(
            ["--out", str(out), "synth", "6,5,4", "--mode-ranks", "1,1,1", "--observe", "0.5",
             "--truth-out", "truth.coo"]
        )
        assert rc == 0
        assert (out / "observed.coo").exists()
        assert (out / "truth.coo").exists()

    def test_infeasible_ranks_exit_2(self, tmp_path):
        assert main(["--out", str(tmp_path), "synth", "3,3,3", "--mode-ranks", "9,1,1"]) == 2

    @pytest.mark.parametrize("noise", ["-1", "nan", "inf"])
    def test_negative_or_non_finite_noise_exits_2(self, tmp_path, capsys, noise):
        out = tmp_path / "out"
        assert main(["--out", str(out), "synth", "6,5,4", f"--noise={noise}"]) == 2
        assert "noise must be finite and >= 0" in capsys.readouterr().err
        assert not out.exists() or not list(out.iterdir())


class TestConfigPrecedence:
    def test_flags_beat_config_beats_defaults(self, tensor_file, tmp_path):
        cfg = tmp_path / "run.toml"
        cfg.write_text('rank = 4\nupdate = "rank1"\n# comment\n')
        out = tmp_path / "out"
        rc = main(
            ["--config", str(cfg), "--out", str(out), "complete", str(tensor_file),
             "--rank", "8"]
        )
        assert rc == 0
        assert (out / "trace-R8.csv").exists()  # flag wins over config
        manifests = list(out.glob("manifest-complete-*.json"))
        manifest = json.loads(manifests[0].read_text())
        assert manifest["config"]["update"] == "rank1"  # config wins over default
        assert manifest["config"]["shift"] == 1  # built-in default

    @pytest.mark.parametrize("flag, ranks",
                             [([], [1, 1, 1]), (["--mode-ranks", "2,1,1"], [2, 1, 1])])
    def test_synth_ranks_flag_beats_config(self, tmp_path, flag, ranks):
        cfg = tmp_path / "synth.toml"
        cfg.write_text("mode_ranks = [1, 1, 1]\nseed = 3\n")
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "synth", "6,5,4", *flag]) == 0
        [manifest] = out.glob("manifest-synth-*.json")
        config = json.loads(manifest.read_text())["config"]
        assert (config["mode_ranks"], config["seed"]) == (ranks, 3)

    def test_one_config_serves_simulate_and_synth(self, tmp_path):
        # rank budgets (ranks) and per-mode ranks (mode_ranks) are separate keys
        cfg = tmp_path / "both.toml"
        cfg.write_text("ranks = [8, 16, 24]\nmode_ranks = [1, 1, 1]\n"
                       "files = 8\nbs = 2\ncache = 2\ntau = 3\norder = 2\nslots = 6\n")
        echo = {}
        for command in (["simulate"], ["synth", "6,5,4"]):
            out = tmp_path / command[0]
            assert main(["--config", str(cfg), "--out", str(out), *command]) == 0
            [manifest] = out.glob("manifest-*.json")
            echo[command[0]] = json.loads(manifest.read_text())["config"]
        assert echo["simulate"]["ranks"] == [8, 16, 24]
        assert echo["synth"]["mode_ranks"] == [1, 1, 1]

    def test_env_var_out_dir(self, tensor_file, tmp_path, monkeypatch):
        target = tmp_path / "from-env"
        monkeypatch.setenv("TENSCACHE_OUT_DIR", str(target))
        rc = main(["complete", str(tensor_file), "--rank", "4"])
        assert rc == 0
        assert (target / "trace-R4.csv").exists()

    def test_bad_config_line_exits_2(self, tensor_file, tmp_path):
        cfg = tmp_path / "bad.toml"
        cfg.write_text("rank 4\n")
        rc = main(["--config", str(cfg), "--out", str(tmp_path), "complete", str(tensor_file)])
        assert rc == 2

    def test_unknown_config_key_exits_2(self, tensor_file, tmp_path, capsys):
        cfg = tmp_path / "typo.toml"
        cfg.write_text("# comment\nrnak = 5\n")
        rc = main(["--config", str(cfg), "--out", str(tmp_path), "complete", str(tensor_file)])
        assert rc == 2
        assert f"{cfg}:2: unknown key 'rnak'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "value, methods",
        [("true", {"mean-completed"}), ("false", {"mean-raw"}),
         ('"on"', {"mean-completed"}), ('"both"', {"mean-completed", "mean-raw"})],
    )
    def test_completion_from_config_file(self, tmp_path, value, methods):
        cfg = tmp_path / "sim.toml"
        cfg.write_text(f"completion = {value}\n")
        out = tmp_path / "out"
        rc = main(["--config", str(cfg), "--out", str(out), "simulate", "--files", "8",
                   "--bs", "2", "--tau", "3", "--order", "2", "--cache", "2", "--slots", "6",
                   "--ranks", "4", "--predictor", "mean"])
        assert rc == 0
        _, rows = read_csv_rows(out / "summary.csv")
        assert {r[0] for r in rows} - {"oracle"} == methods

    @pytest.mark.parametrize("value", ['"maybe"', "1", '"true"'])
    def test_bad_completion_in_config_exits_2(self, tmp_path, capsys, value):
        cfg = tmp_path / "sim.toml"
        cfg.write_text(f"completion = {value}\n")
        rc = main(["--config", str(cfg), "--out", str(tmp_path), "simulate", "--files", "8",
                   "--bs", "2", "--tau", "3", "--order", "2", "--cache", "2", "--slots", "6"])
        assert rc == 2
        assert "completion must be" in capsys.readouterr().err

    @pytest.mark.parametrize("line, command", [
        ("shift = 1.5", "complete"), ('shift = "two"', "complete"), ("seed = true", "synth"),
        ("seed = 0.5", "synth"), ("rank = [1, false]", "complete"),
    ])
    def test_non_integer_in_config_exits_2(self, tensor_file, tmp_path, capsys, line, command):
        cfg = tmp_path / "run.toml"
        cfg.write_text(line + "\n")
        out = tmp_path / "out"
        arg = str(tensor_file) if command == "complete" else "6,5,4"
        assert main(["--config", str(cfg), "--out", str(out), command, arg]) == 2
        key = line.split(" = ")[0]
        assert f"{key} must be an integer, got " in capsys.readouterr().err
        assert not out.exists() or not list(out.iterdir())

    @pytest.mark.parametrize("line, command", [
        ("observe = true", "synth"), ("noise = true", "synth"), ('noise = "low"', "synth"),
        ("gap_hours = true", "ingest"),
    ])
    def test_non_number_in_config_exits_2(self, tensor_file, tmp_path, capsys, line, command):
        cfg = tmp_path / "run.toml"
        cfg.write_text(line + "\n")
        ratings = tmp_path / "ratings.csv"
        ratings.write_text("1,10,4.0,1000\n1,11,4.0,2000\n")
        out = tmp_path / "out"
        arg = {"complete": tensor_file, "synth": "6,5,4", "ingest": ratings}[command]
        assert main(["--config", str(cfg), "--out", str(out), command, str(arg)]) == 2
        key = line.split(" = ")[0]
        assert f"{key} must be a number, got " in capsys.readouterr().err
        assert not out.exists() or not list(out.iterdir())

    @pytest.mark.parametrize("line, shift", [("shift = 2.0", 2), ('shift = "2"', 2)])
    def test_integral_config_value_accepted(self, tensor_file, tmp_path, line, shift):
        cfg = tmp_path / "run.toml"
        cfg.write_text(line + "\n")
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--out", str(out), "complete", str(tensor_file),
                     "--rank", "2"]) == 0
        [manifest] = out.glob("manifest-complete-*.json")
        config = json.loads(manifest.read_text())["config"]
        assert config["shift"] == shift and type(config["shift"]) is int

    def test_non_integer_flag_exits_2(self, tensor_file, tmp_path, capsys):
        # a flag reaches the parser a config value does, and gets its message
        assert main(["--out", str(tmp_path), "complete", str(tensor_file), "--shift", "1.5"]) == 2
        assert "shift must be an integer, got '1.5'" in capsys.readouterr().err


class TestRepeatedSweepValues:
    def test_repeated_rank_is_solved_and_written_once(self, tensor_file, tmp_path):
        sim = tmp_path / "sim"
        assert main(["--out", str(sim), "simulate", "--files", "8", "--bs", "2", "--tau", "3",
                     "--order", "2", "--cache", "2", "--slots", "8", "--ranks", "4,2,4",
                     "--shift", "2"]) == 0
        _, rows = read_csv_rows(sim / "summary.csv")
        cells = [(r[0], r[1]) for r in rows]
        assert len(cells) == len(set(cells)) == 2 * 2 * 2 + 1  # {lp, mean} x {completed, raw} x {4, 2}
        out = tmp_path / "complete"
        assert main(["--out", str(out), "complete", str(tensor_file), "--rank", "8,8"]) == 0
        [manifest] = out.glob("manifest-complete-*.json")
        assert json.loads(manifest.read_text())["outputs"] == ["trace-R8.csv"]


def _manifest_config(out, command):
    [manifest] = out.glob(f"manifest-{command}-*.json")
    return json.loads(manifest.read_text())["config"]


class TestManifestConfigAtDefaults:
    """The full config echo of each command at its built-in defaults. JSON text is
    compared, so an int where a float was written (6 for 6.0) also fails."""

    @staticmethod
    def assert_echo(out, command, expected):
        got = _manifest_config(out, command)
        assert json.dumps(got, sort_keys=True) == json.dumps(expected, sort_keys=True)

    def test_complete(self, tensor_file, tmp_path):
        assert main(["--out", str(tmp_path), "complete", str(tensor_file)]) == 0
        self.assert_echo(tmp_path, "complete", {
            "tensor": str(tensor_file), "rank": [8], "shift": 1, "update": "multi",
        })

    def test_simulate(self, tmp_path, monkeypatch):
        def one_window(stream, cfg, mask):
            # score one window only: the echo does not depend on how many are scored
            n = cfg.tau + 1
            return caching_mod.run_online(stream[:n], cfg, mask[:n])

        monkeypatch.setattr(cli_mod, "run_online", one_window)
        assert main(["--out", str(tmp_path), "simulate"]) == 0
        self.assert_echo(tmp_path, "simulate", {
            "source": "synthetic", "tau": 10, "order": 6, "cache": 32, "bs": 3,
            "files": 128, "shift": 1, "ranks": [8, 16, 24], "predictor": ["lp", "mean"],
            "completion": [True, False], "slots": 40, "observe": 0.05, "seed": 0,
        })

    def test_ingest(self, tmp_path):
        ratings = tmp_path / "ratings.csv"
        ratings.write_text("".join(f"{m},{m},4.0,{1000 + m}\n" for m in range(1, 129)))
        assert main(["--out", str(tmp_path / "out"), "ingest", str(ratings)]) == 0
        self.assert_echo(tmp_path / "out", "ingest", {
            "ratings": str(ratings), "top_f": 128, "bs": 3, "slot_days": 30,
            "pairing": "self", "gap_hours": 6.0, "weight": "count",
            "movie_ids": list(range(1, 129)), "start_timestamp": 1001,
        })

    def test_synth(self, tmp_path):
        assert main(["--out", str(tmp_path), "synth", "6,5,4"]) == 0
        self.assert_echo(tmp_path, "synth", {
            "shape": [6, 5, 4], "mode_ranks": [2, 2, 2], "observe": 0.05, "noise": 0.0,
            "seed": 0, "shift": 1,
        })


class TestCliSurface:
    def test_option_strings_and_choices(self):
        [subparsers] = [a for a in cli_mod.build_parser()._actions
                        if isinstance(a, argparse._SubParsersAction)]
        common = {"-h", "--help", "--config", "--out"}
        expected = {
            "complete": ({"tensor", "--rank", "--shift", "--update"},
                         {"--update": ["multi", "rank1"]}),
            "simulate": ({"--ratings", "--tau", "--order", "--cache", "--bs", "--files",
                          "--shift", "--ranks", "--predictor", "--completion", "--slots",
                          "--observe", "--seed"},
                         {"--predictor": ["lp", "mean", "both"],
                          "--completion": ["on", "off", "both"]}),
            "ingest": ({"ratings", "--top-f", "--bs", "--slot-days", "--pairing", "--gap-hours",
                        "--weight"},
                       {"--pairing": ["self", "cosession"], "--weight": ["count", "stars"]}),
            "synth": ({"shape", "--mode-ranks", "--observe", "--noise", "--shift", "--seed",
                       "--name", "--truth-out"}, {}),
        }
        assert set(subparsers.choices) == set(expected)
        for command, (options, choices) in expected.items():
            actions = subparsers.choices[command]._actions
            got = {s for a in actions for s in (a.option_strings or [a.dest])}
            assert got == options | common, command
            got_choices = {a.option_strings[0]: list(a.choices) for a in actions if a.choices}
            assert got_choices == choices, command

    def test_every_setting_is_read_by_a_command(self):
        read = {key for keys in cli_mod.COMMAND_SETTINGS.values() for key in keys}
        assert read == set(cli_mod.SETTINGS)
