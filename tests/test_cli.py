import math
import re
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from reference import reference_sample

import bnmia
from bnmia import harness, inference
from bnmia.attacks import score
from bnmia.cli import main
from bnmia.model import ReleasedCounts, attribute_marginals, output_marginal_law
from bnmia.populations import load_benchmark


def test_readme_library_list_is_the_package_api():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    listed = section[section.index("\n- "):]
    assert sorted(re.findall(r"`(\w+)`", listed)) == sorted(bnmia.__all__)


def data_path(tmp_path, name):
    text = resources.files("bnmia.data").joinpath(name).read_text(encoding="utf-8")
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestSample:
    def test_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "records.csv"
        code = main([
            "sample", "--network", "cancer", "--n", "5", "--seed", "3",
            "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "Pollution,Smoker,Cancer,Xray,Dyspnoea"
        assert len(lines) == 6

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["sample", "--network", "asia", "--n", "4", "--seed", "9", "--out", str(a)])
        main(["sample", "--network", "asia", "--n", "4", "--seed", "9", "--out", str(b)])
        assert a.read_text() == b.read_text()

    def test_matches_the_reference_sampler(self, tmp_path):
        out = tmp_path / "asia.csv"
        main(["sample", "--network", "asia", "--n", "100", "--seed", "7", "--out", str(out)])
        bn = load_benchmark("asia")
        rng = np.random.default_rng(7)
        rows = [",".join(bn.node_names)]
        for _ in range(100):
            rec = reference_sample(bn, rng)
            rows.append(",".join(bn.node(v).states[rec[v]] for v in bn.node_names))
        assert out.read_text() == "\n".join(rows) + "\n"

    def test_bundled_name_wins_over_a_file_of_that_name(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "asia").write_text(
            "variable A { type discrete [ 2 ] { a, b }; }\n"
            "probability ( A ) { table 0.5, 0.5; }\n",
            encoding="utf-8",
        )
        assert main(["sample", "--network", "asia", "--n", "2"]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header == ",".join(load_benchmark("asia").node_names)
        assert main(["sample", "--network", "./asia", "--n", "2"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "A"

    def test_toy_population(self, capsys):
        code = main(["sample", "--network", "product:4", "--n", "3"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "X1,X2,X3,X4"
        assert len(lines) == 4 and all(len(line.split(",")) == 4 for line in lines)


class TestAttack:
    def test_lrt_score_from_file(self, tmp_path, capsys):
        net = data_path(tmp_path, "cancer.sexp")
        code = main([
            "attack", "--network", str(net),
            "--outputs", "Xray,Dyspnoea", "--encoding", "raw-binary",
            "--counts", "2,1", "--n", "4", "--target", "1,0", "--attack", "lrt",
        ])
        assert code == 0
        kind, value = capsys.readouterr().out.split()
        assert kind == "lrt"
        assert math.isfinite(float(value))

    def test_bayes_with_threshold(self, capsys):
        code = main([
            "attack", "--network", "cancer", "--counts", "2,2,1,3,1,3,2,2,3,1",
            "--n", "4", "--target", "1,0,1,0,1,0,1,0,1,0", "--attack", "bayes",
            "--threshold", "0",
        ])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("bayes ")
        assert out[1] in {"IN", "OUT"}

    def test_clip_range_required(self, capsys):
        code = main([
            "attack", "--network", "cancer", "--counts", "2,2,1,3,1,3,2,2,3,1",
            "--n", "4", "--target", "1,0,1,0,1,0,1,0,1,0", "--attack", "lrt_clipped",
        ])
        assert code == 1
        assert capsys.readouterr().err == "error: unknown attack 'lrt_clipped'\n"
        # A bad name is reported before the release, which is bad too here.
        code = main([
            "attack", "--network", "cancer", "--counts", "1", "--n", "4",
            "--target", "1", "--attack", "nope",
        ])
        assert code == 1
        assert capsys.readouterr().err == "error: unknown attack 'nope'\n"

    def test_readme_example_prints_the_pinned_scores(self, capsys):
        for line in ("lrt 8.15394143503", "inner_product 0.5261585", "bayes 2.30094680016",
                     "lrt_clipped:1-5 1.52765650794", "lrt_clipped_auto 4.59552945927",
                     "lrt_clipped_flip 9.69415787843"):
            code = main([
                "attack", "--network", "cancer", "--counts", "2,2,1,3,1,3,2,2,3,1",
                "--n", "4", "--target", "1,0,1,0,1,0,1,0,1,0", "--attack", line.split()[0],
            ])
            assert (code, capsys.readouterr().out) == (0, line + "\n")

    def test_impossible_release_is_data_error(self, capsys):
        # X3 copies X2 in half:3, so counts with c2 != c3 have probability zero.
        code = main(["attack", "--network", "half:3", "--counts", "0,1,0", "--n", "1",
                     "--target", "0,0,1", "--attack", "bayes"])
        assert (code, capsys.readouterr().err) == (
            2, "error: impossible evidence: released counts have probability zero under BN\n"
        )

    def test_clipped_attack_takes_the_eval_grammar(self, capsys):
        code = main([
            "attack", "--network", "cancer", "--counts", "2,2,1,3,1,3,2,2,3,1",
            "--n", "4", "--target", "1,0,1,0,1,0,1,0,1,0", "--attack", "lrt_clipped:1-5",
        ])
        assert code == 0
        kind, value = capsys.readouterr().out.split()
        law = output_marginal_law(load_benchmark("cancer"))
        expected, _ = score(
            "lrt_clipped:1-5", law, attribute_marginals(law),
            [ReleasedCounts((2, 2, 1, 3, 1, 3, 2, 2, 3, 1), 4)], [[[1, 0, 1, 0, 1, 0, 1, 0, 1, 0]]],
        )
        assert (kind, value) == ("lrt_clipped:1-5", f"{expected[0, 0]:.12g}")

    @pytest.mark.parametrize(
        "network, counts, n, target, attack",
        [
            pytest.param("cancer", "1,2", "4", "1,0", "lrt", id="length"),
            pytest.param("product:2", "0,0", "0", "1,0", "lrt", id="no-records"),
            pytest.param("product:2", "3,0", "2", "1,0", "inner_product", id="count-above-n"),
            pytest.param("product:2", "1,-1", "2", "1,0", "lrt", id="negative-count"),
            pytest.param("product:2", "1,1", "2", "2,0", "lrt", id="target-not-a-bit"),
        ],
    )
    def test_dimension_mismatch_is_data_error(self, capsys, network, counts, n, target, attack):
        code = main([
            "attack", "--network", network, "--counts", counts,
            "--n", n, "--target", target, "--attack", attack,
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "line" not in err and "column" not in err  # no source position to name


class TestEval:
    def test_writes_results_and_summary(self, tmp_path, capsys):
        out = tmp_path / "results.csv"
        code = main([
            "eval", "--network", "product:3", "--n", "2", "--trials", "3",
            "--targets-in", "4", "--targets-out", "4", "--seed", "5",
            "--attacks", "lrt,bayes", "--out", str(out),
        ])
        assert code == 0
        assert out.exists()
        summary = tmp_path / "results.summary.csv"
        assert summary.exists()
        header = out.read_text().splitlines()[0]
        assert header == "population,d,n,threat,m,attack,trial,auc"
        assert len(out.read_text().splitlines()) == 1 + 3 * 2

    def test_file_format_is_read_from_the_text(self, tmp_path):
        sexp = data_path(tmp_path, "cancer.sexp")
        txt = tmp_path / "cancer.txt"
        txt.write_text(sexp.read_text(encoding="utf-8"), encoding="utf-8")
        outputs = {}
        for net in (sexp, txt):
            out = tmp_path / f"{net.suffix[1:]}.csv"
            code = main(["eval", "--network", str(net), "--n", "4", "--trials", "4",
                         "--out", str(out)])
            assert code == 0
            outputs[net.suffix] = [
                [line.split(",", 1) for line in path.read_text().splitlines()[1:]]
                for path in (out, out.with_name(out.stem + ".summary.csv"))
            ]
        for sexp_rows, txt_rows in zip(outputs[".sexp"], outputs[".txt"]):
            assert [pop for pop, _ in sexp_rows] == [str(sexp)] * len(sexp_rows)
            assert [pop for pop, _ in txt_rows] == [str(txt)] * len(txt_rows)
            assert [rest for _, rest in sexp_rows] == [rest for _, rest in txt_rows]

    def test_bad_attack_is_usage_error_before_any_output(self, tmp_path, capsys):
        out = tmp_path / "results.csv"
        code = main([
            "eval", "--network", "cancer", "--n", "4", "--attacks", "lrt,lrt_clipped:x-3",
            "--out", str(out),
        ])
        assert code == 1
        assert capsys.readouterr().err == "error: unknown attack 'lrt_clipped:x-3'\n"
        assert not out.exists()

    def test_repeated_attack_is_usage_error_before_any_output(self, tmp_path, capsys):
        out = tmp_path / "results.csv"
        code = main([
            "eval", "--network", "cancer", "--n", "4", "--attacks", "lrt,lrt", "--out", str(out),
        ])
        assert code == 1
        assert capsys.readouterr().err == "error: attack 'lrt' is named more than once\n"
        assert not out.exists()

    def test_weakest_with_one_proxy_record_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "results.csv"
        code = main([
            "eval", "--network", "cancer", "--n", "4", "--trials", "2",
            "--threat", "weakest", "--m", "1", "--out", str(out),
        ])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: the weakest threat model learns structure: it needs a proxy size m >= 2\n"
        )
        assert not out.exists()

    def test_m_under_the_strong_threat_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "results.csv"
        code = main([
            "eval", "--network", "cancer", "--n", "4", "--trials", "2", "--m", "5",
            "--out", str(out),
        ])
        assert code == 1
        assert capsys.readouterr().err == "error: m applies only to the weak and weakest threats\n"
        assert not out.exists()

    def test_usage_error_exit_code(self):
        code = main(["eval", "--network", "cancer", "--n", "2", "--threat", "weak"])
        assert code == 1  # missing --m

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_is_usage_error(self, tmp_path, capsys, workers):
        out = tmp_path / "results.csv"
        code = main([
            "eval", "--network", "cancer", "--n", "4", "--trials", "2",
            "--workers", workers, "--out", str(out),
        ])
        assert code == 1
        assert capsys.readouterr().err == "error: workers must be at least 1\n"
        assert not out.exists()


class TestVerifyAndBench:
    def test_verify_small(self, capsys):
        code = main(["verify", "--populations", "3", "--samples", "50"])
        out = capsys.readouterr().out
        assert code == 0
        assert "product_marginal_ratio_equivalence" in out
        assert "PASS" in out
        assert "FAIL (known gap)" in out  # the documented mixture-model gap

    def test_bench_runs(self, capsys):
        code = main([
            "bench", "--networks", "product:3", "--n", "2",
            "--datasets", "1", "--targets", "2",
        ])
        assert code == 0
        assert "sec/call" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", ["--datasets", "--targets"])
    def test_bench_needs_a_dataset_and_a_target(self, capsys, flag):
        code = main(["bench", "--networks", "product:3", "--n", "2", flag, "0"])
        assert code == 1
        assert capsys.readouterr().err == "error: datasets and targets must be at least 1\n"

    def test_bench_needs_a_record(self, capsys):
        code = main(["bench", "--networks", "product:3", "--n", "0"])
        assert code == 1
        assert capsys.readouterr().err == "error: n must be at least 1\n"


class TestErrors:
    def test_unknown_network_is_data_error(self, capsys):
        code = main(["sample", "--network", "nonesuch", "--n", "2"])
        assert code in (1, 2)

    def test_missing_file_is_data_error(self, tmp_path, capsys):
        code = main(["sample", "--network", str(tmp_path / "x.bif"), "--n", "2"])
        assert code == 2
        assert "No such file" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sample", "eval"])
    def test_unwritable_output_is_data_error(self, tmp_path, capsys, command):
        code = main([command, "--network", "cancer", "--n", "2", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("error: ") and "Is a directory" in err
        assert len(err.splitlines()) == 1

    def test_unwritable_eval_output_fails_before_the_experiment(self, tmp_path, monkeypatch,
                                                                 capsys):
        def refuse(config):
            raise AssertionError("the experiment ran")

        monkeypatch.setattr(harness, "run_experiment", refuse)
        code = main(["eval", "--network", "sachs", "--n", "4", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("error: ") and "Is a directory" in err
        # An unwritable summary path removes the rows file opened before it.
        out = tmp_path / "results.csv"
        (tmp_path / "results.summary.csv").mkdir()
        code = main(["eval", "--network", "sachs", "--n", "4", "--out", str(out)])
        assert code == 2 and "Is a directory" in capsys.readouterr().err
        assert not out.exists()

    def test_convolution_past_its_budget_is_data_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(inference, "_CANDIDATE_BUDGET", 8)
        out = tmp_path / "results.csv"
        code = main(["eval", "--network", "cancer", "--n", "4", "--trials", "2",
                     "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("error: ") and "candidate budget" in err
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_live_table_past_its_budget_is_data_error(self, tmp_path, monkeypatch, capsys):
        # product:3 at n = 8, 40 trials: no range gathers 3,000 candidates,
        # but a step's joined table over the 40 releases keeps more.
        monkeypatch.setattr(inference, "_CANDIDATE_BUDGET", 3000)
        out = tmp_path / "results.csv"
        code = main(["eval", "--network", "product:3", "--n", "8", "--trials", "40",
                     "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "error: a convolution step would keep more than 3000 live partial sums" \
            " (the candidate budget)\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, text", [
        (["sample", "--n", "2"], "variable A { type discrete [ 2 ] { a }; }"),
        (["eval", "--n", "4", "--trials", "4"], "variable A {"),  # truncated
    ])
    def test_malformed_file_is_data_error(self, tmp_path, capsys, command, text):
        bad = tmp_path / "bad.bif"
        bad.write_text(text, encoding="utf-8")
        code = main([*command, "--network", str(bad), "--out", str(tmp_path / "out.csv")])
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("error: ") and len(err.splitlines()) == 1

    def test_oversized_law_is_data_error(self, capsys):
        # 24 released binary attributes: a 2**24-entry output table, over
        # the default guard of 10**7 entries.
        zeros = ",".join(["0"] * 24)
        code = main([
            "attack", "--network", "product:24", "--counts", zeros, "--n", "4",
            "--target", zeros, "--attack", "lrt",
        ])
        assert code == 2
        assert "too large" in capsys.readouterr().err

    def test_out_of_memory_is_data_error(self, monkeypatch, capsys):
        def exhausted(*args):
            raise MemoryError("Unable to allocate 801. MiB for an array")

        monkeypatch.setattr(inference, "sum_log_table", exhausted)
        code = main(["bench", "--networks", "cancer", "--datasets", "1", "--targets", "1"])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: out of memory: Unable to allocate 801. MiB for an array\n"

    @pytest.mark.parametrize("command", ["sample", "attack"])
    def test_invalid_network_is_data_error(self, capsys, command):
        extra = {
            "sample": ["--n", "2"],
            "attack": ["--counts", "1,1", "--n", "2", "--target", "1,0", "--attack", "lrt"],
        }[command]
        code = main([command, "--network", "cancer", "--outputs", "Nope", *extra])
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: output node Nope is not declared\n"

    @pytest.mark.parametrize(
        "override, message",
        [
            (["--network", "asia", "--outputs", "asia,nope"],
             "error: output node nope is not declared\n"),
            (["--network", "sachs", "--encoding", "raw-binary"],
             "error: raw-binary encoding requires binary nodes: PKC;"),
        ],
        ids=["unknown-output", "raw-binary-ternary"],
    )
    def test_eval_invalid_network_is_data_error(self, tmp_path, capsys, override, message):
        out = tmp_path / "results.csv"
        code = main(["eval", *override, "--n", "4", "--trials", "2", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(message)
        assert len(err.splitlines()) == 1
        assert not out.exists()

    def test_empty_network_is_invalid(self, tmp_path, capsys):
        empty = tmp_path / "empty.net"
        empty.write_text("", encoding="utf-8")
        out = tmp_path / "results.csv"
        code = main(["eval", "--network", str(empty), "--n", "2", "--trials", "1",
                     "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "error: network has no nodes\n"
        assert not out.exists()

    def test_usage_error_on_bad_flag(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["eval", "--no-such-flag"])
        assert excinfo.value.code == 1
