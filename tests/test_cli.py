"""Tests for the command-line interface: commands, exit codes, determinism."""

import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from stablepc import (Dag, SepsetMap, cpdag_from_dag, linear_sem_population_cov,
                      linear_sem_sample, write_csv)
from stablepc.cli import (
    EXIT_INPUT,
    EXIT_MISMATCH,
    EXIT_NUMERIC,
    EXIT_OK,
    RunConfig,
    CliInputError,
    cmd_bench,
    result_digest,
    run,
)
from stablepc.graphs import dag_from_json_dict
from stablepc.skeleton import DEFAULT_MEM_BUDGET_BYTES, LevelExecutor, run_level


def _rows_back(shared, rows, test, alpha):
    return (rows,)


def peak_in_flight(scfg, count, per_task_cost):
    """``peak_tasks_in_flight`` once ``run_level`` has run ``count`` rows
    under ``scfg``."""
    with LevelExecutor(scfg, None) as ex:
        run_level(ex, _rows_back, None, np.arange(count)[:, None], per_task_cost)
        return ex.peak_tasks_in_flight


def read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


def chain_csv(tmp_path, n=5000, seed=0):
    dag = Dag(3, [[], [0], [1]])
    weights = {(0, 1): 1.0, (1, 2): 1.0}
    ds = linear_sem_sample(dag, weights, n, noise_seed=seed)
    path = tmp_path / "chain.csv"
    write_csv(ds, path)
    return path, dag


class TestGen:
    def test_zero_density_empty_truth(self, tmp_path):
        code = run(["gen", "--output", str(tmp_path), "--p", "10",
                    "--density", "0", "--n", "50", "--seed", "1"])
        assert code == EXIT_OK
        truth = read_json(tmp_path / "truth.json")
        assert truth["edges"] == [] and truth["p"] == 10

    def test_seeded_reruns_byte_identical(self, tmp_path):
        for sub in ("a", "b"):
            run(["gen", "--output", str(tmp_path / sub), "--p", "8",
                 "--density", "0.3", "--n", "100", "--seed", "7"])
        assert (tmp_path / "a" / "data.csv").read_bytes() == \
            (tmp_path / "b" / "data.csv").read_bytes()
        assert (tmp_path / "a" / "truth.json").read_bytes() == \
            (tmp_path / "b" / "truth.json").read_bytes()

    def test_sample_cov_close_to_population(self, tmp_path):
        run(["gen", "--output", str(tmp_path), "--p", "10",
             "--density", "0.3", "--n", "10000", "--seed", "2"])
        truth = read_json(tmp_path / "truth.json")
        dag = dag_from_json_dict(truth)
        weights = {(int(u), int(v)): w for u, v, w in truth["weights"]}
        pop = linear_sem_population_cov(dag, weights)
        data = np.loadtxt(tmp_path / "data.csv", delimiter=",", skiprows=1)
        sample = np.cov(data.T)
        assert np.abs(sample - pop).max() <= 0.05 * max(1.0, np.abs(pop).max())

    def test_invalid_density(self, tmp_path):
        code = run(["gen", "--output", str(tmp_path), "--p", "5",
                    "--density", "1.5", "--n", "10"])
        assert code == EXIT_INPUT


class TestPcCommand:
    def test_chain_recovered(self, tmp_path):
        path, dag = chain_csv(tmp_path)
        out = tmp_path / "out"
        code = run(["pc", "--input", str(path), "--output", str(out)])
        assert code == EXIT_OK
        cpdag = read_json(out / "cpdag.json")
        expected = cpdag_from_dag(dag).to_json_dict()
        assert cpdag == json.loads(json.dumps(expected))

    def test_reruns_byte_identical(self, tmp_path):
        path, _ = chain_csv(tmp_path, n=800)
        for sub in ("r1", "r2"):
            run(["pc", "--input", str(path), "--output", str(tmp_path / sub),
                 "--num-workers", "2"])
        for name in ("cpdag.json", "sepsets.json", "skeleton.json"):
            assert (tmp_path / "r1" / name).read_bytes() == \
                (tmp_path / "r2" / name).read_bytes(), name

    def test_worker_counts_same_digest(self, tmp_path):
        path, _ = chain_csv(tmp_path, n=800)
        digests = []
        for workers in ("1", "4"):
            out = tmp_path / f"w{workers}"
            run(["pc", "--input", str(path), "--output", str(out),
                 "--num-workers", workers])
            digests.append(result_digest(read_json(out / "cpdag.json")))
        assert digests[0] == digests[1]

    def test_oracle_pipeline(self, tmp_path):
        run(["gen", "--output", str(tmp_path), "--p", "7",
             "--density", "0.3", "--n", "10", "--seed", "3"])
        out = tmp_path / "out"
        code = run(["pc", "--input", str(tmp_path / "truth.json"),
                    "--output", str(out), "--indep-test", "oracle"])
        assert code == EXIT_OK
        truth = dag_from_json_dict(read_json(tmp_path / "truth.json"))
        assert read_json(out / "cpdag.json") == \
            json.loads(json.dumps(cpdag_from_dag(truth).to_json_dict()))

    def test_levelstats_schema(self, tmp_path):
        path, _ = chain_csv(tmp_path, n=500)
        out = tmp_path / "out"
        run(["skeleton", "--input", str(path), "--output", str(out)])
        stats = read_json(out / "levelstats.json")
        assert all(set(row) == {"level", "tests", "removals", "wall_ms"}
                   for row in stats)


class TestExitCodes:
    def test_missing_input_file(self, tmp_path):
        code = run(["pc", "--input", str(tmp_path / "nope.csv"),
                    "--output", str(tmp_path / "out")])
        assert code == EXIT_INPUT

    def test_malformed_csv(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n3\n", encoding="utf-8")
        code = run(["pc", "--input", str(bad), "--output", str(tmp_path / "out")])
        assert code == EXIT_INPUT

    def test_input_is_a_directory(self, tmp_path, capsys):
        code = run(["pc", "--input", str(tmp_path), "--output", str(tmp_path / "out")])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert "Is a directory" in err and str(tmp_path) in err

    def test_output_is_a_file(self, tmp_path, capsys):
        path, _ = chain_csv(tmp_path, n=50)
        code = run(["pc", "--input", str(path), "--output", str(path)])
        assert code == EXIT_INPUT
        assert "File exists" in capsys.readouterr().err

    def test_csv_not_utf8(self, tmp_path, capsys):
        bad = tmp_path / "latin1.csv"
        bad.write_bytes("a,b\n1,2\n3,4\n\xe9,5\n".encode("latin-1"))
        code = run(["pc", "--input", str(bad), "--output", str(tmp_path / "out")])
        assert code == EXIT_INPUT
        assert f"{bad}: not UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("truth, named", [
        ({"edges": [[0, 1, "->"]]}, '"p"'),
        ({"p": 3, "edges": [[0, 1]]}, "[0, 1]"),
        ({"p": 3, "edges": [[0, 3, "->"]]}, "[0, 3, '->']"),
        ({"p": 3, "edges": [[0, -1, "->"]]}, "[0, -1, '->']"),
        ({"p": 3, "edges": [[0, 1, "--"]]}, "[0, 1, '--']"),
        ({"p": 3, "edges": [[0, 1, "->"]], "weights": [[0, 1]]}, "not a truth JSON"),
        ({"p": 3.7, "edges": []}, '"p"'),
        ({"p": 3, "edges": [[0.9, 1.6, "->"]]}, "[0.9, 1.6, '->']"),
        ({"p": 3, "edges": [["0", "2", "->"]]}, "['0', '2', '->']"),
        ({"p": 3, "edges": [[True, 2, "->"]]}, "[True, 2, '->']"),
        ({"p": 3, "edges": [[0, 1, "->"]], "weights": [[0.2, 1.9, True]]},
         "[0.2, 1.9, True]"),
        ({"p": 3, "edges": [[0, 1, "->"]], "weights": [[0, 1, True]]}, "[0, 1, True]"),
        ({"p": 3, "edges": [[0, 1, "->"]], "weights": [[0, 1, "0.5"]]}, "[0, 1, '0.5']"),
    ], ids=["no-p", "two-fields", "endpoint-past-p", "negative-endpoint",
            "undirected-mark", "short-weight", "float-p", "float-endpoints",
            "string-endpoints", "bool-endpoint", "float-weight-endpoints", "bool-weight",
            "string-weight"])
    def test_malformed_truth(self, tmp_path, capsys, truth, named):
        path = tmp_path / "truth.json"
        path.write_text(json.dumps(truth), encoding="utf-8")
        code = run(["skeleton", "--input", str(path), "--output", str(tmp_path / "out"),
                    "--indep-test", "oracle"])
        assert code == EXIT_INPUT
        err = capsys.readouterr().err
        assert f"{path}: " in err and named in err
        assert not (tmp_path / "out" / "skeleton.json").exists()

    def test_truth_not_json(self, tmp_path, capsys):
        path = tmp_path / "truth.json"
        path.write_text('{"p": 3,', encoding="utf-8")
        code = run(["pc", "--input", str(path), "--output", str(tmp_path / "out"),
                    "--indep-test", "oracle"])
        assert code == EXIT_INPUT
        assert f"{path}: not a truth JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["pc", "skeleton"])
    def test_one_variable_truth(self, tmp_path, capsys, command):
        path = tmp_path / "truth.json"
        path.write_text(json.dumps({"p": 1, "edges": []}), encoding="utf-8")
        code = run([command, "--input", str(path), "--output", str(tmp_path / "out"),
                    "--indep-test", "oracle"])
        assert code == EXIT_INPUT
        assert f"{path}: need at least two variables, got 1" in capsys.readouterr().err

    def test_oracle_ida_weights_off_the_edges(self, tmp_path, capsys):
        path = tmp_path / "truth.json"
        path.write_text(json.dumps({"p": 3, "edges": [[0, 1, "->"]],
                                    "weights": [[1, 2, 0.5]]}), encoding="utf-8")
        code = run(["ida", "--input", str(path), "--output", str(tmp_path / "out"),
                    "--indep-test", "oracle", "--cause", "0", "--outcome", "1"])
        assert code == EXIT_INPUT
        assert f"{path}: weights must cover" in capsys.readouterr().err

    def test_zero_variance_is_numeric_failure(self, tmp_path):
        flat = tmp_path / "flat.csv"
        flat.write_text("a,b\n1.5,3.25\n2.5,3.25\n3.5,3.25\n", encoding="utf-8")
        code = run(["pc", "--input", str(flat), "--output", str(tmp_path / "out")])
        assert code == EXIT_NUMERIC

    def test_overflowing_cell_is_numeric_failure(self, tmp_path, capsys):
        huge = tmp_path / "huge.csv"
        huge.write_text("a,b,c\n1e300,1.0,2.0\n2.0,2.5,1.0\n3.0,0.5,4.0\n4.0,1.5,3.0\n",
                        encoding="utf-8")
        code = run(["pc", "--input", str(huge), "--output", str(tmp_path / "out")])
        assert code == EXIT_NUMERIC
        assert "column 'a' overflows" in capsys.readouterr().err
        assert not (tmp_path / "out" / "skeleton.json").exists()

    def test_bad_flag_exits_two(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run(["pc", "--input", "x.csv", "--output", "y",
                 "--indep-test", "bogus"])
        assert err.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["skeleton"], ["pc"], ["pcsimple", "--target", "0"],
        ["ida", "--cause", "0", "--outcome", "1"],
    ], ids=["skeleton", "pc", "pcsimple", "ida"])
    def test_seed_rejected_where_unread(self, tmp_path, capsys, argv):
        path, _ = chain_csv(tmp_path, n=50)
        with pytest.raises(SystemExit) as err:
            run([*argv, "--input", str(path), "--output", str(tmp_path / "out"),
                 "--seed", "5"])
        assert err.value.code == 2
        assert "unrecognized arguments: --seed 5" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_bad_mem_budget(self, tmp_path):
        path, _ = chain_csv(tmp_path, n=50)
        code = run(["pc", "--input", str(path), "--output", str(tmp_path / "o"),
                    "--mem-budget", "lots"])
        assert code == EXIT_INPUT

    def test_auto_mem_budget_accepted(self, tmp_path):
        path, _ = chain_csv(tmp_path, n=300)
        code = run(["pc", "--input", str(path), "--output", str(tmp_path / "o"),
                    "--mem-efficient", "--mem-budget", "auto"])
        assert code == EXIT_OK


class TestPcSimpleCommand:
    def test_happy_path(self, tmp_path):
        path, _ = chain_csv(tmp_path, n=2000)
        out = tmp_path / "out"
        code = run(["pcsimple", "--input", str(path), "--output", str(out),
                    "--target", "1"])
        assert code == EXIT_OK
        result = read_json(out / "pcsimple.json")
        assert result["target"] == 1
        assert result["members"] == [0, 2]


class TestIdaCommand:
    def test_from_data(self, tmp_path):
        path, _ = chain_csv(tmp_path, n=4000)
        out = tmp_path / "out"
        code = run(["ida", "--input", str(path), "--output", str(out),
                    "--cause", "0", "--outcome", "2"])
        assert code == EXIT_OK
        result = read_json(out / "ida.json")
        assert result["cause"] == 0 and result["outcome"] == 2
        assert len(result["effects"]) >= 1

    def test_oracle_uses_population_cov(self, tmp_path):
        run(["gen", "--output", str(tmp_path), "--p", "6",
             "--density", "0.4", "--n", "10", "--seed", "5"])
        out = tmp_path / "out"
        code = run(["ida", "--input", str(tmp_path / "truth.json"),
                    "--output", str(out), "--indep-test", "oracle",
                    "--cause", "0", "--outcome", "3"])
        assert code == EXIT_OK
        assert (out / "ida.json").exists()


class TestBench:
    def test_digests_agree_and_schema(self, tmp_path):
        path, _ = chain_csv(tmp_path, n=600)
        out = tmp_path / "bench"
        code = run(["bench", "--input", str(path), "--output", str(out),
                    "--algos", "pc,pcsimple,ida", "--target", "1",
                    "--cause", "0", "--outcome", "2", "--num-workers", "2"])
        assert code == EXIT_OK
        rows = read_json(out / "bench.json")
        assert len(rows) == 9
        for algo in ("pc", "pcsimple", "ida"):
            digests = {r["result_digest"] for r in rows if r["algorithm"] == algo}
            assert len(digests) == 1
        tsv = (out / "bench.tsv").read_text(encoding="utf-8").splitlines()
        assert tsv[0].split("\t") == ["algorithm", "variant", "workers",
                                      "wall_ms", "peak_tasks_in_flight",
                                      "result_digest"]
        assert len(tsv) == 10
        # Each digest covers exactly the files the matching command writes,
        # all but the wall-clock levelstats.json.
        for algo, query in (("pc", []), ("pcsimple", ["--target", "1"]),
                            ("ida", ["--cause", "0", "--outcome", "2"])):
            cmd_out = tmp_path / algo
            assert run([algo, "--input", str(path), "--output", str(cmd_out),
                        *query]) == EXIT_OK
            names = sorted(f.name for f in cmd_out.iterdir() if f.name != "levelstats.json")
            digest = result_digest({name: read_json(cmd_out / name) for name in names})
            assert {r["result_digest"] for r in rows if r["algorithm"] == algo} == \
                {digest}, algo

    def test_digest_hashes_the_written_bytes(self, tmp_path):
        path, _ = chain_csv(tmp_path, n=600)
        query = {"pc": [], "pcsimple": ["--target", "1"],
                 "ida": ["--cause", "0", "--outcome", "2"]}
        out = tmp_path / "bench"
        assert run(["bench", "--input", str(path), "--output", str(out),
                    "--algos", ",".join(query), *query["pcsimple"], *query["ida"],
                    "--num-workers", "2"]) == EXIT_OK
        rows = read_json(out / "bench.json")
        for algo, flags in query.items():
            cmd_out = tmp_path / algo
            assert run([algo, "--input", str(path), "--output", str(cmd_out),
                        *flags]) == EXIT_OK
            sha = hashlib.sha256()
            for name in sorted(f.name for f in cmd_out.iterdir()):
                if name != "levelstats.json":
                    sha.update(name.encode() + b"\0" + (cmd_out / name).read_bytes())
            assert {r["result_digest"] for r in rows if r["algorithm"] == algo} == \
                {sha.hexdigest()}, algo

    def test_digest_of_a_wide_sepset_map_holds_no_pair_objects(self):
        # 40 % of the pairs at p = 1000, empty sets: as Python objects the
        # pairs would take tens of MiB
        p = 1000
        i, j = np.triu_indices(p, 1)
        keep = np.random.default_rng(0).random(len(i)) < 0.4
        seps = SepsetMap(p)
        seps.set_many(np.column_stack([i[keep], j[keep]]), np.empty((keep.sum(), 0), int))
        assert len(seps) > 190_000
        tracemalloc.start()
        try:
            digest = result_digest({"sepsets.json": seps})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 20 << 20, peak
        text = "".join(seps.json_chunks()).encode()
        assert digest == hashlib.sha256(b"sepsets.json\0" + text).hexdigest()

    def test_generator_spec(self, tmp_path):
        # A zero density is a given value, not an absent one.
        for density in ("0.15", "0"):
            out = tmp_path / f"bench{density}"
            code = run(["bench", "--output", str(out), "--gen-p", "12",
                        "--gen-density", density, "--gen-n", "200", "--seed", "4"])
            assert code == EXIT_OK, density
            assert (out / "bench_data.csv").exists()

    def test_generator_zero_n_is_range_error(self, tmp_path, capsys):
        code = run(["bench", "--output", str(tmp_path), "--gen-p", "12",
                    "--gen-density", "0.15", "--gen-n", "0"])
        assert code == EXIT_INPUT
        assert "--n must be at least 1" in capsys.readouterr().err

    def test_mismatch_exit_code(self, tmp_path, monkeypatch):
        import stablepc.cli as cli_mod
        path, _ = chain_csv(tmp_path, n=100)
        calls = iter(range(100))
        monkeypatch.setattr(
            cli_mod, "_run_bench_algo",
            lambda cfg, algo, inputs, workers, mem: (1.0, 1, f"digest{next(calls)}"))
        cfg = RunConfig(command="bench", input=path, output=tmp_path / "out")
        assert cmd_bench(cfg) == EXIT_MISMATCH


@pytest.mark.parametrize("argv", [
    ["pc", "--max-level", "-1"],
    ["pcsimple", "--target", "99"],
    ["bench", "--algos", "pcsimple", "--target", "99"],
    ["ida", "--cause", "99", "--outcome", "0"],
    ["ida", "--cause", "1", "--outcome", "1"],
    ["gen", "--p", "8", "--density", "0.3", "--n", "0"],
    ["gen", "--p", "8", "--density", "0.3", "--n", "50", "--seed", "-1"],
    ["bench", "--algos", ","],
], ids=["max-level", "pcsimple-target", "bench-target", "ida-cause",
        "ida-same-pair", "gen-n", "gen-seed", "bench-empty-algos"])
def test_bad_flag_value_exits_two(tmp_path, capsys, argv):
    if argv[0] != "gen":
        run(["gen", "--output", str(tmp_path / "data"), "--p", "8",
             "--density", "0.3", "--n", "50", "--seed", "1"])
        argv = argv + ["--input", str(tmp_path / "data" / "data.csv")]
    capsys.readouterr()
    assert run(argv + ["--output", str(tmp_path / "out")]) == EXIT_INPUT
    assert "input error" in capsys.readouterr().err


class TestRunConfig:
    def test_validation(self):
        with pytest.raises(CliInputError):
            RunConfig(command="pc", alpha=2.0)
        with pytest.raises(CliInputError):
            RunConfig(command="pc", num_workers=0)
        with pytest.raises(CliInputError):
            RunConfig(command="bench", algos=("nope",))

    def test_given_mem_budget_turns_batching_on(self):
        scfg = RunConfig(command="pc", mem_budget=1, num_workers=1).skeleton_config()
        assert peak_in_flight(scfg, 1000, per_task_cost=8) == 1

    def test_mem_efficient_alone_uses_default_budget(self):
        cfg = RunConfig(command="pc", mem_efficient=True, num_workers=1)
        scfg = cfg.skeleton_config()
        assert scfg.mem_budget_bytes == DEFAULT_MEM_BUDGET_BYTES
        assert peak_in_flight(scfg, 50, DEFAULT_MEM_BUDGET_BYTES // 10) == 10

    def test_batching_off_drops_the_budget(self):
        # bench's unbatched variants run one batch per level whatever the flags
        cfg = RunConfig(command="bench", mem_budget=4096)
        assert cfg.skeleton_config().mem_budget_bytes == 4096
        assert cfg.skeleton_config(mem_efficient=False).mem_budget_bytes is None

    def test_digest_is_order_insensitive_for_dicts(self):
        a = result_digest({"x": 1, "y": [1, 2]})
        b = result_digest({"y": [1, 2], "x": 1})
        assert a == b
