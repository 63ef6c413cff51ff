import json

import pytest

from mapenergy import constructions
from mapenergy.cli import main
from mapenergy.manifolds import complex_projective
from mapenergy.maps import MapObject
from mapenergy.rand import make_rng
from mapenergy.report import EXPERIMENTS


def test_corpus_list_names_the_catalog(capsys):
    assert main(["corpus", "list"]) == 0
    out = capsys.readouterr().out
    for key in ("identity", "double_cover", "conic", "croke", "pu", "flow"):
        assert key in out


# keyword arguments of each curve builder and the N of CP^N it maps into
_CURVE_ARGS = {"line": ({"N": 3}, 3), "conic": ({}, 2), "veronese": ({}, 2),
               "random": ({"N": 4, "degree": 3, "seed": 2}, 4)}


def test_corpus_list_curves_are_the_curve_builders(capsys):
    assert main(["corpus", "list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    start = lines.index("curves:") + 1
    stop = next(i for i in range(start, len(lines)) if not lines[i].startswith("  "))
    listed = [line.strip() for line in lines[start:stop]]
    builders = {name[: -len("_curve")] for name, obj in vars(constructions).items()
                if name.endswith("_curve") and callable(obj) and name != "make_rational_curve"}
    assert sorted(listed) == sorted(builders) == sorted(_CURVE_ARGS)
    z = complex_projective(1).random_point(make_rng(0), 8)
    for name in listed:
        kwargs, N = _CURVE_ARGS[name]
        F = getattr(constructions, f"{name}_curve")(**kwargs)
        assert isinstance(F, MapObject)
        assert [(M.kind, M.N) for M in (F.domain, F.codomain)] == \
            [("complex_projective", 1), ("complex_projective", N)]
        # one coefficient row per homogeneous coordinate of CP^N
        assert F(z).shape == (8, N + 1)


def test_verify_writes_report_and_twin(tmp_path, capsys):
    out_path = tmp_path / "croke.json"
    code = main(["verify", "croke", "--resolution", "200", "--seed", "3",
                 "--out", str(out_path)])
    assert code == 0
    printed = capsys.readouterr().out
    assert "croke: pass" in printed
    payload = json.loads(out_path.read_text())
    assert payload[0]["name"] == "croke"
    assert payload[0]["passed"] is True
    assert payload[0]["inputs"]["seed"] == 3
    assert (tmp_path / "croke.csv").exists()


@pytest.mark.parametrize("name", ["r.csv", "r", "r.json.txt"])
def test_verify_out_must_end_in_json(tmp_path, capsys, name):
    with pytest.raises(SystemExit) as info:
        main(["verify", "croke", "--resolution", "50", "--out", str(tmp_path / name)])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert ".json" in captured.err
    assert "croke" not in captured.out
    assert list(tmp_path.iterdir()) == []


def test_verify_unknown_experiment_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", "does-not-exist"])
    assert info.value.code == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_verify_negative_seed_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", "croke", "--seed", "-1"])
    assert info.value.code == 2
    assert "seed must be an integer >= 0" in capsys.readouterr().err


def test_verify_all_with_p_is_a_usage_error_before_anything_runs(monkeypatch, capsys):
    ran = []

    def spy(seed, nodes, p=None):
        ran.append(p)
        return {}, 0.0

    # bounds-identity reads p and sorts first, so it would run before the
    # first experiment that rejects p
    monkeypatch.setitem(EXPERIMENTS, "bounds-identity",
                        EXPERIMENTS["bounds-identity"]._replace(run=spy))
    with pytest.raises(SystemExit) as info:
        main(["verify", "all", "--p", "3"])
    assert info.value.code == 2
    assert "does not read p" in capsys.readouterr().err
    assert ran == []


def test_verify_failure_sets_the_exit_status(capsys):
    # p outside the bound's validity range fails inside the experiment
    code = main(["verify", "bounds-identity", "--resolution", "300",
                 "--p", "0.5"])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_config_file_feeds_parameters_and_flags_override(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"croke": {"resolution": 150, "seed": 9}}))
    out_path = tmp_path / "report.json"
    code = main(["verify", "croke", "--config", str(config),
                 "--seed", "4", "--out", str(out_path)])
    assert code == 0
    capsys.readouterr()
    record = json.loads(out_path.read_text())[0]
    assert record["inputs"]["pairs"] == 150
    assert record["inputs"]["seed"] == 4


@pytest.mark.parametrize("table, message", [
    ({"crok": {"seed": 5}}, "unknown experiment 'crok'"),
    ({"croke": {"seed": 5}, "all": {}}, "unknown experiment 'all'"),
    ({"croke": [1, 2]}, "must be a JSON object"),
    ({"croke": None}, "must be a JSON object"),
    ({"theta": 3}, "must be a JSON object"),
    ({"croke": {"name": "theta"}}, "may not set 'name'"),
])
def test_config_names_experiments_and_maps_them_to_objects(monkeypatch, tmp_path, capsys,
                                                           table, message):
    ran = []
    monkeypatch.setattr("mapenergy.cli.run_suite", lambda configs: ran.append(configs))
    config = tmp_path / "config.json"
    config.write_text(json.dumps(table))
    with pytest.raises(SystemExit) as info:
        main(["verify", "croke", "--config", str(config)])
    assert info.value.code == 2
    assert message in capsys.readouterr().err
    assert ran == []


def test_flow_subcommand_writes_a_log(tmp_path, capsys):
    log = tmp_path / "log.csv"
    code = main(["flow", "--mesh-level", "2", "--steps", "60",
                 "--out", str(log)])
    assert code == 0
    lines = log.read_text().strip().splitlines()
    assert lines[0] == "iteration,energy,grad_norm,step"
    assert len(lines) >= 2
    assert "conformality defect" in capsys.readouterr().out

    refused = tmp_path / "refused.csv"
    for flag, value in (("--mesh-level", "-1"), ("--steps", "-5"), ("--steps", "0"),
                        ("--seed", "-1")):
        argv = {"--mesh-level": "1", "--steps": "3", "--seed": "0", flag: value}
        with pytest.raises(SystemExit) as info:
            main(["flow", *(item for pair in argv.items() for item in pair), "--out", str(refused)])
        assert info.value.code == 2
        assert flag in capsys.readouterr().err
        assert not refused.exists()
