"""The sls command line interface (Table 2)."""

import json
import pathlib

import pytest

from repro.core.cli import main
from repro.core.coredump import parse_core
from repro.core.tracing import _validate_main


@pytest.fixture
def image(tmp_path):
    path = str(tmp_path / "aurora.img")
    assert main(["init", path]) == 0
    return path


def test_init_creates_image(tmp_path):
    path = str(tmp_path / "new.img")
    assert main(["init", path]) == 0
    assert pathlib.Path(path).exists()


def test_spawn_and_ps(image, capsys):
    assert main(["spawn", image, "demo", "--memory-kib", "64"]) == 0
    assert main(["ps", image]) == 0
    out = capsys.readouterr().out
    assert "demo" in out or "group1" in out


def test_run_advances_application(image, capsys):
    main(["spawn", image, "demo", "--memory-kib", "64"])
    assert main(["run", image, "1", "--millis", "30"]) == 0
    out = capsys.readouterr().out
    assert "step" in out


def test_checkpoint_and_history(image, capsys):
    main(["spawn", image, "demo"])
    assert main(["checkpoint", image, "1", "--name", "tagged"]) == 0
    assert main(["history", image, "1"]) == 0
    out = capsys.readouterr().out
    assert "tagged" in out


def test_restore_reports_state(image, capsys):
    main(["spawn", image, "demo"])
    assert main(["restore", image, "1"]) == 0
    out = capsys.readouterr().out
    assert "restored group 1" in out
    assert "pages eager" in out


def test_restore_lazy_flag(image, capsys):
    main(["spawn", image, "demo"])
    assert main(["restore", image, "1", "--lazy"]) == 0
    out = capsys.readouterr().out
    assert "0 pages eager" in out


def test_suspend_resume_cycle(image, capsys):
    main(["spawn", image, "demo"])
    assert main(["suspend", image, "1"]) == 0
    assert main(["resume", image, "1"]) == 0
    out = capsys.readouterr().out
    assert "resumed group 1" in out


def test_dump_produces_parseable_elf(image, tmp_path, capsys):
    main(["spawn", image, "demo", "--memory-kib", "64"])
    core_path = str(tmp_path / "core.elf")
    assert main(["dump", image, "1", "-o", core_path]) == 0
    parsed = parse_core(pathlib.Path(core_path).read_bytes())
    assert parsed["segments"]
    assert parsed["notes"]


def test_send_recv_between_images(image, tmp_path, capsys):
    main(["spawn", image, "demo"])
    stream_path = str(tmp_path / "app.stream")
    assert main(["send", image, "1", "-o", stream_path]) == 0

    other = str(tmp_path / "other.img")
    main(["init", other])
    assert main(["recv", other, stream_path]) == 0
    assert main(["restore", other, "1"]) == 0
    out = capsys.readouterr().out
    assert "restored group 1" in out


def test_image_persists_across_invocations(image, capsys):
    """Each CLI call boots a fresh machine; only the image survives —
    like a real disk."""
    main(["spawn", image, "demo"])
    main(["run", image, "1", "--millis", "20"])
    main(["run", image, "1", "--millis", "20"])
    capsys.readouterr()
    main(["history", image, "1"])
    out = capsys.readouterr().out
    # Checkpoints from all three invocations are in the store.
    assert len(out.strip().splitlines()) >= 4


# -- the subcommands CI drives from shell steps ----------------------------------

#: ``(args, exit code, expected output)`` per subcommand, mirroring the
#: CI jobs' invocations at smaller sizes.  ``{image}`` is a freshly
#: spawned 64 KiB app (group 1) and ``{tmp}`` a scratch directory.
CI_COMMANDS = {
    "trace": (["trace", "{image}", "1", "--checkpoints", "5",
               "--chrome", "{tmp}/trace.json"], 0, "ckpt.serialize"),
    "metrics": (["metrics", "{image}", "1", "--checkpoints", "3",
                 "--format", "json", "-o", "{tmp}/metrics.json"], 0,
                "wrote metrics to"),
    "events": (["events", "{image}", "1", "--checkpoints", "3"], 0,
               "checkpoint.commit"),
    "cluster": (["cluster", "{image}", "1", "--checkpoints", "3",
                 "--az-outage", "1", "--repair", "--failover"], 0,
                "durable watermark:"),
    "cluster-stall": (["cluster", "{image}", "1", "--nodes", "2", "--azs",
                       "2", "--checkpoints", "3", "--az-outage", "1"], 1,
                      "quorum stalled:"),
    "nemesis": (["nemesis", "--seed", "7", "--campaign", "majority-away",
                 "--json", "{tmp}/nemesis.json"], 0,
                "1/1 campaign(s) passed at seed 7"),
    "fleet": (["fleet", "{image}", "--tenants", "2", "--millis", "30"], 0,
              "deadline miss(es)"),
    "blackbox": (["blackbox", "{image}"], 0,
                 "last durable commit: group 1"),
    "top": (["top", "{image}", "--tenants", "2", "--millis", "30"], 0,
            "burn-rate alert(s)"),
    "diff": (["diff", "{image}", "1"], 0, "pages:"),
}


@pytest.mark.parametrize("name", sorted(CI_COMMANDS))
def test_ci_subcommand(name, image, tmp_path, capsys):
    args, code, expected = CI_COMMANDS[name]
    assert main(["spawn", image, "smoke", "--memory-kib", "64"]) == 0
    if name == "diff":
        assert main(["checkpoint", image, "1", "--name", "second"]) == 0
    capsys.readouterr()
    argv = [arg.format(image=image, tmp=tmp_path) for arg in args]
    assert main(argv) == code
    assert expected in capsys.readouterr().out
    if name == "trace":
        # CI's schema check: `python -m repro.core.tracing trace.json`.
        assert _validate_main([str(tmp_path / "trace.json")]) == 0
    elif name == "metrics":
        assert json.loads((tmp_path / "metrics.json").read_text())
    elif name == "nemesis":
        doc = json.loads((tmp_path / "nemesis.json").read_text())
        assert [row["passed"] for row in doc["campaigns"]] == [True]
