"""Smoke tests: every example script and doc snippet runs and prints its story."""

import importlib.util
import pathlib
import re
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
EXAMPLES_DIR = REPO_ROOT / "examples"
#: Documents whose ``python`` code blocks must run as written.
SNIPPET_DOCS = ("README.md", "docs/architecture.md")
_PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```", re.DOTALL | re.MULTILINE)


def python_blocks(doc: str) -> list[str]:
    return _PYTHON_BLOCK.findall((REPO_ROOT / doc).read_text(encoding="utf-8"))


SNIPPETS = [
    pytest.param(code, id=f"{doc}-{index}")
    for doc in SNIPPET_DOCS
    for index, code in enumerate(python_blocks(doc))
]


def load_example(name: str):
    spec = importlib.util.spec_from_file_location(name, EXAMPLES_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


class TestExamples:
    def test_quickstart(self, capsys):
        load_example("quickstart").main()
        out = capsys.readouterr().out
        assert "reception status : accepted" in out
        assert "reconstructed timestamps" in out

    def test_frame_delay_attack(self, capsys):
        load_example("frame_delay_attack").main()
        out = capsys.readouterr().out
        assert "silent_drop" in out
        assert "spoofed by +120.0 s" in out
        assert "replay_detected" in out

    def test_sync_vs_syncfree(self, capsys):
        load_example("sync_vs_syncfree").main()
        out = capsys.readouterr().out
        assert "18-bit elapsed time" in out
        assert "simulated accuracy" in out

    def test_fleet_monitoring(self, capsys):
        load_example("fleet_monitoring").main()
        out = capsys.readouterr().out
        assert "learned FB profiles" in out
        assert "0 missed" in out
        assert "false alarms    : 0" in out

    def test_fleet_runtime(self, capsys):
        load_example("fleet_runtime").main()
        out = capsys.readouterr().out
        assert "offered load" in out
        assert "goodput" in out
        assert "collision rate" in out
        assert "replay-detection TPR : 1.00" in out

    def test_multi_gateway(self, capsys):
        load_example("multi_gateway").main()
        out = capsys.readouterr().out
        assert "4 gateways -> network server" in out
        assert "dedup rate 4.00 copies/uplink" in out
        assert "24 detected, 0 missed" in out
        assert "false alarms    : 0" in out

    @pytest.mark.slow
    def test_network_daemon(self, capsys):
        load_example("network_daemon").main()
        out = capsys.readouterr().out
        assert "daemon up" in out
        assert "/healthz         : ok" in out
        assert "attack_detected events streamed" in out
        assert "bit-identical to in-process: True" in out
        assert "daemon stopped cleanly" in out

    @pytest.mark.slow
    def test_adr_fleet(self, capsys):
        load_example("adr_fleet").main()
        out = capsys.readouterr().out
        assert "all SF12" in out
        assert "SF7:120" in out
        assert "LinkADRReq total" in out
        assert "TPR 1.00" in out

    @pytest.mark.slow
    def test_campus_link(self, capsys):
        load_example("campus_link").main()
        out = capsys.readouterr().out
        assert "3.57" in out

    @pytest.mark.slow
    def test_building_survey(self, capsys):
        load_example("building_survey").main()
        out = capsys.readouterr().out
        assert "SNR survey" in out
        assert "worst timing error" in out


class TestDocSnippets:
    @pytest.mark.parametrize("doc", SNIPPET_DOCS)
    def test_doc_has_python_blocks(self, doc):
        assert python_blocks(doc), f"no python blocks found in {doc}"

    @pytest.mark.parametrize("code", SNIPPETS)
    def test_python_block_runs(self, code, capsys):
        exec(compile(code, "<doc snippet>", "exec"), {"__name__": "__doc_snippet__"})
        assert capsys.readouterr().out.strip(), "snippet printed nothing"
