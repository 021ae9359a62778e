"""Tests for the ``capi`` CLI."""

import pytest

from repro.core.cli import main
from repro.core.ic import InstrumentationConfig


@pytest.fixture
def cg_file(tmp_path):
    path = tmp_path / "lulesh.mcg.json"
    assert main(["cg", "--app", "lulesh", "--nodes", "500", "-o", str(path)]) == 0
    return path


class TestCli:
    def test_cg_command_writes_json(self, cg_file):
        assert cg_file.exists()
        from repro.cg.io import load

        graph = load(cg_file)
        assert "main" in graph

    def test_select_bundled_spec(self, cg_file, tmp_path):
        out = tmp_path / "ic.filter"
        js = tmp_path / "ic.json"
        rc = main(
            [
                "select",
                "--cg", str(cg_file),
                "--spec", "kernels",
                "-o", str(out),
                "--json", str(js),
            ]
        )
        assert rc == 0
        ic = InstrumentationConfig.load_filter(out)
        assert len(ic) > 0
        ic2 = InstrumentationConfig.load_json(js)
        assert ic2.functions == ic.functions

    def test_select_custom_spec_file(self, cg_file, tmp_path):
        spec = tmp_path / "mine.capi"
        spec.write_text('byName("main", %%)\n')
        out = tmp_path / "ic.filter"
        assert main(["select", "--cg", str(cg_file), "--spec", str(spec), "-o", str(out)]) == 0
        ic = InstrumentationConfig.load_filter(out)
        assert ic.functions == frozenset({"main"})

    def test_specs_command(self, capsys):
        assert main(["specs"]) == 0
        out = capsys.readouterr().out
        assert "mpi" in out and "coarse" in out

    def test_error_reported_as_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.capi"
        bad.write_text("syntax error here !!!")
        cg = tmp_path / "missing.json"
        cg.write_text('{"_MetaCG": {"version": "x"}, "_CG": {}}')
        rc = main(["select", "--cg", str(cg), "--spec", str(bad), "-o", str(tmp_path / "o")])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_missing_cg_file_is_a_typed_error(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        rc = main(["select", "--cg", str(missing), "--spec", "mpi", "-o", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("capi: error: cannot read call graph")
        assert "missing.json" in err

    def test_missing_spec_file_is_a_typed_error(self, cg_file, tmp_path, capsys):
        missing = tmp_path / "missing.capi"
        rc = main(["select", "--cg", str(cg_file), "--spec", str(missing), "-o", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("capi: error: cannot read spec file")
        assert "missing.capi" in err

    @pytest.mark.parametrize(
        "payload",
        [
            "{not json",
            '{"_MetaCG": {}, "_CG": {"main": {"meta": {"numFlops": "lots"}}}}',
        ],
    )
    def test_garbled_cg_file_is_a_typed_error(self, tmp_path, capsys, payload):
        cg = tmp_path / "garbled.json"
        cg.write_text(payload)
        rc = main(["select", "--cg", str(cg), "--spec", "mpi", "-o", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("capi: error: ")
        assert "Traceback" not in err
