"""README.md's examples run: its python blocks, in order, in one namespace,
and the bandchol estimate and bandwidth lines of its sh blocks."""

import pathlib
import re
import shlex

import numpy as np

from bandchol import cli

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.M | re.S)
    assert blocks
    namespace = {}
    for i, block in enumerate(blocks, start=1):
        exec(compile(block, f"README.md python block {i}", "exec"), namespace)


def test_readme_cli_lines_run(tmp_path, monkeypatch):
    # each line runs through cli.main in a fresh directory holding a seeded
    # data.csv, wide enough (p = 12) for --kmax 10, and long enough (n = 60)
    # for a resampling split to fit it. The simulate line is left out: its
    # bundled config is the full 100-replication experiment, which
    # test_cli.py::test_bundled_reference_config already runs.
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), flags=re.M | re.S)
    lines = [shlex.split(line) for block in blocks for line in block.splitlines()
             if line.startswith(("bandchol estimate ", "bandchol bandwidth "))]
    assert len(lines) >= 3
    monkeypatch.chdir(tmp_path)
    np.savetxt("data.csv", np.random.default_rng(0).standard_normal((60, 12)),
               delimiter=",", fmt="%.17g")
    for argv in lines:
        output = argv[argv.index("-o") + 1]
        written = [pathlib.Path(output), pathlib.Path(cli.default_sidecar(output))]
        for path in written:
            path.unlink(missing_ok=True)
        assert cli.main(argv[1:]) == 0, argv
        assert all(path.exists() for path in written)
