"""ci/checks.sh and the CI workflow name the same steps in the same order; a bad step runs none."""

import re
import shutil
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "ci" / "checks.sh"


def script_steps():
    """The step names on the `case` line that checks each argument, in its order."""
    (names,) = re.findall(r"^\s*(\w+(?: \| \w+)+)\) ;;$", SCRIPT.read_text(), flags=re.MULTILINE)
    return names.split(" | ")


def test_workflow_runs_each_step_of_the_script_in_order():
    # read as text: CI installs no YAML parser
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    runs = re.findall(r"^\s+run: (.*)$", workflow, flags=re.MULTILINE)
    assert runs[0].startswith("python -m pip install ")
    assert runs[1:] == [f"bash ci/checks.sh {step}" for step in script_steps()]


def test_bad_step_exits_one_with_the_usage_line(tmp_path):
    # a copy, so the check sees whether this run made runs/
    (tmp_path / "ci").mkdir()
    shutil.copy(SCRIPT, tmp_path / "ci" / "checks.sh")
    usage = f"usage: ci/checks.sh {'|'.join(script_steps())}...\n"
    # every name is checked before any step runs
    for argv in ([], ["bogus"], ["cli", "bogus"]):
        result = subprocess.run(
            ["bash", str(tmp_path / "ci" / "checks.sh"), *argv],
            capture_output=True, text=True, timeout=60,
        )
        assert (result.returncode, result.stdout, result.stderr) == (1, "", usage), argv
        assert not (tmp_path / "runs").exists()
