"""The CI workflow's shell steps parse, checked without running CI."""

import subprocess
from pathlib import Path

import yaml

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tier1.yml"


def test_every_run_script_parses():
    jobs = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))["jobs"]
    steps = [(job, step) for job, spec in jobs.items() for step in spec["steps"]
             if "run" in step]
    assert steps
    bad = []
    for job, step in steps:
        out = subprocess.run(["bash", "-n"], input=step["run"], capture_output=True,
                             text=True, timeout=30)
        if out.returncode != 0:
            bad.append(f"{job} / {step.get('name', '')}: {out.stderr.strip()}")
    assert bad == []
