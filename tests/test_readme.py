"""The README's documented library API and scenario file run as written."""

import json
import re
from pathlib import Path

from regmarket.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library quick start") :]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, f"{README.name}: Library quick start", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 + 3  # one clearing and its check, then one line per u
    assert lines[1].startswith("ViabilityCheck(holds=True,")


def test_full_scenario_swept_past_every_price_nets_exactly_zero(tmp_path):
    # At u = 1e300 the market buys nothing: the buyer row reports the
    # baseline's loss as its own and a net gain of exactly 0.0.
    text = README.read_text(encoding="utf-8")
    scenario = json.loads(re.search(r"A full scenario file:\n\n```json\n(.*?)```", text, re.DOTALL).group(1))
    scenario["sweeps"]["u_grid"] = [0.0, 1e300]
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(scenario), encoding="utf-8")
    assert main(["sweep-u", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    buyer = (tmp_path / "out" / "u_sweep.csv").read_text(encoding="utf-8").splitlines()[-1].split(",")
    assert buyer[:3] == ["u", "1e+300", "P1"]
    assert buyer[6] == "0.0" and buyer[7] == buyer[8] and buyer[9] == "0.0"
