import json
import types

import numpy as np

from qtherm import verify

CHECKS = sorted(name for name in vars(verify) if name.startswith("check_"))


def test_run_all_times_each_check_it_calls(monkeypatch):
    # run_all is the one place a check is timed: each result's seconds is the
    # clock's advance across that check's call alone
    assert len(CHECKS) == 11
    for name in CHECKS:
        monkeypatch.setattr(verify, name, lambda *a, **k: verify.CheckResult(0, "stub", True,
                                                                           "t", "m"))
    clock = [t for k in range(1, 12) for t in (100.0 * k, 100.0 * k + k)]
    monkeypatch.setattr(verify, "time", types.SimpleNamespace(perf_counter=iter(clock).__next__))
    results = verify.run_all(quiet=True)
    assert [r.seconds for r in results] == [float(k) for k in range(1, 12)]


def test_a_check_called_on_its_own_reports_no_time():
    res = verify.check_einstein_rate()
    assert res.index == 5 and res.passed and res.seconds == 0.0


def test_json_report_keeps_its_keys_order_and_values(tmp_path):
    results = [verify.CheckResult(3, "a", np.bool_(True), "tol", "meas", 1.23456, "more"),
               verify.CheckResult(4, "b", False, "tol", "meas")]
    verify.write_reports(results, str(tmp_path))
    data = json.loads((tmp_path / "verify_report.json").read_text())
    assert [list(d) for d in data] == [["index", "name", "passed", "tolerance", "measured",
                                        "seconds", "detail"]] * 2
    assert data[0] == {"index": 3, "name": "a", "passed": True, "tolerance": "tol",
                       "measured": "meas", "seconds": 1.235, "detail": "more"}
    assert data[1]["passed"] is False and data[1]["seconds"] == 0.0
    text = (tmp_path / "verify_report.txt").read_text().splitlines()
    assert text[0].endswith("[1.2s]") and text[1] == "        more"
    assert text[-1] == "1/2 checks passed"
