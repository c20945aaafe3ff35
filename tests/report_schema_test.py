#!/usr/bin/env python3
"""ctest: docs/report_schema.json rejects keys it does not name.

Every object in the report schema with a fixed key set declares
"additionalProperties": false, so a report carrying a stale or
misspelt section fails scripts/validate_report.py instead of
conforming. This suite writes a real report with a tiny traced fig09
run, checks that it (and a merged document built from it) conforms,
then injects one unknown key at each fixed-key level and checks that
every such copy is rejected. The counters maps stay open and are not
probed.

Usage (ctest passes the bench binary):

    python3 tests/report_schema_test.py build/bench/fig09_speedup_energy -v
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCHEMA = os.path.join(REPO_ROOT, "docs", "report_schema.json")
VALIDATOR = os.path.join(REPO_ROOT, "scripts", "validate_report.py")
FIG09 = None  # set from argv in __main__

# Fixed-key objects of one bench report: name -> path to the object.
REPORT_SITES = {
    "report": lambda r: r,
    "metadata": lambda r: r["metadata"],
    "network": lambda r: r["networks"][0],
    "network_stats": lambda r: r["networks"][0]["stats"],
    "layer": lambda r: r["networks"][0]["stats"]["layers"][0],
    "phase": lambda r: r["networks"][0]["stats"]["layers"][0]["phases"][0],
    "stall_table": lambda r: r["stall_attribution"][0],
    "stall_row": lambda r: r["stall_attribution"][0]["total"],
    "histogram": lambda r: r["histograms"][0],
    "table": lambda r: r["tables"][0],
    "profile": lambda r: r["profile"],
    "profile stage": lambda r: r["profile"]["stages"][0],
}

# Fixed-key objects of a merged document (scripts/bench_all.sh).
MERGED_SITES = {
    "merged root": lambda d: d,
    "summary": lambda d: d["summary"],
}


def merged(report):
    """A merged document in bench_all.sh's shape around @p report."""
    return {
        "schema_version": 1,
        "generator": "antsim",
        "suite": "report_schema_test",
        "smoke": True,
        "summary": {
            "speedup_geomean": 1.0,
            "energy_reduction_geomean": 1.0,
            "rcp_avoided_mean": 0.5,
            "stage_seconds": {"trace_generation": 0.0,
                              "plan_construction": 0.0,
                              "pe_simulation": 0.0,
                              "reduction": 0.0},
        },
        "runs": {name: copy.deepcopy(report) for name in (
            "fig09_speedup_energy", "table5_rcp_avoided", "abl_threads")},
    }


class StrictSchemaTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory()
        report_path = os.path.join(cls.tmp.name, "report.json")
        subprocess.run(
            [FIG09, "--networks", "ResNet18", "--samples", "1",
             "--threads", "2", "--json", report_path,
             "--trace-out", os.path.join(cls.tmp.name, "trace.json")],
            check=True, capture_output=True)
        with open(report_path, "r", encoding="utf-8") as handle:
            cls.report = json.load(handle)

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def validate(self, document):
        """validate_report.py's exit code and output on @p document."""
        path = os.path.join(self.tmp.name, "doc.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        proc = subprocess.run(
            [sys.executable, VALIDATOR, SCHEMA, path],
            capture_output=True, text=True)
        return proc.returncode, proc.stdout

    def expect_rejected(self, document, sites):
        for name, site in sites.items():
            with self.subTest(site=name):
                injected = copy.deepcopy(document)
                site(injected)["host_metrics"] = {"counters": {}}
                code, out = self.validate(injected)
                self.assertEqual(code, 1, out)
                self.assertIn("unexpected key 'host_metrics'", out)

    def test_report_conforms(self):
        code, out = self.validate(self.report)
        self.assertEqual(code, 0, out)

    def test_unknown_report_key_rejected(self):
        self.expect_rejected(self.report, REPORT_SITES)

    def test_merged_document_conforms(self):
        code, out = self.validate(merged(self.report))
        self.assertEqual(code, 0, out)

    def test_unknown_merged_key_rejected(self):
        self.expect_rejected(merged(self.report), MERGED_SITES)

    def test_counter_maps_stay_open(self):
        document = copy.deepcopy(self.report)
        document["networks"][0]["stats"]["total"]["new_counter"] = 1
        code, out = self.validate(document)
        self.assertEqual(code, 0, out)


if __name__ == "__main__":
    if len(sys.argv) < 2 or sys.argv[1].startswith("-"):
        sys.exit("usage: report_schema_test.py FIG09_BINARY [unittest args]")
    FIG09 = sys.argv.pop(1)
    unittest.main()
