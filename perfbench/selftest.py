"""Self-test of the benchmark at tiny scale; run from the repository root:

    python3 perfbench/selftest.py

It checks that every metric named in BENCHMARK.json is emitted with its unit,
that two runs with the same seed give identical deterministic values (quality
metrics, index size and every per-layer count or ratio of counts), that a
wrapped name the program no longer defines is reported as missing rather than
as zero, and that the runner fails without a result line when the package is
absent. Exits 0 when all checks pass.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
RUNNER = HERE / "run.py"
DETERMINISTIC_E2E = ("index_bytes_per_doc", "ndcg_10", "map", "lp_hits10_filtered")
TIMING_RATIOS = ("trace.overhead_share",)


def _run(workload: str, trace: int, cwd: Path = ROOT) -> tuple[int, dict | None, str]:
    proc = subprocess.run(
        [sys.executable, str(RUNNER), "--workload", workload, "--seed", "7", "--seconds", "0.1",
         "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, result, proc.stderr


def _expect(ok: bool, what: str, failures: list[str]) -> None:
    if not ok:
        failures.append(what)


def _check_metrics(result: dict, declared: list[dict], label: str, failures: list[str]) -> None:
    _expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys", failures)
    _expect(result["correct"] is True, f"{label}: output checks failed", failures)
    _expect(result["attempted"] >= 1 and result["failed"] == 0, f"{label}: attempted/failed", failures)
    names = {m["name"]: m["unit"] for m in declared}
    _expect(set(result["metrics"]) == set(names), f"{label}: metric names differ from BENCHMARK.json", failures)
    for name, unit in names.items():
        got = result["metrics"].get(name, {})
        _expect(got.get("unit") == unit, f"{label}: {name} unit {got.get('unit')!r} != {unit!r}", failures)
        _expect(isinstance(got.get("value"), (int, float)), f"{label}: {name} has no numeric value", failures)


def _deterministic(result: dict, trace: int) -> dict:
    metrics = result["metrics"]
    if not trace:
        return {name: metrics[name]["value"] for name in DETERMINISTIC_E2E}
    return {
        name: m["value"]
        for name, m in metrics.items()
        if m["unit"] in ("count", "ratio", "loss") and name not in TIMING_RATIOS
    }


def _check_missing_binding(failures: list[str]) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import run
    import tracer

    modules = run._import_casegraph()
    engine = types.ModuleType("engine_without_tokenize")
    engine.__dict__.update({k: v for k, v in vars(modules["engine"]).items() if k != "tokenize"})
    t = tracer.Tracer(dict(modules, engine=engine))
    t.install()
    t.uninstall()
    metrics = run._layer_metrics(t, 1.0, 1.0)
    _expect("engine.tokenize" in t.missing, "tracer: a removed binding is not listed as missing", failures)
    _expect(
        metrics["linking.tokenize.s"].get("missing") is True and metrics["linking.tokenize.s"]["value"] is None,
        "tracer: a removed binding is reported as a number instead of missing",
        failures,
    )
    _expect(metrics["linking.link.s"]["value"] is not None, "tracer: an intact binding is reported missing", failures)
    _expect(getattr(modules["engine"], "link") is getattr(modules["linking"], "link"), "tracer: patches left installed", failures)


def _check_stripped(failures: list[str]) -> None:
    stripped = ROOT / ".perfbench_out" / "stripped"
    shutil.rmtree(stripped, ignore_errors=True)
    stripped.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", stripped / "BENCHMARK.json")
        shutil.copytree(HERE, stripped / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "query", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=stripped, capture_output=True, text=True, timeout=180,
        )
        _expect(proc.returncode != 0, "stripped checkout: runner exited 0", failures)
        _expect('"metrics"' not in proc.stdout, "stripped checkout: runner printed a result", failures)
    finally:
        shutil.rmtree(stripped, ignore_errors=True)


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures: list[str] = []
    for workload in [w["name"] for w in declared["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{workload} trace={trace}"
            first, second = _run(workload, trace), _run(workload, trace)
            for code, result, stderr in (first, second):
                _expect(code == 0 and result is not None, f"{label}: exit {code}: {stderr[-300:]}", failures)
            if first[1] is None or second[1] is None:
                continue
            _check_metrics(first[1], declared[key], label, failures)
            a, b = _deterministic(first[1], trace), _deterministic(second[1], trace)
            for name in a:
                _expect(a[name] == b.get(name), f"{label}: {name} differs between same-seed runs ({a[name]} vs {b.get(name)})", failures)
            print(f"{label}: {len(first[1]['metrics'])} metrics, {len(a)} deterministic values compared")
    _check_missing_binding(failures)
    _check_stripped(failures)
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
