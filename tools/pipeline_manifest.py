"""Rebuild the fixed artifact pipeline and print the sha256 digest of its files.

    python3 tools/pipeline_manifest.py

Run from anywhere in a source checkout: the program is imported from the
checkout's ``src/`` directory. Every stage is driven in-process through
``ders.cli.main`` in a temporary directory that is removed at the end.

Two manifests are built. ``pipeline`` is the 36-file run recorded in
``BENCH_6.json``: vanilla, ders-sm and ders-lm arms on the base config, the
vanilla arm compressed (sparse, then 4-bit), evaluated, counted, analyzed and
swept, and a ``pu`` arm with a parallel universal FFN compressed with
``--extended``. ``extra_arms`` is the 15-file run recorded in ``BENCH_8.json``:
ders-sm and ders-lm upcycled with ``--extended``, and ders-lm with
``--freeze-shared``, each trained and evaluated.

After each stage, every file of its arm's directory whose bytes are new is
hashed under the key ``<arm>/<running index>:<stage args>:<file>``. A digest
is the sha256 of the manifest as ``json.dumps(manifest, sort_keys=True,
separators=(",", ":"))``. After the two digest lines, each file's sha256 is
printed with its manifest's label and key, so two runs can be compared file
by file. The recorded digests are ``bb133b62…`` and ``5ad9d392…``; they were
taken on x86-64, and another libm may give other bytes.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from ders import cli  # noqa: E402

BASE = {
    "seed": 7,
    "model": {"d": 32, "d_h": 64, "depth": 2, "activation": "gelu"},
    "task": {
        "kind": "cluster_regression",
        "seed": 3,
        "params": {"d": 8, "n_clusters": 4, "out_width": 4},
    },
    "pretrain": {"steps": 120, "lr": 0.01},
    "upcycle": {"n_experts": 4, "topk_count": 2, "method": "vanilla"},
    "train": {"steps": 60, "lr": 0.003},
    "compress": {},
    "sweep": {"drop_rates": [0.5, 0.9], "bit_widths": [1, 4, 8], "ranks": [2]},
}
PU = copy.deepcopy(BASE)
PU["upcycle"]["parallel_universal"] = True


def _keep_sparse(arm_dir: str) -> None:
    """Keep the sparse compression before the 4-bit one overwrites it."""
    for src, dst in (
        ("compressed.ckpt", "sparse.ckpt"),
        ("compression_report.json", "sparse_report.json"),
    ):
        shutil.copyfile(os.path.join(arm_dir, src), os.path.join(arm_dir, dst))


def _arm(name: str, upcycle_args: str, config=BASE) -> list:
    return [(name, config, a) for a in ("pretrain-dense", upcycle_args, "train")]


# (arm, config, stage args); a callable step runs on the arm's directory and is
# not itself hashed. ``OUT`` in stage args stands for the output root.
PIPELINE = [
    *_arm("vanilla", "upcycle --method vanilla"),
    *_arm("ders_sm", "upcycle --method ders-sm"),
    *_arm("ders_lm", "upcycle --method ders-lm"),
    ("vanilla", BASE, "compress --drop-rate 0.9"),
    ("vanilla", BASE, _keep_sparse),
    ("vanilla", BASE, "compress --bit-width 4"),
    ("vanilla", BASE, "eval"),
    ("vanilla", BASE, "report-params --format json"),
    ("vanilla", BASE, "report-params --format csv"),
    ("vanilla", BASE, "analyze-similarity --format csv"),
    ("vanilla", BASE, "analyze-similarity --format json"),
    ("vanilla", BASE, "sweep"),
    ("vanilla", BASE, "eval --ckpt OUT/vanilla/sparse.ckpt"),
    ("vanilla", BASE, "report-params --ckpt OUT/vanilla/sparse.ckpt"),
    ("vanilla", BASE, "eval --ckpt OUT/vanilla/trained.ckpt"),
    ("vanilla", BASE, "report-params --ckpt OUT/vanilla/trained.ckpt"),
    *_arm("pu", "upcycle", PU),
    ("pu", PU, "compress --extended --drop-rate 0.9"),
    ("pu", PU, "eval"),
    ("pu", PU, "report-params"),
]

EXTRA_ARMS = [
    *_arm("sm_ext", "upcycle --method ders-sm --extended"),
    ("sm_ext", BASE, "eval"),
    *_arm("lm_ext", "upcycle --method ders-lm --extended"),
    ("lm_ext", BASE, "eval"),
    *_arm("lm_frozen", "upcycle --method ders-lm --freeze-shared"),
    ("lm_frozen", BASE, "eval"),
]


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run(steps: list, out: str) -> dict[str, str]:
    """Run ``steps`` under ``out``; the manifest of every new file's sha256."""
    configs: dict[int, str] = {}
    seen: dict[str, str] = {}
    manifest: dict[str, str] = {}
    for arm, config, stage in steps:
        arm_dir = os.path.join(out, arm)
        os.makedirs(arm_dir, exist_ok=True)
        if callable(stage):
            stage(arm_dir)
            continue
        if id(config) not in configs:
            configs[id(config)] = os.path.join(out, f"config{len(configs)}.json")
            with open(configs[id(config)], "w", encoding="utf-8") as fh:
                json.dump(config, fh)
        argv = stage.replace("OUT", out).split()
        argv += ["--config", configs[id(config)], "--out", arm_dir]
        code = cli.main(argv)
        if code != 0:
            sys.exit(f"pipeline_manifest: '{stage}' in {arm} exited {code}")
        for name in sorted(os.listdir(arm_dir)):
            path = os.path.join(arm_dir, name)
            sha = _sha256(path)
            if seen.get(path) != sha:
                seen[path] = sha
                manifest[f"{arm}/{len(manifest):02d}:{stage}:{name}"] = sha
    return manifest


def digest(manifest: dict[str, str]) -> str:
    text = json.dumps(manifest, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def main() -> int:
    manifests = {}
    for label, steps in (("pipeline", PIPELINE), ("extra_arms", EXTRA_ARMS)):
        with tempfile.TemporaryDirectory(prefix="ders-manifest-") as out:
            manifests[label] = run(steps, out)
        print(f"{label}: {digest(manifests[label])} ({len(manifests[label])} files)")
    for label, manifest in manifests.items():
        for key, sha in manifest.items():
            print(f"{sha}  {label} {key}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
