"""Shared plumbing: checkout paths, host facts, memory, the serving archive."""

from __future__ import annotations

import ctypes
import glob
import hashlib
import json
import os
import pathlib
import platform
import resource
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
WORK = ROOT / ".perfbench-work"


def src_sha256(*roots: pathlib.Path) -> str:
    """Content hash of the program's source tree, or of ``roots`` (stands
    in for the git sha when the checkout is not a git repository)."""
    digest = hashlib.sha256()
    for root in roots or (SRC,):
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def blas_threads() -> int | None:
    """OpenBLAS's effective thread count, read from the loaded library."""
    import numpy as np

    libdir = pathlib.Path(np.__file__).parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(handle, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                func.argtypes = []
                return int(func())
    return None


def host_facts() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "loadavg_at_start": [round(x, 2) for x in os.getloadavg()],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": blas_threads(),
        "git_sha": git_sha(),
        "src_sha256": src_sha256(),
        "thread_env": {k: os.environ[k] for k in sorted(os.environ)
                       if k.endswith("_NUM_THREADS")},
    }


def reset_peak_rss() -> None:
    """Restart the kernel's peak-RSS high-water mark for this process."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    """Peak resident set (MB) of this process since the last reset."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def serving_archive() -> pathlib.Path:
    """The archive serve, serve-int8 and stream load: the ``repro save``
    recipe (cert, scale 0.1, eta 0.3, ``clfd_config()``, seed 0).

    It is built once per checkout and source tree, like a build
    product, and kept under ``.perfbench-work/``; the workloads' seeds
    drive their payloads and events, not the model.
    """
    path = WORK / f"archive-{src_sha256()[:16]}.npz"
    if path.exists():
        return path
    import numpy as np
    from repro import CLFD
    from repro.core import save_clfd
    from repro.data import apply_uniform_noise, make_dataset
    from repro.experiments import ExperimentSettings

    rng = np.random.default_rng(0)
    train, _ = make_dataset("cert", rng, scale=0.1)
    apply_uniform_noise(train, eta=0.3, rng=rng)
    model = CLFD(ExperimentSettings().clfd_config()).fit(
        train, rng=np.random.default_rng(0))
    WORK.mkdir(exist_ok=True)
    tmp = save_clfd(model, WORK / f".archive-{os.getpid()}.npz")
    os.replace(tmp, path)
    return path


def check_repeatable(kind: str, seed: int, digest: str) -> bool:
    """Compare ``digest`` with the one an earlier run of this checkout
    recorded for the same workload, seed and source tree; records it
    when there is none.  Returns False on a mismatch."""
    OUT.mkdir(exist_ok=True)
    path = OUT / "repeatability.json"
    try:
        seen = json.loads(path.read_text())
    except (OSError, ValueError):
        seen = {}
    key = f"{kind}:{seed}:{src_sha256(SRC, ROOT / 'perfbench')[:16]}"
    if key in seen:
        return seen[key] == digest
    seen[key] = digest
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(seen, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return True


def digest(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, default=repr).encode()).hexdigest()


def log(line: str = "") -> None:
    print(line, flush=True)


def fail(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)
    raise SystemExit(code)
