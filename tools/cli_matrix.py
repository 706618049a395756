"""Run a fixed matrix of CLI commands and print the sha256 of every artifact.

    python tools/cli_matrix.py [--src DIR] [--work-dir DIR]

Each command runs in a fresh interpreter with ``PYTHONPATH`` set to the
package's ``src`` directory (by default the one beside this script) and
``OPENBLAS_NUM_THREADS=1``, since stage-1 training bits depend on the BLAS
thread count. The commands run in a temporary directory, or in
``--work-dir`` when given (it must be empty or absent), on a small
generated graph:

- ``generate``;
- ``pretrain`` with reconstruction rows, then ``--resume`` for more steps;
- ``pretrain --clip-norm 0 --warmup 0``, then ``--resume``, so that a
  checkpoint whose optimizer block holds no clip norm and no warm-up is
  written and read back;
- ``pretrain --tau 0.25 --alpha1 0.5 --alpha2 0.5 --raw-similarity``, then a
  bare ``--resume``, so that a checkpoint whose InfoNCE block holds no
  default is written and read back;
- ``embed`` from the checkpoint and with ``--baseline shallow`` and ``random``;
- a second ``generate`` whose documents run from 3 to 40 tokens, then
  ``pretrain`` with reconstruction rows and ``embed`` on it, so that batches
  mix very different lengths and extraction runs many length buckets;
- ``train`` node classification for mlp, gcn and sage, and link prediction
  for each backbone with both link scorers and ``--log-every-iter``, all at
  the default two layers;
- ``train`` node classification for gcn and sage at one and three layers,
  and sage link prediction at three, so that a first layer that is also the
  last and a middle layer run too;
- ``train`` node classification on the random embeddings with ``--lr`` set and
  ``--patience 1``, so that early stopping ends a fit, and link prediction
  with ``--batch-edges 13``, whose 92 training pairs leave a one-pair batch
  that the trainer skips;
- ``ablate`` with the mlp and gcn backbones;
- a two-node ``generate``, whose val split is empty, then ``embed --baseline
  random`` and sage node classification on it, so that a fit with no
  validation split tracks its train loss and reports nan validation rows.

It then prints one ``sha256  relative-path`` line per file, sorted by path.
Run it on two checkouts and diff the outputs to check that a change keeps
every artifact byte-identical:

    python tools/cli_matrix.py --src ../parent/src > parent.txt
    python tools/cli_matrix.py > change.txt
    diff parent.txt change.txt
"""

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

STAGE1 = ["--batch-size", "8", "--seed", "5"]
RECON = ["--recon-every", "3", "--recon-samples", "2"]
FIT = ["--repeats", "2", "--epochs", "4", "--seed", "5"]
STAGE2 = ["--dataset", "data", "--embeddings", "emb/model.txt", *FIT]
BACKBONES = ("mlp", "gcn", "sage")

MATRIX = [
    ["generate", "--out", "data", "--nodes", "96", "--seed", "3"],
    ["pretrain", "--dataset", "data", "--out-dir", "run", "--steps", "6", *STAGE1, *RECON],
    ["pretrain", "--dataset", "data", "--out-dir", "run", "--steps", "4", *STAGE1, *RECON,
     "--resume", "run/model.npz"],
    ["pretrain", "--dataset", "data", "--out-dir", "noclip", "--steps", "3", *STAGE1,
     "--clip-norm", "0", "--warmup", "0"],
    ["pretrain", "--dataset", "data", "--out-dir", "noclip", "--steps", "2", *STAGE1,
     "--resume", "noclip/model.npz"],
    ["pretrain", "--dataset", "data", "--out-dir", "infonce", "--steps", "3", *STAGE1,
     "--tau", "0.25", "--alpha1", "0.5", "--alpha2", "0.5", "--raw-similarity"],
    ["pretrain", "--dataset", "data", "--out-dir", "infonce", "--steps", "2",
     "--resume", "infonce/model.npz"],
    ["embed", "--dataset", "data", "--checkpoint", "run/model.npz", "--out", "emb/model.txt"],
    ["embed", "--dataset", "data", "--baseline", "shallow", "--out", "emb/shallow.txt"],
    ["embed", "--dataset", "data", "--baseline", "random", "--out", "emb/random.txt"],
    ["generate", "--out", "wide", "--nodes", "48", "--seed", "4", "--doc-min", "3",
     "--doc-max", "40"],
    ["pretrain", "--dataset", "wide", "--out-dir", "wide-run", "--steps", "4", *STAGE1, *RECON],
    ["embed", "--dataset", "wide", "--checkpoint", "wide-run/model.npz", "--out", "emb/wide.txt"],
    *(["train", *STAGE2, "--out-dir", f"nodecls/{backbone}", "--task", "nodecls",
       "--backbone", backbone] for backbone in BACKBONES),
    *(["train", *STAGE2, "--out-dir", f"linkpred/{backbone}-{scorer}", "--task", "linkpred",
       "--backbone", backbone, "--link-scorer", scorer, "--log-every-iter"]
      for backbone in BACKBONES for scorer in ("dot", "mlp")),
    *(["train", *STAGE2, "--out-dir", f"nodecls/{backbone}-{layers}", "--task", "nodecls",
       "--backbone", backbone, "--num-layers", layers]
      for backbone in ("gcn", "sage") for layers in ("1", "3")),
    ["train", *STAGE2, "--out-dir", "linkpred/sage-3", "--task", "linkpred", "--backbone", "sage",
     "--num-layers", "3"],
    ["train", "--dataset", "data", "--embeddings", "emb/random.txt", *FIT,
     "--out-dir", "nodecls/mlp-random", "--task", "nodecls", "--backbone", "mlp",
     "--lr", "0.05", "--patience", "1"],
    ["train", *STAGE2, "--out-dir", "linkpred/mlp-odd", "--task", "linkpred", "--backbone", "mlp",
     "--batch-edges", "13"],
    ["ablate", "--dataset", "data", "--out-dir", "ablate", "--backbones", "mlp,gcn",
     "--repeats", "1", "--steps", "4", "--epochs", "4", *STAGE1],
    ["generate", "--out", "tiny", "--nodes", "2", "--seed", "3"],
    ["embed", "--dataset", "tiny", "--baseline", "random", "--out", "emb/tiny.txt"],
    ["train", "--dataset", "tiny", "--embeddings", "emb/tiny.txt", *FIT,
     "--out-dir", "nodecls/tiny", "--task", "nodecls", "--backbone", "sage"],
]

RUN_CLI = "import sys; from nodegae.cli import main; sys.exit(main(sys.argv[1:]))"


def run_matrix(src: Path, work: Path) -> list[str]:
    """Run MATRIX in work with the package at src; the sha256 line of every file made."""
    env = dict(os.environ, PYTHONPATH=str(src.resolve()), OPENBLAS_NUM_THREADS="1")
    for argv in MATRIX:
        done = subprocess.run([sys.executable, "-c", RUN_CLI, *argv], cwd=work, env=env,
                              capture_output=True, text=True)
        if done.returncode:
            raise SystemExit(f"exit {done.returncode}: nodegae {' '.join(argv)}\n{done.stderr}")
    files = sorted(p for p in work.rglob("*") if p.is_file())
    return [f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.relative_to(work).as_posix()}"
            for p in files]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                        help="directory that holds the nodegae package")
    parser.add_argument("--work-dir", type=Path, help="run here and keep the artifacts")
    args = parser.parse_args()
    if args.work_dir is None:
        with tempfile.TemporaryDirectory() as tmp:
            lines = run_matrix(args.src, Path(tmp))
    else:
        args.work_dir.mkdir(parents=True, exist_ok=True)
        if any(args.work_dir.iterdir()):
            raise SystemExit(f"--work-dir {args.work_dir} is not empty")
        lines = run_matrix(args.src, args.work_dir)
    print("\n".join(lines))


if __name__ == "__main__":
    main()
