"""Pinned output bytes of a tiny CLI pipeline on pointmass2d.

Two `train-offline` runs (one with the regularizer, one with
`disable_reg=true`) and a `run-online --adapt on` call with seven triggered
updates are run from a relative layout, and the sha256 of every file they
and the `gen-data` calls write is compared, with `wall_ms` masked, against
the digests below. A speed change that claims byte-identical outputs must
keep this test green as it stands.

The digests were taken with numpy 2.4.6 on x86-64; another numpy or BLAS
build may round differently. A change that means to alter these bytes
(a deliberate re-baseline) updates the digests here and records why in
CHANGES.md.
"""

import hashlib
from pathlib import Path

import pytest

from driftbc.cli import EXIT_OK, main
from driftbc.configio import mask_wall_times

pytestmark = pytest.mark.filterwarnings(
    "ignore::driftbc.density.CovarianceFloorWarning")

TRAIN_CFG = ("env_id=pointmass2d\nexpert_demos=expert.demos\n"
             "supp_demos=medium.demos\nseed=3\nref_steps=150\ndisc_steps=300\n"
             "bc_steps=300\nreg_cutoff=150\n")

COMMANDS = (
    ["gen-data", "--env", "pointmass2d", "--tier", "expert", "--episodes", "5",
     "--seed", "5", "--out", "expert.demos"],
    ["gen-data", "--env", "pointmass2d", "--tier", "medium", "--episodes", "10",
     "--seed", "5", "--out", "medium.demos"],
    ["train-offline", "--config", "train.cfg", "--out", "art"],
    ["train-offline", "--config", "train.cfg", "--set", "disable_reg=true",
     "--set", "ref_steps=50", "--set", "disc_steps=100", "--set", "bc_steps=100",
     "--out", "art_noreg"],
    ["run-online", "--artifacts", "art", "--sigma", "0.1", "--episodes", "3",
     "--adapt", "on", "--kth", "0.6", "--seed", "1", "--out", "online"],
)

DIGESTS = {
    "art/config.txt": "cbb9ce05d81fa0260b6da65c270878d41e88669bd81c8320acc3a6ed1510b120",
    "art/discriminator.ckpt": "23305b1fff500be117da845fcab71b4d1987586a20251b4d6cdff51694d4f22f",
    "art/gmm_expert.ckpt": "269fd736d06258f12f1107a3282b55bcfef04bc7e764a7c0f8d607920ad967df",
    "art/gmm_supp.ckpt": "0f9c459321c02018051c1226340cc4b6fd37dec9fce89b202d4a2a1b840e7d2c",
    "art/manifest.txt": "734552189863e1d5d67225c3e936ea82124b5e0f4ced48f8cc252ce099fc6058",
    "art/metrics.log": "c091409730b753a9cdd258753a04cf1296b4eb31fb2777a454ec8c1e5b294886",
    "art/policy.ckpt": "37cb68ad8c6e1619a68667de4c89ff55e0ee6f2144d2d55f6106b8f7d7c973aa",
    "art/ref_policy_expert.ckpt": "9e6299c94abda30d19e67f26a5cd7a4bf4ec58825544db3e7dd422cf4edbe3fb",
    "art/ref_policy_supp.ckpt": "f2e8a1111b214205da9d4ca9bf71cae60dc9543d7547e64a9e5e88e107c67b37",
    "art_noreg/config.txt": "19f9c4efb227ffe85b1b97ae9959cb641ccd6d286e679afa42cba873651420a9",
    "art_noreg/discriminator.ckpt": "cf5806f8015c411ca1b1c7317eed59e1dfdeed900d7f5304dd7d27684787cbd3",
    "art_noreg/gmm_expert.ckpt": "8b8a9601c6be6678207361af06e8d81c82ccf87cefebd40b6268c49116a6d705",
    "art_noreg/gmm_supp.ckpt": "8e0c932a8dc1a55fcdb0f846f603cc34320c8954bfed5bd1d5c63e9257bdd6fc",
    "art_noreg/manifest.txt": "41cb3c2423a247caa07d2138651cc0f058b49e37549118922beae55023f023b6",
    "art_noreg/metrics.log": "d0abe4f5f554831e6a103eb818a1cf0aca4e8bbb58fed12f2bdd5f7fc6530f53",
    "art_noreg/policy.ckpt": "0fbe99be61e7d52c62f0b7e7fc804cbd7feecf32f467cb19f6004e3412c2a746",
    "art_noreg/ref_policy_expert.ckpt": "336ce59dce930697efb8f6c296136ac5430451282a08543d9190ba78b82eb15a",
    "art_noreg/ref_policy_supp.ckpt": "0fab130dd8f0448eb458da9e6c3c4b3ebf707c549fd8ecd29291d2f1f2fd955d",
    "expert.demos": "d3f6d8283fd95302891128830959f368cf3be406e462a836edee9398f5966290",
    "expert.demos.manifest": "39a0711682956f2a76f0c2447a8a4a876b9a431a7d57ebef12152c7366dd00c5",
    "medium.demos": "ecebca0412738c50152ee4205b67caf0f86523a74ca1da82f7bedf7b97a4e8ff",
    "medium.demos.manifest": "91b231842b7e26e6614b10ab15d997ea1f9c183c18d3d10db38511714cc42d9c",
    "online/manifest.txt": "fb6906f61420a54fa5c085ebc2f25295463a17d6a1d1f1fee3a1ef532199f4e8",
    "online/returns.log": "41e350c1f1dceaa5743ad886f2579103c4eba030d28e63cfc45e74a58a00a9cb",
    "online/triggers.log": "321ae7beaa94f0c9c43ea30b2368df14858e2a043d44892affe4e0f748d56cf3",
    "train.cfg": "5178fb7ba44c19660c0a724fb8121b5ceb7c6cd492c2f2ae5c869cd0f5498c1f",
}


def masked_digests(root: Path) -> dict[str, str]:
    out = {}
    for p in sorted(root.rglob("*")):
        if not p.is_file():
            continue
        data = p.read_bytes()
        if p.suffix in (".txt", ".log", ".cfg", ".manifest"):
            data = mask_wall_times(data.decode("ascii")).encode("ascii")
        out[p.relative_to(root).as_posix()] = hashlib.sha256(data).hexdigest()
    return out


def test_cli_outputs_match_pinned_digests(tmp_path, monkeypatch):
    # relative paths keep the working directory out of the config and manifests
    monkeypatch.chdir(tmp_path)
    Path("train.cfg").write_text(TRAIN_CFG)
    for argv in COMMANDS:
        assert main(argv) == EXIT_OK, argv
    assert "triggered=1" in Path("online/triggers.log").read_text()
    found = masked_digests(tmp_path)
    assert sorted(found) == sorted(DIGESTS)
    differ = [name for name in DIGESTS if found[name] != DIGESTS[name]]
    assert not differ, f"output bytes changed: {differ}"
