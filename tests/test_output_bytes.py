"""Pinned output bytes of two tiny CLI pipelines.

On pointmass2d, two `train-offline` runs (one with the regularizer, one with
`disable_reg=true`), a `run-online --adapt on` call with seven triggered
updates, a `run-online --adapt always` call, `run-online --adapt on` (15
triggered updates) and `--adapt off` calls at sigma 0, and a `gen-refs` run
feeding an `evaluate --adapt off` sweep whose 20-episode cells end episodes
at many different steps, some at the horizon, are run from a relative
layout. The adaptive sweeps follow: an `evaluate --adapt on` sweep in
which every cell triggers updates, a `grid-kth` run over every candidate
threshold, and a `tier-ablation` over two supplementary mixes. On
pendulum1, where no episode ends early, a `train-offline` run feeds
`gen-refs` and an `evaluate --adapt off` sweep. The sha256 of every file
these and the `gen-data` calls write is compared, with `wall_ms` masked,
against the digests below. A speed change that claims byte-identical
outputs must keep this test green as it stands.

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
    ["run-online", "--artifacts", "art", "--sigma", "0.2", "--episodes", "2",
     "--adapt", "always", "--seed", "2", "--out", "online_always"],
    ["run-online", "--artifacts", "art", "--sigma", "0", "--episodes", "3",
     "--adapt", "on", "--kth", "0.6", "--seed", "1", "--out", "online_sigma0"],
    ["run-online", "--artifacts", "art", "--sigma", "0", "--episodes", "3",
     "--adapt", "off", "--kth", "0.6", "--seed", "1", "--out", "online_sigma0_off"],
    ["gen-refs", "--env", "pointmass2d", "--episodes", "3", "--seed", "5",
     "--out", "refs.txt"],
    ["evaluate", "--artifacts", "art", "--refs", "refs.txt", "--adapt", "off",
     "--sigmas", "0.0,0.2", "--runs", "2", "--episodes", "20", "--seed", "7",
     "--out", "sweep"],
    ["evaluate", "--artifacts", "art", "--refs", "refs.txt", "--adapt", "on",
     "--sigmas", "0.0,0.2", "--runs", "2", "--episodes", "3", "--kth", "0.6",
     "--seed", "1", "--out", "sweep_on"],
    ["grid-kth", "--artifacts", "art", "--refs", "refs.txt", "--sigma", "0.2",
     "--runs", "1", "--episodes", "2", "--seed", "1", "--out", "grid"],
    ["gen-data", "--env", "pointmass2d", "--tier", "medium,random", "--episodes", "6",
     "--seed", "5", "--out", "rich.demos"],
    ["tier-ablation", "--config", "train.cfg", "--set", "ref_steps=50",
     "--set", "disc_steps=100", "--set", "bc_steps=100", "--mix", "me=medium.demos",
     "--mix", "memr=rich.demos", "--refs", "refs.txt", "--sigmas", "0.0,0.2",
     "--runs", "2", "--episodes", "3", "--seed", "7", "--out", "ablation"],
)

DIGESTS = {
    "ablation/manifest.txt": "ee285994df9667a70af0beacddc2d33f6bae7da4bee2f03df36a8eb98e527e1c",
    "ablation/plot.txt": "2fb4a4e19498521289f02eed9cd85b2f906a2b9e1685b0ad25267cf8b0a484f3",
    "ablation/records.txt": "a8e0886c236ba1ff10e060774fd3b1f301f4c7052f1a01bcd426edce59beef89",
    "ablation/summary.txt": "e3847338b2abf5f956a965041e1250d4ad33527caf31928d4e39b4752c8d7e63",
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
    "grid/manifest.txt": "54ebaef963accc1521920c4b64e63fb8288e6430317f5190004a0d9916134720",
    "grid/plot.txt": "ba02e62cd8b1454189d53f843c55d7aa3aaa71c56e8b88aa2fedcff30a3cb8b6",
    "grid/records.txt": "93a6c88a94122a410c00314710b33420d4d07f3b8293eeb3c6117661e7b02f29",
    "grid/summary.txt": "2104e082e1617ed34aa4821ecbca1fc9ee9ae328dcd367e3b1329d2e0c5d7c18",
    "medium.demos": "ecebca0412738c50152ee4205b67caf0f86523a74ca1da82f7bedf7b97a4e8ff",
    "medium.demos.manifest": "91b231842b7e26e6614b10ab15d997ea1f9c183c18d3d10db38511714cc42d9c",
    "online/manifest.txt": "fb6906f61420a54fa5c085ebc2f25295463a17d6a1d1f1fee3a1ef532199f4e8",
    "online/returns.log": "41e350c1f1dceaa5743ad886f2579103c4eba030d28e63cfc45e74a58a00a9cb",
    "online/triggers.log": "321ae7beaa94f0c9c43ea30b2368df14858e2a043d44892affe4e0f748d56cf3",
    "online_always/manifest.txt": "96826d189b6def6f0c7fdbdf1331efa34cc3f7d2b3424f1dc9576792188d6f44",
    "online_always/returns.log": "250d33e9b98fd9d40cd8394422561b342b08617e04a0499712ce0a8e18376400",
    "online_always/triggers.log": "ca299ded5e9f0083663dd134fb6f4d4c3711cc27b2e1eb5412741ac0df0f3022",
    "online_sigma0/manifest.txt": "96f5d44a39342cb5ab793b62c25d557f92230173c55c06b57f03ab9547654f10",
    "online_sigma0/returns.log": "f4b67fff03bb24deb66f19944bcaaa2ac658776a6d3fbf58208580e7454494af",
    "online_sigma0/triggers.log": "ca3e7297f39800bd2fac1fef6a25ccbce5edba2192d8817cecee11d2141f2beb",
    "online_sigma0_off/manifest.txt": "98f0c5f42a34c70d1b3aa18805ebcbd8bffa27c73d9ffab9b2028ff454c5fb45",
    "online_sigma0_off/returns.log": "716b584fbd7161ee4331238235ba4ce8393a0cd7f7563c5096b1f2d2552e639c",
    "online_sigma0_off/triggers.log": "4caba24a94dca1d4b2b68959f986abf85be0c181a05b3db12827a47a23e69605",
    "refs.txt": "25f6fd4db92825ee30004e2ac6865d5ebe01478a2920f51aae73fbf1236ae659",
    "refs.txt.manifest": "a981d2b4d3a3b1bdcbf469c6a689781b349d4706574e3d5acad99d39ef926f38",
    "rich.demos": "b367047e88337ef098d01b9c58f08a20ac85f0a4d6176e595c139ee3fbfd3862",
    "rich.demos.manifest": "1a31da97ce8af6ff2a1aef205fe18e5d6ece852c8994954f6eeace5c100197ba",
    "sweep/manifest.txt": "2c1796db3cef8941ae67af9bf8023fb31717f88d76c7fa57b62af0e608515b0c",
    "sweep/plot.txt": "14f16416740ba26839caed3328b41ed54f354b4a545670eab59d3f3dba2e50dd",
    "sweep/records.txt": "ef39129f06662356fbe1a2d56de530e7b2ce32cd72472448dd823acb4d2f9056",
    "sweep/summary.txt": "bd8e0450bda00946022595e5340731824979471254b319b962052abcf72c0b30",
    "sweep_on/manifest.txt": "1524c85833b68b15098804a74228d67386b298813deca0b54f3a9e23d1619cee",
    "sweep_on/plot.txt": "5f8dc1be129aae16d7152f41a9af0371bc60691778b9b778887f41941399609a",
    "sweep_on/records.txt": "d4b448dbfad8bd9c60fc5d2527e240a6d14259898270948e2b1fa510c9f7031a",
    "sweep_on/summary.txt": "d64d1f9c5489f59e5a4381a4cb0a8b775c0846b50b4e70122a3528316ac3d624",
    "train.cfg": "5178fb7ba44c19660c0a724fb8121b5ceb7c6cd492c2f2ae5c869cd0f5498c1f",
}

PENDULUM_CFG = ("env_id=pendulum1\nexpert_demos=expert.demos\n"
                "supp_demos=medium.demos\nseed=4\nref_steps=100\ndisc_steps=200\n"
                "bc_steps=200\nreg_cutoff=100\n")

PENDULUM_COMMANDS = (
    ["gen-data", "--env", "pendulum1", "--tier", "expert", "--episodes", "4",
     "--seed", "6", "--out", "expert.demos"],
    ["gen-data", "--env", "pendulum1", "--tier", "medium", "--episodes", "6",
     "--seed", "6", "--out", "medium.demos"],
    ["train-offline", "--config", "train.cfg", "--out", "art"],
    ["gen-refs", "--env", "pendulum1", "--episodes", "3", "--seed", "6",
     "--out", "refs.txt"],
    ["evaluate", "--artifacts", "art", "--refs", "refs.txt", "--adapt", "off",
     "--sigmas", "0.0,0.1", "--runs", "2", "--episodes", "3", "--seed", "7",
     "--out", "sweep"],
)

PENDULUM_DIGESTS = {
    "art/config.txt": "298511c46656c17611145e3c88e5af0ffbe0900249d3bdc4262db277820ea88f",
    "art/discriminator.ckpt": "b138648b14ea1f8aa78812d6df963cd949ebee8bd660b3e71489e3618d94dc7e",
    "art/gmm_expert.ckpt": "02cd4fdfbde76f82c464973b8d1fd4d1099b7bac5ec73977f4b0cd1ef5101c8f",
    "art/gmm_supp.ckpt": "97f5d929fbb8a57dd9799e65d02c996f06cf3db76dd9fadd0c943a62e12ee978",
    "art/manifest.txt": "cfa65f0b3c38110dc399ba5bc41cdaf6a7436c641596cc71ecc65b5904baf874",
    "art/metrics.log": "7a8ad0d7291cede6b8fda32df0789092044163da837bf87b8a29ea1ee320ddc4",
    "art/policy.ckpt": "bfcad7d8be61743242a7e325f7d73d83681b08c4de52fdbcc3b9437b1fcca314",
    "art/ref_policy_expert.ckpt": "9142cbf7cfecfb4e988d9fb0f8dd9d1871d1e789bea3a451553dfedb383dd83c",
    "art/ref_policy_supp.ckpt": "590a7c4604caa0a3b2742c4d262cfb6bb03373edc36fe8056d51f65ef3de04ba",
    "expert.demos": "81c4fe1358cdb644d1695aa70f92597635b4178576bb90b38d10f7ccefcf8721",
    "expert.demos.manifest": "f2428ebfc09429e17e2d5ecea5f6f711bc26094bd90fe3314fb144fd0eec4bc3",
    "medium.demos": "7c5e4e5862b352496b1400c4fcd11762982f110c9439dda690d751bcb2605e5e",
    "medium.demos.manifest": "9fd22759db71fc612131d0c7fbc3de42bc1323c705fac9016e855ff65d2b676e",
    "refs.txt": "ced2ecb165b9f33c175a5813a775d9050340cbd527fe33912d1b4bd76d3c55ec",
    "refs.txt.manifest": "672231530c2b5213a784b3abfc203b7302dd2c00b8e1493cb402b1e7203accef",
    "sweep/manifest.txt": "036cb43a5a4b9eab073e0e7c0d0388bf68bbcc4a93d1f77323d30720f0869583",
    "sweep/plot.txt": "41b852e79aa0e42dbe847e641293206586663516ec993ec2cc2c36ba1b18f0e3",
    "sweep/records.txt": "7be4124943094c7a95ffa1c4ee4363813633b2af99b8a0ec09a6248bf6052433",
    "sweep/summary.txt": "5bbf43d89fa6f8a012b5c9f789fabe31efde8e2802398fcd56e4caaecaedaf9f",
    "train.cfg": "3115c41c0b29b4ec7db50cbb4e4f83aa14092a3727fa82298c52c90d544b31b9",
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
    assert " updates=0" not in Path("sweep_on/records.txt").read_text()
    found = masked_digests(tmp_path)
    assert sorted(found) == sorted(DIGESTS)
    differ = [name for name in DIGESTS if found[name] != DIGESTS[name]]
    assert not differ, f"output bytes changed: {differ}"


def test_pendulum_outputs_match_pinned_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("train.cfg").write_text(PENDULUM_CFG)
    for argv in PENDULUM_COMMANDS:
        assert main(argv) == EXIT_OK, argv
    found = masked_digests(tmp_path)
    assert sorted(found) == sorted(PENDULUM_DIGESTS)
    differ = [name for name in PENDULUM_DIGESTS
              if found[name] != PENDULUM_DIGESTS[name]]
    assert not differ, f"output bytes changed: {differ}"
