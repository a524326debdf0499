"""Pinned CLI output: the sha256 of every file a command writes.

Each case is one CLI invocation at a small size. It writes its report with
`-o`, and an experiment also writes its `--plot` SVG and, where it has a
table, its `--csv` rows. A change that moves a single byte of a report,
table or plot fails here; a change meant to move bytes re-records them.
"""

import hashlib

import pytest

from lapsewalk.cli import main

SUPER_060 = ["-p", "0.9", "-q", "0", "-r", "0.1", "--theta", repr(0.6 / 0.9)]
SUPER_075 = ["-p", "0.9", "-q", "0", "-r", "0.1", "--theta", repr(0.75 / 0.9)]
CRITICAL = ["-p", "0.9", "-q", "0", "-r", "0.1", "--theta", repr(0.5 / 0.9)]

# name -> (argv, outputs besides the report, {output: sha256})
CASES = {
    "lln": (
        ["experiment", "lln", "-n", "512", "-t", "200", "--seed", "2"],
        ("csv", "plot"),
        {"output": "4b877e9c2118bdf38e418e59e52ab80a1524c86ceca77803667ce75822ccb7f5",
         "csv": "ab7042a445dbcedb5d5618e0b70226506450e5dea744575fb232c9ef4660eac6",
         "plot": "e4bd6dc524d62d68a39691714131cf8ec3b606f758aca383f22d3b8ccdcf3ac1"}),
    "clt": (
        ["experiment", "clt", "-n", "200", "-t", "300", "--seed", "4"],
        ("plot",),
        {"output": "9c3ffe03a17186a0212a12c511be1883bb6fe2c002a209f39077c245970d5adf",
         "plot": "7fd3f7ddfe0fd56065ec99614c8f0cc3c760535f67f6b714975606c592444105"}),
    "critical": (
        ["experiment", "critical", *CRITICAL, "-n", "200", "-t", "300", "--seed", "4"],
        ("plot",),
        {"output": "12e90f4abb5d93f26a47624d60360d9258c28f48e670eb37512475f5e4b7bfe5",
         "plot": "965adc6f6c10d6857f7af8cd8376ed6284845a7bb8092f490c259abbfcef3018"}),
    # n = 1024 gives the far horizon 16 n five dyadic points, enough for the
    # variance-slope fit the plot draws
    "superdiffusive": (
        ["experiment", "superdiffusive", *SUPER_075, "-n", "1024", "-t", "200",
         "--seed", "5"],
        ("plot",),
        {"output": "155c989c01da4d5353a81502d71db4fff5727890b3fe23a2c9f1d9a71cff7b17",
         "plot": "3b358c5164a4be6eef5ff6468b8631b6acd8e8def030af1d2680670d0efdab0b"}),
    "regime-scan": (
        ["experiment", "regime-scan", "-p", "0.9", "-q", "0.05", "-r", "0.05",
         "--alphas", "0.2,0.5,0.75", "--n-max", "16384"],
        ("csv", "plot"),
        {"output": "2c5d3a99c9a91ab6a533983921be17b03f0b510b2685f658b4057c5b951cd524",
         "csv": "09f3581202d073c44d8b33ac4e188d068ef79ac9399b4a20d77f840e812d5827",
         "plot": "a766411b9a0ffe7e018465182f9bdf21802d6643a45ff67a8138c6af0b501f89"}),
    # 65536 runs the recursion over two 32768-transition blocks
    "regime-scan-two-blocks": (
        ["experiment", "regime-scan", "-p", "0.9", "-q", "0.05", "-r", "0.05",
         "--alphas", "0.2,0.5,0.75", "--n-max", "65536"],
        ("csv", "plot"),
        {"output": "aeade17308f6918526e6954323c9c720b3df351eb983495694886d98a696aebc",
         "csv": "a181dc0dbc73e7bd830cb2b51ca6f3fa9caf1e4f3223f3a880f91343f3a2022f",
         "plot": "329890160b785921bfa4074314bbe089e6a473e91f3ca6c8dc55357c2491dabe"}),
    # 100000 rows cross three block edges of the moment recursion
    "exact-csv": (
        ["exact", "-n", "100000"], (),
        {"output": "3045c57954fd26459b095071adac30991cf427b99a6e4887064c06b17d9f27b6"}),
    "exact-json": (
        ["exact", "-n", "100000", "--format", "json"], (),
        {"output": "e8a3c1bd0f151a02012ca8918d43f891e65cedd567cade285690c67153fa28b8"}),
    "exact-distribution-json": (
        ["exact", "-n", "40", "--distribution", "--format", "json"], (),
        {"output": "cd494659d6323dc433c76ff397c366f5a099e834e98333bc517a8cc7b537d2dc"}),
    "exact-distribution-csv": (
        ["exact", "-n", "40", "--distribution"], (),
        {"output": "43227fc646c28c167bac085a331c8c0c1de5f1e4ff831318b1f019db49fdab5c"}),
    "lil-diagnostic": (
        ["experiment", "lil-diagnostic", "--theta", "0", "--n-max", "2048",
         "-t", "100", "--seed", "9"],
        ("plot",),
        {"output": "c0670012dc7447935f6171bc0295ec972a6720c8d8d631b904096533d5ce30d1",
         "plot": "cbc93906c0baacb004394e2a29c56b30351e5dc4fc8d1b072e96bc72fba5ed1a"}),
    "simulate-csv": (
        ["simulate", "-n", "300", "-t", "400", "--seed", "9", "--snapshots", "100,300"],
        (),
        {"output": "b048035ccdd9500b06991de17370aec4d00fb8a287a7a8045b1bb0479fd22080"}),
    # 9000 trajectories fill three 4096-lane accumulation blocks
    "simulate-csv-three-blocks": (
        ["simulate", "-n", "32", "-t", "9000", "--seed", "3", "--snapshots", "16,32"],
        (),
        {"output": "925d82ae9bc14b5e203414c693c6d5c4451019e6f607f8e26ab5419722a7e950"}),
    # the same three blocks at q = 0, where the walk runs one-sided
    "simulate-csv-three-blocks-one-sided": (
        ["simulate", "-p", "0.9", "-q", "0", "-r", "0.1", "--theta",
         "0.8333333333333334", "-n", "32", "-t", "9000", "--seed", "3",
         "--snapshots", "16,32"],
        (),
        {"output": "252e602bee08bcf6d87e936cf2111b631918effc1ccf6301bc3e54da87d91aca"}),
    # alpha < 0: no martingale columns
    "simulate-csv-negative-alpha": (
        ["simulate", "-p", "0.2", "-q", "0.6", "-r", "0.2", "-n", "300", "-t", "400",
         "--seed", "9"],
        (),
        {"output": "ca5ed5079b29e8dbfbb93d1ee233d9b823c0c813a7c9f77ddd3111bad26b6340"}),
    "simulate-json": (
        ["simulate", *SUPER_075, "-n", "300", "-t", "400", "--seed", "9",
         "--format", "json"],
        (),
        {"output": "ba3e7ca0fb86f1958692fa9d7efbb6701338d31a8a006d91d006e1a934410761"}),
    "predict-text": (
        ["predict"], (),
        {"output": "a9b1cb15aee73cbc5b5045357b18395bd3ae466673347add0348f9994a684940"}),
    "predict-text-critical": (
        ["predict", *CRITICAL], (),
        {"output": "22a0811d747e621406a767aaeaa742ca552914a416e553a50d7b81ef1df5635c"}),
    "predict-text-superdiffusive": (
        ["predict", *SUPER_060], (),
        {"output": "9796d584dbf795779edb2f54bffbe761ebad0872be27b38d0074f26b151f40bd"}),
    "predict-json": (
        ["predict", "--format", "json"], (),
        {"output": "dbc4d22410a93a8d2dccf3f8acf8df4ac3403c42d6ab42b4deed136a1d17d23a"}),
    "predict-json-critical": (
        ["predict", *CRITICAL, "--format", "json"], (),
        {"output": "b18ed0384e31dd6df7e67a2dcf12bb2fbabe15fc459d6566e098739e405d70e9"}),
}


def case_digests(tmp_path, name):
    """Run case `name`, writing into tmp_path: {output: sha256} of its files."""
    argv, extras, _ = CASES[name]
    paths = {key: tmp_path / f"{name}.{key}" for key in ("output", *extras)}
    flags = [arg for key, path in paths.items() for arg in (f"--{key}", str(path))]
    assert main([*argv, *flags]) == 0
    return {key: hashlib.sha256(path.read_bytes()).hexdigest()
            for key, path in paths.items()}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_digests(tmp_path, name):
    assert case_digests(tmp_path, name) == CASES[name][2]
