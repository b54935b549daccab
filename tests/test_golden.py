"""Golden CLI output: SHA-256 of stdout for a fixed grid of commands.

The digests were recorded at commit 11c6be56c397c7989515c25da3f36baf000d3150.
A change that alters any byte of these outputs must say why and re-record
them; refactors of the route code must leave every digest unchanged.
"""

import hashlib

import pytest

from tensorwalk.cli import main

GOLDEN = [
    ("sn-sep --n 3 --rmax 9",
     "bb2e6d4f05ab0557414662ee30c7c41fdf7a7aca6a25f3f7a607834e149ecf0e"),
    ("sn-sep --n 4 --rmax 12",
     "9517b5e0958202fcb6a4fbcc016fa67966440c341726b7d4ff8bd8454794c49e"),
    ("sn-sep --n 5 --rmax 15",
     "173fca76b46cee69672ae9a940fb43bb4e0314be92a17aa2d507c9ae652736f1"),
    ("sn-sep --n 6 --rmax 18",
     "34a4265d92d10ff1a477c5760736710729acca801b0fdb9a8f2fbb678de7762e"),
    ("sn-sep --n 7 --rmax 21",
     "133665170ad4ed4e5667feedb600451c9310969973a99e242b0b02565f77785f"),
    ("sn-sep --n 8 --rmax 24",
     "d86359051d4f692d23e63e54789161c219ae50ab85a3339dd9873e8eb04a4b4b"),
    ("sn-sep --n 9 --rmax 27",
     "5c1773e6a18ba391b27b6d085f7fa7c1c2f7280773b897aa7e8f8a7eb8a8aa96"),
    ("sn-sep --n 8 --rmax 24 --with-tv",
     "ac81e8dc9a3c86b46bed36c9003776f4fe0c4b9438937fe2c49484b55bac3fa8"),
    ("sn-sep --n 8 --rmax 24 --with-tv --format json",
     "f44028af204d0f2129bcd9b127649eca815ff52788d82699a95e465eb9347edf"),
    ("sn-sep --n 40 --rmax 200",
     "de9c323b6bf81aae78d24501ad798e35ce3f03ee7eb166bf6c703b76b23668b0"),
    ("gl-sep --n 6 --q 3 --rmax 20",
     "6b56eaada182d1c945beb8d06c58845ac10781deaf766a18edac632ca4a7dd0f"),
    ("gl-sep --n 6 --q 3 --rmax 20 --format json",
     "a8664da270484dc81bdc4143254b923f1c83b2c149232653385d84d2d98aff78"),
    ("gl-sep --n 16 --q 7 --rmax 32",
     "35248d42c33d4ec8edca8c8faea807cad698dcd6d31d643f44022cf9180eb958"),
    ("crosscheck --n 7",
     "32371d59a60f43656148cc5fd370074f6535a9bd4560809d7cb72fae27267510"),
    ("crosscheck --n 4 --q 3",
     "d2ec9b899db8c4da01c00eb0e86ecaf6a5232e362b82ae9c05b325cef18a9fd4"),
    ("spectrum --n 6",
     "cf7090d2552702d98926ef4efe7e2d0e2c01fb0bea41700cece1513050b27cda"),
    ("spectrum --n 4 --q 2",
     "56cb308bc7da8759dbd27f680ff3cbeba7201534b22554054dd05a6a172c07e3"),
    ("profile --n 128 --c=0",
     "d1623d85ec6acb663a25d2521f307561604f850fc63145251cf5466450d0d80e"),
]


@pytest.mark.parametrize("command,digest", GOLDEN, ids=[c for c, _ in GOLDEN])
def test_stdout_digest(capsys, command, digest):
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
