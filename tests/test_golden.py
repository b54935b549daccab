"""Golden CLI output: SHA-256 of stdout for a fixed grid of commands.

The digests were recorded at commit 11c6be56c397c7989515c25da3f36baf000d3150,
except `sn-sep --n 10 --rmax 40 --with-tv` and `crosscheck --n 8 --rmax 24`,
recorded at commit 990198aeb912e196cf12a36a653094b9b9e7038a, the two
`occupancy` records at q = 2 and without q, recorded at commit
c863b82de3ed147bec2e873344af5c536b5ec31f, and the `occupancy` record at
q = 3, recorded at commit 9f9749092cf3aeccbede88d06ca0063158d44356, and
the many-box `occupancy` record at n = 40000 and the q = 191 one, recorded
at commit 93fbbaf921e97392fcf130031e7e9b85de585c66, and the multi-jump
`profile` record at n = 128, 256, 512 and `gl-sep --n 24 --q 2`, recorded
at commit 8671271a596e40b59546408e98f5cad4162ce798. The four `crosscheck`
digests were re-recorded at commit d5738b1b445a1ef67f286a48848178f2b915b0b5,
when PASS lines stopped padding the check name (the padding only aligns
failure messages). `crosscheck --n 4 --q 3` was re-recorded again at commit
fc4c86a53e4975df94a339923cbe133cc98f685f, when its two GL family-count
lines were deleted. `sn-sep --n 11 --rmax 12`, the first n above the
command line's four-route limit, was recorded at commit
5d23b571e6532bfd7f20583990a2cdb7700fbc5f. `profile --n 128 --c=0,0.008`,
which reads r = 622 and then r = 623 (a step of one right after a jump in
the stepped closed-form pass), was recorded at commit
1ae70e67f472eafdbb80369b8c31b5b0bf425961. `sn-sep --n 60 --rmax 300`
(n = 2^2 * 3 * 5, so n^r has three primes) and `gl-sep --n 6 --q 9 --rmax 20`
(a prime-power q) were recorded at commit
70a5522bcffad69df275e577e962b26848712e3e. The q-span `occupancy` records
at q = 31 with n = 40, whose elimination runs long enough to reduce the
stack mid-run, and at q = 181, where it is reduced before every column
after the first, were recorded at commit
d03500c948dba5cf14412998cfff66c969a2bc04. `sn-sep --n 128 --rmax 622`
and its `--format json`, a closed-form curve long enough to be split
between two processes and the closed-form JSON output, were recorded at
commit cda830e01579327832db676ae6e630251abfe3e8.
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
    ("sn-sep --n 10 --rmax 40 --with-tv",
     "66d48c58369f5406146fdc94234a535eb58d876be9608dd73181815f973d5dfc"),
    ("sn-sep --n 11 --rmax 12",
     "d302b81fa94822c51bb845ec0a0445d402233e325fc85d7b07b821065e95f79a"),
    ("sn-sep --n 40 --rmax 200",
     "de9c323b6bf81aae78d24501ad798e35ce3f03ee7eb166bf6c703b76b23668b0"),
    ("sn-sep --n 60 --rmax 300",
     "dde36bfd3128dfc14c5fdb2061b52a3ab78779d2c06b6e861c093903542be029"),
    ("sn-sep --n 128 --rmax 622",
     "0be14a4878e329b1d857b878b4cef5d86fc69e834b44b950a3bfa729edf6b687"),
    ("sn-sep --n 128 --rmax 622 --format json",
     "f3d1ab7e563c94430b16f2f955a73f849505f4ae5af4a776f285948e772b9524"),
    ("gl-sep --n 6 --q 3 --rmax 20",
     "6b56eaada182d1c945beb8d06c58845ac10781deaf766a18edac632ca4a7dd0f"),
    ("gl-sep --n 6 --q 3 --rmax 20 --format json",
     "a8664da270484dc81bdc4143254b923f1c83b2c149232653385d84d2d98aff78"),
    ("gl-sep --n 16 --q 7 --rmax 32",
     "35248d42c33d4ec8edca8c8faea807cad698dcd6d31d643f44022cf9180eb958"),
    ("gl-sep --n 6 --q 9 --rmax 20",
     "61458a162bff20304574861953faf52cf5566f9536552d8b1bb1036dd8c72fc9"),
    ("crosscheck --n 7",
     "65b8be0553c99110419d2095b0f676994afe755761f7a206fafdcc9bd08d0dac"),
    ("crosscheck --n 8 --rmax 24",
     "0e6c4a73876214b29a4b0aa63fe3e2057c603cc39d702d15cfcc32b51f9310d6"),
    ("crosscheck --n 10",
     "d4d6e9d7589b8fc6047b8e05e1f5bafaff6b3864e74fe1289744d7affddc7e28"),
    ("crosscheck --n 4 --q 3",
     "e70cc28961efc8ef405a168b19d352c3ef10e0d729b083a404d5a9c076f5ef8d"),
    ("spectrum --n 6",
     "cf7090d2552702d98926ef4efe7e2d0e2c01fb0bea41700cece1513050b27cda"),
    ("spectrum --n 4 --q 2",
     "56cb308bc7da8759dbd27f680ff3cbeba7201534b22554054dd05a6a172c07e3"),
    ("profile --n 128 --c=0",
     "d1623d85ec6acb663a25d2521f307561604f850fc63145251cf5466450d0d80e"),
    ("profile --n 128 --c=0,0.008",
     "bac5805aa55996dfcb892a5c673723c5267ff23779a47073a174fb845fe0d0c0"),
    ("profile --n 128,256,512 --c=-1,0,1,2",
     "fa5efaa4b0113f90137a87c08daff1b8922630121cd10e71aa9b40be4497bd63"),
    ("gl-sep --n 24 --q 2 --rmax 48",
     "d5d5aa1e682b6700549e8335da8512192f3df43005431f5aaa1992d52615a055"),
    ("occupancy --a 2 --r 2 --n 2 --samples 20000 --seed 7",
     "72ef08aa48dca5747198618b916f5af89a138c6e7f26097eff34d74028bee65c"),
    ("occupancy --a 8 --r 10 --n 8 --q 2 --samples 2000 --seed 14",
     "d28685ef062bf387493bf21c1b756c7782bec278bcae9203c551042a13ed6eae"),
    ("occupancy --a 6 --r 8 --n 6 --q 3 --samples 20000 --seed 3",
     "f809dfd21e8ca5bc3ee985aa5c4561cff155434ef1d7180e9cfc1785cc708cfa"),
    ("occupancy --a 90 --r 100 --n 40000 --samples 2000 --seed 5",
     "56bebd15ba03a87c0826e4ab5f87745ec3ab128dd85864c61f620d35dd52dd61"),
    ("occupancy --a 5 --r 6 --n 5 --q 191 --samples 2000 --seed 2",
     "add54cd7cbda16c59b596cbea91b1ace5fc8ddd966e1629840162805aa4ed612"),
    ("occupancy --a 40 --r 40 --n 40 --q 31 --samples 300 --seed 4",
     "f95b28085b321c8b438b6618f87f8b62e356c5c2481f2c8907858f275ddc13d4"),
    ("occupancy --a 5 --r 7 --n 6 --q 181 --samples 2000 --seed 6",
     "195a52a4003ca810a5bb247a46bcc79cd1f12b443e99ee71eaf406ecb2c0d2bb"),
]


@pytest.mark.parametrize("command,digest", GOLDEN, ids=[c for c, _ in GOLDEN])
def test_stdout_digest(capsys, command, digest):
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
