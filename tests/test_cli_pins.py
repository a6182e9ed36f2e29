"""The CLI's stdout bytes and exit codes over the corpus, pinned.

Each run goes through ``cli.main`` in-process; the sha256 of its stdout and
its exit code must equal the literal recorded for it.  The literals were
recorded before the section search moved onto ``linalg.rref``, those of
``p3_q.malg`` (structure constants with denominators 2 and 3) before the
structure-constant recursion over Q moved onto ints, so any change in the
text of ``ideal``, ``compare``, ``enumerate`` or ``oracle`` shows up here as
a named run.  Where the section needs words of length s = 2, the runs at
L = 2s are pinned too: there the kernel vectors w - sigma(eta(w)) reach
section words of length 2.  Those literals were recorded while the kernel
was still read off a second elimination over the eta matrix at L.  The
``check`` runs, at L = 2 and L = 2s + 1 on the identity and on a point off
the locus, were recorded while ``check`` still built the ideal at L.
"""

import contextlib
import hashlib
import io

from conftest import CORPUS, DATA, OFF_LOCUS, identity_literal, load
from autalg.cli import main
from autalg.presentation import generation_closure


def pin_runs():
    """(file name, argv after ``--input``) for every pinned run."""
    for path in CORPUS:
        pres = load(path.name)
        modes = [[], ["--no-inverse"]]
        if pres.grading != "none":
            modes.append(["--graded"])
        if pres.fixed:
            modes.append(["--fixed"])
        for command in ("ideal", "compare"):
            for length in ("2", "3"):
                for mode in modes:
                    yield path.name, [command, "--max-length", length, *mode]
        yield path.name, ["enumerate", "--max-length", "3"]
        yield path.name, ["oracle"]
        yield path.name, ["compare", "--max-length", "2", "--budget", "1"]
        stable = 2 * generation_closure(pres).max_length
        if stable > 3:
            for mode in modes:
                yield path.name, ["ideal", "--max-length", str(stable), *mode]
            if pres.ring.p is not None:
                yield path.name, ["compare", "--max-length", str(stable)]
        for length in (2, stable + 1):
            for point in (identity_literal(pres.num_gens), OFF_LOCUS[path.name]):
                yield path.name, ["check", "--max-length", str(length), "--point", point]


def run_pin(name, argv):
    """(exit code, sha256 hex of stdout) of one in-process CLI run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([argv[0], "--input", str(DATA / name), *argv[1:]])
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


CLI_PINS = {
    ("p0_f2.malg", "ideal --max-length 2"): (0, "205a6d415713570e13023c669377c3c235f62271b8ed7a0ea3df67bbf84e1517"),
    ("p0_f2.malg", "ideal --max-length 2 --no-inverse"): (0, "696f57a9e082b90815381d46d76eb69d19a83231216c441651a01c2d621519aa"),
    ("p0_f2.malg", "ideal --max-length 3"): (0, "14f0ca41553cc6029fd86cea35917b8955ebf727e053e2113ea3b333eaf2b59c"),
    ("p0_f2.malg", "ideal --max-length 3 --no-inverse"): (0, "c4bd04f77dfea3fc0f82b45d757a231e07b66885f05bf8f5c378ee8fd5eb4fc0"),
    ("p0_f2.malg", "compare --max-length 2"): (0, "721204e74a9bf8d1a0d7918bf969d117fc53c4e1f53223ece2175ea91689d291"),
    ("p0_f2.malg", "compare --max-length 2 --no-inverse"): (0, "721204e74a9bf8d1a0d7918bf969d117fc53c4e1f53223ece2175ea91689d291"),
    ("p0_f2.malg", "compare --max-length 3"): (0, "721204e74a9bf8d1a0d7918bf969d117fc53c4e1f53223ece2175ea91689d291"),
    ("p0_f2.malg", "compare --max-length 3 --no-inverse"): (0, "721204e74a9bf8d1a0d7918bf969d117fc53c4e1f53223ece2175ea91689d291"),
    ("p0_f2.malg", "enumerate --max-length 3"): (0, "d9c7a74d0a9f3ec69209f69b0a0b65d7cc698c9d16215893981983f2db3dca50"),
    ("p0_f2.malg", "oracle"): (0, "bc85283063db89f0fca1f72e6237236b94a5ca041023aab997750429d8ad1a61"),
    ("p0_f2.malg", "compare --max-length 2 --budget 1"): (4, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("p0_f2.malg", "check --max-length 2 --point 1,0;0,1"): (0, "a17fcf0a2f50e2d495e4f90ce263410edc183add6c62699a2facbccf60410f74"),
    ("p0_f2.malg", "check --max-length 2 --point 0,0;0,0"): (1, "2ed27c1421e6928dbe13dbfdb5c59e1045b30341fe7ebe05700006bc5ac572c0"),
    ("p0_f2.malg", "check --max-length 3 --point 1,0;0,1"): (0, "a17fcf0a2f50e2d495e4f90ce263410edc183add6c62699a2facbccf60410f74"),
    ("p0_f2.malg", "check --max-length 3 --point 0,0;0,0"): (1, "2ed27c1421e6928dbe13dbfdb5c59e1045b30341fe7ebe05700006bc5ac572c0"),
    ("p1_q.malg", "ideal --max-length 2"): (0, "98bb1cbe92727ea8e2f07f3338cdc96af4a1ff756e9ed65d09b343e12e6994cf"),
    ("p1_q.malg", "ideal --max-length 2 --no-inverse"): (0, "b29dfc245bb4e9bc61288eb7e97ac0a89340eb621117cf326107826c7a617585"),
    ("p1_q.malg", "ideal --max-length 3"): (0, "9d1b843eecd7b47614d17bc956b46276ef147331ba003da51abf70d8e198e722"),
    ("p1_q.malg", "ideal --max-length 3 --no-inverse"): (0, "745691585060abf046383ed4b11b6264be8058d3330ab50e7498ab1dcd0a8c51"),
    ("p1_q.malg", "compare --max-length 2"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("p1_q.malg", "compare --max-length 2 --no-inverse"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("p1_q.malg", "compare --max-length 3"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("p1_q.malg", "compare --max-length 3 --no-inverse"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("p1_q.malg", "enumerate --max-length 3"): (0, "04195009323ee69a1ada2b64dd1e815ba51d155968ab5f1e6013b4f9699ae833"),
    ("p1_q.malg", "oracle"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("p1_q.malg", "compare --max-length 2 --budget 1"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("p1_q.malg", "ideal --max-length 4"): (0, "d62af631d71ce28334d34ddca462795786e73e7086a35099c325c66249935832"),
    ("p1_q.malg", "ideal --max-length 4 --no-inverse"): (0, "5cd180fc7a04d0d58df7b6b051c04d59b0e56177985ff4ec447f959839a80b8c"),
    ("p1_q.malg", "check --max-length 2 --point 1"): (0, "a17fcf0a2f50e2d495e4f90ce263410edc183add6c62699a2facbccf60410f74"),
    ("p1_q.malg", "check --max-length 2 --point 0"): (1, "2ed27c1421e6928dbe13dbfdb5c59e1045b30341fe7ebe05700006bc5ac572c0"),
    ("p1_q.malg", "check --max-length 5 --point 1"): (0, "a17fcf0a2f50e2d495e4f90ce263410edc183add6c62699a2facbccf60410f74"),
    ("p1_q.malg", "check --max-length 5 --point 0"): (1, "2ed27c1421e6928dbe13dbfdb5c59e1045b30341fe7ebe05700006bc5ac572c0"),
    ("p2_f3.malg", "ideal --max-length 2"): (0, "4734f62b42223b7ed4aeba2de4605c6b393f06791196e9456f66b47624d1741a"),
    ("p2_f3.malg", "ideal --max-length 2 --no-inverse"): (0, "e64bf3e10d5c346505c7cb8a42b935d09975425174682f8adb1ccb9655a3e577"),
    ("p2_f3.malg", "ideal --max-length 3"): (0, "f4f5570a7ded171e94c199b0e10a9ea98157aee523029a0ed7ea4e5f1657712e"),
    ("p2_f3.malg", "ideal --max-length 3 --no-inverse"): (0, "0a84bb9ff66c5106a6f6a8358f9af9f87cc8029720e09e6f52ad6b22d44460ea"),
    ("p2_f3.malg", "compare --max-length 2"): (0, "721204e74a9bf8d1a0d7918bf969d117fc53c4e1f53223ece2175ea91689d291"),
    ("p2_f3.malg", "compare --max-length 2 --no-inverse"): (0, "721204e74a9bf8d1a0d7918bf969d117fc53c4e1f53223ece2175ea91689d291"),
    ("p2_f3.malg", "compare --max-length 3"): (0, "721204e74a9bf8d1a0d7918bf969d117fc53c4e1f53223ece2175ea91689d291"),
    ("p2_f3.malg", "compare --max-length 3 --no-inverse"): (0, "721204e74a9bf8d1a0d7918bf969d117fc53c4e1f53223ece2175ea91689d291"),
    ("p2_f3.malg", "enumerate --max-length 3"): (0, "35d62fab308845bd88f86697a8d7815a24c1f8ef21e0b849bd446684bc278051"),
    ("p2_f3.malg", "oracle"): (0, "bba075319cda48be111e7eff0a4ff67b4182681253cdb9c841e54ec4c9d7d7f7"),
    ("p2_f3.malg", "compare --max-length 2 --budget 1"): (4, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("p2_f3.malg", "check --max-length 2 --point 1,0;0,1"): (0, "a17fcf0a2f50e2d495e4f90ce263410edc183add6c62699a2facbccf60410f74"),
    ("p2_f3.malg", "check --max-length 2 --point 1,0;0,2"): (1, "2ed27c1421e6928dbe13dbfdb5c59e1045b30341fe7ebe05700006bc5ac572c0"),
    ("p2_f3.malg", "check --max-length 3 --point 1,0;0,1"): (0, "a17fcf0a2f50e2d495e4f90ce263410edc183add6c62699a2facbccf60410f74"),
    ("p2_f3.malg", "check --max-length 3 --point 1,0;0,2"): (1, "2ed27c1421e6928dbe13dbfdb5c59e1045b30341fe7ebe05700006bc5ac572c0"),
    ("p2_graded_f3.malg", "ideal --max-length 2"): (0, "4734f62b42223b7ed4aeba2de4605c6b393f06791196e9456f66b47624d1741a"),
    ("p2_graded_f3.malg", "ideal --max-length 2 --no-inverse"): (0, "e64bf3e10d5c346505c7cb8a42b935d09975425174682f8adb1ccb9655a3e577"),
    ("p2_graded_f3.malg", "ideal --max-length 2 --graded"): (0, "2bcfd42d02a6ecd79b743e3c14a0f2bad6904aed16ee41c2f167e003eb4eef34"),
    ("p2_graded_f3.malg", "ideal --max-length 3"): (0, "f4f5570a7ded171e94c199b0e10a9ea98157aee523029a0ed7ea4e5f1657712e"),
    ("p2_graded_f3.malg", "ideal --max-length 3 --no-inverse"): (0, "0a84bb9ff66c5106a6f6a8358f9af9f87cc8029720e09e6f52ad6b22d44460ea"),
    ("p2_graded_f3.malg", "ideal --max-length 3 --graded"): (0, "f6a0a8f841b0bda1b218e9cf41b078e18e8590cae305bee5bfe87ce4a766e04c"),
    ("p2_graded_f3.malg", "compare --max-length 2"): (0, "721204e74a9bf8d1a0d7918bf969d117fc53c4e1f53223ece2175ea91689d291"),
    ("p2_graded_f3.malg", "compare --max-length 2 --no-inverse"): (0, "721204e74a9bf8d1a0d7918bf969d117fc53c4e1f53223ece2175ea91689d291"),
    ("p2_graded_f3.malg", "compare --max-length 2 --graded"): (0, "a4bca29cfd7109702558ab267146578e7b0fc3b478d27a7c250e0e738afa27b9"),
    ("p2_graded_f3.malg", "compare --max-length 3"): (0, "721204e74a9bf8d1a0d7918bf969d117fc53c4e1f53223ece2175ea91689d291"),
    ("p2_graded_f3.malg", "compare --max-length 3 --no-inverse"): (0, "721204e74a9bf8d1a0d7918bf969d117fc53c4e1f53223ece2175ea91689d291"),
    ("p2_graded_f3.malg", "compare --max-length 3 --graded"): (0, "a4bca29cfd7109702558ab267146578e7b0fc3b478d27a7c250e0e738afa27b9"),
    ("p2_graded_f3.malg", "enumerate --max-length 3"): (0, "35d62fab308845bd88f86697a8d7815a24c1f8ef21e0b849bd446684bc278051"),
    ("p2_graded_f3.malg", "oracle"): (0, "bba075319cda48be111e7eff0a4ff67b4182681253cdb9c841e54ec4c9d7d7f7"),
    ("p2_graded_f3.malg", "compare --max-length 2 --budget 1"): (4, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("p2_graded_f3.malg", "check --max-length 2 --point 1,0;0,1"): (0, "a17fcf0a2f50e2d495e4f90ce263410edc183add6c62699a2facbccf60410f74"),
    ("p2_graded_f3.malg", "check --max-length 2 --point 1,0;0,2"): (1, "2ed27c1421e6928dbe13dbfdb5c59e1045b30341fe7ebe05700006bc5ac572c0"),
    ("p2_graded_f3.malg", "check --max-length 3 --point 1,0;0,1"): (0, "a17fcf0a2f50e2d495e4f90ce263410edc183add6c62699a2facbccf60410f74"),
    ("p2_graded_f3.malg", "check --max-length 3 --point 1,0;0,2"): (1, "2ed27c1421e6928dbe13dbfdb5c59e1045b30341fe7ebe05700006bc5ac572c0"),
    ("p2_q.malg", "ideal --max-length 2"): (0, "0642d992477a5763f91c0390312b0876cc0f208301c053a9f8418a944ed1876a"),
    ("p2_q.malg", "ideal --max-length 2 --no-inverse"): (0, "cde8a5a06a64cc885167f6df0eb8dc4b3133e4c57a8933cdfd72a10d1af4821e"),
    ("p2_q.malg", "ideal --max-length 3"): (0, "08ff42d5dbb748e2f62ed02326d0c98a1308f525a5bed533f9583fcc08ad7793"),
    ("p2_q.malg", "ideal --max-length 3 --no-inverse"): (0, "9a0f50e99fd5b0b15f6053665aaa6a41dc6ae7b560ddfd8f71d06ca41e4fba2c"),
    ("p2_q.malg", "compare --max-length 2"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("p2_q.malg", "compare --max-length 2 --no-inverse"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("p2_q.malg", "compare --max-length 3"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("p2_q.malg", "compare --max-length 3 --no-inverse"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("p2_q.malg", "enumerate --max-length 3"): (0, "35d62fab308845bd88f86697a8d7815a24c1f8ef21e0b849bd446684bc278051"),
    ("p2_q.malg", "oracle"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("p2_q.malg", "compare --max-length 2 --budget 1"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("p2_q.malg", "check --max-length 2 --point 1,0;0,1"): (0, "a17fcf0a2f50e2d495e4f90ce263410edc183add6c62699a2facbccf60410f74"),
    ("p2_q.malg", "check --max-length 2 --point 1,0;0,2"): (1, "2ed27c1421e6928dbe13dbfdb5c59e1045b30341fe7ebe05700006bc5ac572c0"),
    ("p2_q.malg", "check --max-length 3 --point 1,0;0,1"): (0, "a17fcf0a2f50e2d495e4f90ce263410edc183add6c62699a2facbccf60410f74"),
    ("p2_q.malg", "check --max-length 3 --point 1,0;0,2"): (1, "2ed27c1421e6928dbe13dbfdb5c59e1045b30341fe7ebe05700006bc5ac572c0"),
    ("p3_q.malg", "ideal --max-length 2"): (0, "f88b70b40a5c60c2810e7b95aa8a2c61cbdcfb1099d7ed7a1e563b7443926e99"),
    ("p3_q.malg", "ideal --max-length 2 --no-inverse"): (0, "92234de4954ac75f13f6c10f176c13bb4131e8da1c927d2f3c4dc4856a28fe2a"),
    ("p3_q.malg", "ideal --max-length 2 --fixed"): (0, "e9450f6da85e687156048af4137fc09f4312a736600741fc8884f198827bfac8"),
    ("p3_q.malg", "ideal --max-length 3"): (0, "30b0fa4f91456511c64bb9ec15eae8ea811f3c8edfa5892f67cb7aa7715856e1"),
    ("p3_q.malg", "ideal --max-length 3 --no-inverse"): (0, "2509a01dbca0e181bb7d4ee17f6718c24591963291391a6bc639e70fc2b7c49f"),
    ("p3_q.malg", "ideal --max-length 3 --fixed"): (0, "b2215279b73d4507f049390fa0832b11df7f56550d3ff5a0b19fc9000f2e9b6d"),
    ("p3_q.malg", "compare --max-length 2"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("p3_q.malg", "compare --max-length 2 --no-inverse"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("p3_q.malg", "compare --max-length 2 --fixed"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("p3_q.malg", "compare --max-length 3"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("p3_q.malg", "compare --max-length 3 --no-inverse"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("p3_q.malg", "compare --max-length 3 --fixed"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("p3_q.malg", "enumerate --max-length 3"): (0, "03f7e4b7824eb2120abd491093cffad96e403526c20d3cc9a39b8014f47de7c1"),
    ("p3_q.malg", "oracle"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("p3_q.malg", "compare --max-length 2 --budget 1"): (2, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("p3_q.malg", "ideal --max-length 4"): (0, "fcb6633af3c64ff06d0b297e953100697dc1773ae31c4e8f51a5d67799aba8c4"),
    ("p3_q.malg", "ideal --max-length 4 --no-inverse"): (0, "781c1395d8a3ecda32e8b9d98f7042ab42d5e43a93be4692145626c35cdb38c1"),
    ("p3_q.malg", "ideal --max-length 4 --fixed"): (0, "81bbaac8bd371b6d15c7f2340872d867d937984bdcdbd80bf4367ee6ff6506ea"),
    ("p3_q.malg", "check --max-length 2 --point 1,0;0,1"): (0, "a17fcf0a2f50e2d495e4f90ce263410edc183add6c62699a2facbccf60410f74"),
    ("p3_q.malg", "check --max-length 2 --point 1,0;0,2"): (1, "2ed27c1421e6928dbe13dbfdb5c59e1045b30341fe7ebe05700006bc5ac572c0"),
    ("p3_q.malg", "check --max-length 5 --point 1,0;0,1"): (0, "a17fcf0a2f50e2d495e4f90ce263410edc183add6c62699a2facbccf60410f74"),
    ("p3_q.malg", "check --max-length 5 --point 1,0;0,2"): (1, "2ed27c1421e6928dbe13dbfdb5c59e1045b30341fe7ebe05700006bc5ac572c0"),
    ("p3_f5.malg", "ideal --max-length 2"): (0, "0cee40067af62893e937c736c6f1512218bb2bc2f28fefb7673c3f67669f2f90"),
    ("p3_f5.malg", "ideal --max-length 2 --no-inverse"): (0, "510a63da727861f74ee7a9d5573d33dee17376e23b66a72f1a939b4da83545f8"),
    ("p3_f5.malg", "ideal --max-length 3"): (0, "2ad202443af4b6be0d40486578fd578d9e7f8eb70bdb81ab2a976d9f456c81b0"),
    ("p3_f5.malg", "ideal --max-length 3 --no-inverse"): (0, "2ce815fd95202514b77502970e125d9627f052f345269111d06a733a2a0a5b90"),
    ("p3_f5.malg", "compare --max-length 2"): (3, "6424edfa15cb275569b633ff77ed6b96ec45cf74c8f5d67193bec0cf8ffd54fe"),
    ("p3_f5.malg", "compare --max-length 2 --no-inverse"): (3, "6424edfa15cb275569b633ff77ed6b96ec45cf74c8f5d67193bec0cf8ffd54fe"),
    ("p3_f5.malg", "compare --max-length 3"): (0, "a4bca29cfd7109702558ab267146578e7b0fc3b478d27a7c250e0e738afa27b9"),
    ("p3_f5.malg", "compare --max-length 3 --no-inverse"): (0, "a4bca29cfd7109702558ab267146578e7b0fc3b478d27a7c250e0e738afa27b9"),
    ("p3_f5.malg", "enumerate --max-length 3"): (0, "04195009323ee69a1ada2b64dd1e815ba51d155968ab5f1e6013b4f9699ae833"),
    ("p3_f5.malg", "oracle"): (0, "b52a76aa2dbfd28d059815dfcecb17987300a38c4e2df64ccf00aa1a59d8dd15"),
    ("p3_f5.malg", "compare --max-length 2 --budget 1"): (4, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("p3_f5.malg", "ideal --max-length 4"): (0, "a80a86f4c7b5357327aad8027d244396950d0ea6a1276a8637e57c3bd75ec031"),
    ("p3_f5.malg", "ideal --max-length 4 --no-inverse"): (0, "d20fe82319314de7c70dabbd2d3666b4f72ad47b6309d98198dddb3026d0da5b"),
    ("p3_f5.malg", "compare --max-length 4"): (0, "a4bca29cfd7109702558ab267146578e7b0fc3b478d27a7c250e0e738afa27b9"),
    ("p3_f5.malg", "check --max-length 2 --point 1"): (0, "a17fcf0a2f50e2d495e4f90ce263410edc183add6c62699a2facbccf60410f74"),
    ("p3_f5.malg", "check --max-length 2 --point 2"): (0, "a17fcf0a2f50e2d495e4f90ce263410edc183add6c62699a2facbccf60410f74"),
    ("p3_f5.malg", "check --max-length 5 --point 1"): (0, "a17fcf0a2f50e2d495e4f90ce263410edc183add6c62699a2facbccf60410f74"),
    ("p3_f5.malg", "check --max-length 5 --point 2"): (1, "2ed27c1421e6928dbe13dbfdb5c59e1045b30341fe7ebe05700006bc5ac572c0"),
    ("pv_f3.malg", "ideal --max-length 2"): (0, "c9b1baf91816ba0335e7ed80f643bce4ec408cd07b4eadfe910c9e7041348c88"),
    ("pv_f3.malg", "ideal --max-length 2 --no-inverse"): (0, "bee7c6d12f24c16a856436e058b408eb75e67dc316a26e1a6100a258c39bfb82"),
    ("pv_f3.malg", "ideal --max-length 2 --graded"): (0, "e1f1056214438b866c0cedb46565bfbb7f80b7a382679db7d92369f6b8658367"),
    ("pv_f3.malg", "ideal --max-length 2 --fixed"): (0, "67172dfadf00b7e53be32a0bf7e46dac77bb19c4e5933493b7613e199a6a8960"),
    ("pv_f3.malg", "ideal --max-length 3"): (0, "48ca97c0c49e5204c1af135794d72cb43f454be0c57d711f59b0bf0697cc032f"),
    ("pv_f3.malg", "ideal --max-length 3 --no-inverse"): (0, "9d9bd3eaab14db2d2fc467d1a396e8fa4ac269f6704d062640257fa5a6a9dbcf"),
    ("pv_f3.malg", "ideal --max-length 3 --graded"): (0, "2102a5b0c4d012ff2842656cbe8a9c41347c0ca5b1523dafcb429bc794e28ad2"),
    ("pv_f3.malg", "ideal --max-length 3 --fixed"): (0, "efa37e5249335959525802805c8ce8a0f2aca8b662b488f021e881787d2f2e44"),
    ("pv_f3.malg", "compare --max-length 2"): (0, "b756607d33515a4899e0f5c03386034db1b6bb5a7203e76d1e04551035685c7a"),
    ("pv_f3.malg", "compare --max-length 2 --no-inverse"): (0, "b756607d33515a4899e0f5c03386034db1b6bb5a7203e76d1e04551035685c7a"),
    ("pv_f3.malg", "compare --max-length 2 --graded"): (0, "b756607d33515a4899e0f5c03386034db1b6bb5a7203e76d1e04551035685c7a"),
    ("pv_f3.malg", "compare --max-length 2 --fixed"): (0, "b756607d33515a4899e0f5c03386034db1b6bb5a7203e76d1e04551035685c7a"),
    ("pv_f3.malg", "compare --max-length 3"): (0, "b756607d33515a4899e0f5c03386034db1b6bb5a7203e76d1e04551035685c7a"),
    ("pv_f3.malg", "compare --max-length 3 --no-inverse"): (0, "b756607d33515a4899e0f5c03386034db1b6bb5a7203e76d1e04551035685c7a"),
    ("pv_f3.malg", "compare --max-length 3 --graded"): (0, "b756607d33515a4899e0f5c03386034db1b6bb5a7203e76d1e04551035685c7a"),
    ("pv_f3.malg", "compare --max-length 3 --fixed"): (0, "b756607d33515a4899e0f5c03386034db1b6bb5a7203e76d1e04551035685c7a"),
    ("pv_f3.malg", "enumerate --max-length 3"): (0, "23fbbe63f03df18a9815a60ae1ea45ee15a3dfc8c9a05d6eb00b728003b1ba57"),
    ("pv_f3.malg", "oracle"): (0, "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865"),
    ("pv_f3.malg", "compare --max-length 2 --budget 1"): (4, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("pv_f3.malg", "check --max-length 2 --point 1"): (0, "a17fcf0a2f50e2d495e4f90ce263410edc183add6c62699a2facbccf60410f74"),
    ("pv_f3.malg", "check --max-length 2 --point 2"): (1, "2ed27c1421e6928dbe13dbfdb5c59e1045b30341fe7ebe05700006bc5ac572c0"),
    ("pv_f3.malg", "check --max-length 3 --point 1"): (0, "a17fcf0a2f50e2d495e4f90ce263410edc183add6c62699a2facbccf60410f74"),
    ("pv_f3.malg", "check --max-length 3 --point 2"): (1, "2ed27c1421e6928dbe13dbfdb5c59e1045b30341fe7ebe05700006bc5ac572c0"),
    ("pv_f5.malg", "ideal --max-length 2"): (0, "ae72b5e8a2ad3cd616c32cda71a66de2162da5e44516aa520861b4799e23a10c"),
    ("pv_f5.malg", "ideal --max-length 2 --no-inverse"): (0, "4372956c0fd16b360d83e100f4b62b596dc430e559dd900400b74b01b5377298"),
    ("pv_f5.malg", "ideal --max-length 2 --graded"): (0, "8103e79ea30823446b3f76dd698601e6e9493d3570dce4779a8c607608e52922"),
    ("pv_f5.malg", "ideal --max-length 2 --fixed"): (0, "592161e9d29d915caf19498b66f3e97f9b9e0d89f6fc4d50b4f2b5a93f80804f"),
    ("pv_f5.malg", "ideal --max-length 3"): (0, "b9f4022f69c573d254a9c44fbd7974ba52c0d99c23d94dbc5c95d6b2eedc3305"),
    ("pv_f5.malg", "ideal --max-length 3 --no-inverse"): (0, "fdea8d04edf8d1d4ce33dfdbb021fd07d5c86d30df12df8f16cabc76fdbf9bca"),
    ("pv_f5.malg", "ideal --max-length 3 --graded"): (0, "45d94e3301c7571c0b20cb1bfcec67e2ddb801cd533fcc907d85438893f8b740"),
    ("pv_f5.malg", "ideal --max-length 3 --fixed"): (0, "e459ea61ca536e7e0bfb6df089e8405125fe169743bb1f2dffedcd09197042d7"),
    ("pv_f5.malg", "compare --max-length 2"): (0, "b756607d33515a4899e0f5c03386034db1b6bb5a7203e76d1e04551035685c7a"),
    ("pv_f5.malg", "compare --max-length 2 --no-inverse"): (0, "b756607d33515a4899e0f5c03386034db1b6bb5a7203e76d1e04551035685c7a"),
    ("pv_f5.malg", "compare --max-length 2 --graded"): (0, "b756607d33515a4899e0f5c03386034db1b6bb5a7203e76d1e04551035685c7a"),
    ("pv_f5.malg", "compare --max-length 2 --fixed"): (0, "b756607d33515a4899e0f5c03386034db1b6bb5a7203e76d1e04551035685c7a"),
    ("pv_f5.malg", "compare --max-length 3"): (0, "b756607d33515a4899e0f5c03386034db1b6bb5a7203e76d1e04551035685c7a"),
    ("pv_f5.malg", "compare --max-length 3 --no-inverse"): (0, "b756607d33515a4899e0f5c03386034db1b6bb5a7203e76d1e04551035685c7a"),
    ("pv_f5.malg", "compare --max-length 3 --graded"): (0, "b756607d33515a4899e0f5c03386034db1b6bb5a7203e76d1e04551035685c7a"),
    ("pv_f5.malg", "compare --max-length 3 --fixed"): (0, "b756607d33515a4899e0f5c03386034db1b6bb5a7203e76d1e04551035685c7a"),
    ("pv_f5.malg", "enumerate --max-length 3"): (0, "23fbbe63f03df18a9815a60ae1ea45ee15a3dfc8c9a05d6eb00b728003b1ba57"),
    ("pv_f5.malg", "oracle"): (0, "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865"),
    ("pv_f5.malg", "compare --max-length 2 --budget 1"): (4, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("pv_f5.malg", "check --max-length 2 --point 1"): (0, "a17fcf0a2f50e2d495e4f90ce263410edc183add6c62699a2facbccf60410f74"),
    ("pv_f5.malg", "check --max-length 2 --point 2"): (1, "2ed27c1421e6928dbe13dbfdb5c59e1045b30341fe7ebe05700006bc5ac572c0"),
    ("pv_f5.malg", "check --max-length 3 --point 1"): (0, "a17fcf0a2f50e2d495e4f90ce263410edc183add6c62699a2facbccf60410f74"),
    ("pv_f5.malg", "check --max-length 3 --point 2"): (1, "2ed27c1421e6928dbe13dbfdb5c59e1045b30341fe7ebe05700006bc5ac572c0"),
}


def test_cli_output_pinned():
    runs = [(name, " ".join(argv), run_pin(name, argv)) for name, argv in pin_runs()]
    assert {(name, args) for name, args, _ in runs} == set(CLI_PINS)
    wrong = [(name, args, got, CLI_PINS[(name, args)])
             for name, args, got in runs if got != CLI_PINS[(name, args)]]
    assert not wrong
