"""sha256 digests of the CSV output of the exact commands (`limits`,
`triangle`, `phi`) and of `empirical` runs, each recorded from an earlier
version of the program whose route it pins.

`tests/test_cli.py` checks both tables in-process.  Run as a script,
`PYTHONPATH=src python tests/csv_digests.py` runs every command as
`python -m littlewood ... --format csv` and compares the bytes, with no
dependency beyond the standard library.  It also runs each of `REFUSALS`,
which must exit 1 with a v1 error record and nothing on stderr.  It exits 1
on any mismatch.
"""
import hashlib
import json
import subprocess
import sys

PINNED_CSV_DIGESTS = [
    # recorded before the integer Eulerian rows and the cached block splines
    # replaced the alternating sums and the whole-support spline products
    (("limits", "--family", "fekete", "--qmax", "64"),
     "f4a60d0cf273ce0983c6f22ebaac0a6f0455b3ec3dc93a760a8871f5a0b4eae9"),
    (("limits", "--family", "galois", "--qmax", "64"),
     "fcefe214b495dc5e2f9acb6b57f19d86983b8f945dbb0407fd5d174a0d4b389e"),
    (("triangle", "--family", "fekete", "--rows", "16"),
     "ea6a3841d29125cb763198b746098b19966ee57a8e880d63a821fa51950c89cf"),
    (("triangle", "--family", "galois", "--rows", "16"),
     "58dfe1a11062926ffdec28dd77234ed74fd8e4119ba45e900a6d981faec5f845"),
    (("phi", "--q", "6", "--pieces"),
     "0a5bdca371b9ef28a859213e4fe1105323e52db24043f3d91cc850278e2427f5"),
    (("phi", "--q", "6", "--min"),
     "e76ebcfaea513c4e2305aed36e35ae5127f813aaf42a1e95885c64f82de37cd4"),
    # recorded from the Eulerian-spline route, before interpolation of the
    # exponential-formula evaluator replaced it
    (("phi", "--q", "1", "--pieces"),
     "9793ad05c3688643463038a983416d1a4c0500ba3b894b5fecd17d3775316c05"),
    (("phi", "--q", "2", "--pieces"),
     "a1de0a0256c2ff8ec013291d6e89341e36e62c0862690da4e073d20b1fef20d1"),
    (("phi", "--q", "3", "--pieces"),
     "f87125aeb453b33eaf286c15c1f5f4e82352ab5317b203fe625e38d09883cbc5"),
    (("phi", "--q", "4", "--pieces"),
     "4c71cb4ecd0b21833df44402fe454a4244b1da8a094814316a5060c1b5f8876a"),
    (("phi", "--q", "5", "--pieces"),
     "e2ce6386b028d5767794849107170fa4b0266dfb77ce26c6d4b83c27dfdfba8f"),
    (("phi", "--q", "2", "--min"),
     "b69ee2a21e495d12c0b5a1bce6fcd171d00d112d37ce9b4ca20ecf2d3321b0e5"),
    (("phi", "--q", "3", "--min"),
     "c16ed0b7a412b0f3d8af7295b737b961cb9eae896fb8401f3f2f152143b608d8"),
    (("phi", "--q", "4", "--min"),
     "47ffd92b4cf149abdfcdd2cdac8435c3160fd7b1b5b6bf931b0ffa62a6c6befd"),
    (("phi", "--q", "5", "--min"),
     "56a35b8639aee350ba38f8d00cfbb0e4e5660bdddf86b688df01052937471b23"),
    # recorded from the even-block-profile sum, before the exponential
    # formula replaced it
    (("phi", "--q", "5", "--eval", "3/7"),
     "5f75e1ecab44ec5eb90dda1620de030c70acd881dbc1c894b7291bbed8587209"),
    (("phi", "--q", "7", "--eval", "1/3"),
     "3d00ec53a5a57520b0d487614b489fcbce66fb831b44bccd5b0bdf92ea86f6c9"),
    (("phi", "--q", "7", "--eval", "2/7"),
     "a141324dad572be386fabfa2928237f49d5c124d16dff58bfebb7aac19b061a6"),
    (("phi", "--q", "7", "--eval", "-1/5"),
     "9e33aaeaf75e10abdd9c76f7ef556b4ada488b331a2fd36bea1b2935c5911565"),
    (("phi", "--q", "8", "--eval", "1/4"),
     "49a5796453b00c5dee921d9c35c452e8bb249f1246aed2bf57e123e9ad030e97"),
    (("phi", "--q", "8", "--eval", "1/3"),
     "d2d027254c4383abbf2181eeded31555923cfb4eb253bd30cc0d46d9ccfb9163"),
    (("phi", "--q", "8", "--eval", "3/7"),
     "ebb94454b932603374cf0a818e3855f7f28ad15e3e8571f1a243cac864d31d22"),
    (("phi", "--q", "8", "--eval", "-5/12"),
     "a46771d3e79a568bbaa2a2108647301c8457e73ba91dd1bee8c67e68dfceba9e"),
    # recorded from the coefficient-form y-recursion, with its q <= 64 cap
    # lifted, before the recursion was evaluated at integer nodes
    (("limits", "--family", "fekete", "--qmax", "128"),
     "f840a2175f14302f5e801fc7bbaadf6f18ae4bdcd43776daae760cdc4481e965"),
    (("limits", "--family", "galois", "--qmax", "128"),
     "63718f9b915eed97c7e95aaa0ec1cb775e7bf726670bdfede170f1b681a34899"),
]


def _sweep(*head: str, primes: tuple[int, ...]) -> tuple[str, ...]:
    return (*head, *(arg for p in primes for arg in ("--p", str(p))))


# the shapes of the benchmark's `norms` jobs, recorded from the numpy NTT
# engine and the numpy Galois doubling pass, before Kronecker substitution
# in decimal and the m-sequence recurrence replaced them
NORM_CSV_DIGESTS = [
    (("empirical", "--family", "fekete", "--q", "2", "--p", "31601"),
     "b0d6fe89a7bee01b6ecb3d87b8daff42f7e8d780e3083621bcbe65b3e6159a83"),
    (("empirical", "--family", "fekete", "--q", "3", "--p", "10709"),
     "aa3d083778cf116249e1d50e41ee06bbdc466cdf3059bdd4d63a08fedb2c95fc"),
    (("empirical", "--family", "shifted", "--q", "2", "--p", "9949",
      "--shift-ratio", "1/4"),
     "d85adef8b051375180402af56eab491c7a85be23e6fb3eb27910fb27e1f72111"),
    (("empirical", "--family", "galois", "--q", "2", "--k", "16"),
     "f303bbdc475deabc0bf1cc2a688f7c039cb4bfc38e9b09056aab645bc9e3d4da"),
    (("empirical", "--family", "galois", "--q", "1", "--k", "20"),
     "4b84c90269a352a43f59a916409d7c36e2dae488836dccb08865312a99518d51"),
    (_sweep("empirical", "--family", "shifted", "--q", "4", "--shift", "2",
            primes=(107, 233, 383, 541, 673, 853, 1013, 1193)),
     "6bf00d4458986cb37fe3a1614d36a21070b3f4166a1397e689bbafa526258e08"),
    (_sweep("empirical", "--family", "fekete", "--q", "2",
            primes=(3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                    59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109,
                    113, 127)),
     "6553256e3094f7f4e23828b2fcf4876b31acf6d4da8ccb6657be319bbd09cee7"),
]


# one refused request per library rule; each is refused before any work
REFUSALS = [
    ("limits", "--family", "fekete", "--qmax", "129"),
    ("triangle", "--family", "fekete", "--rows", "129"),
    ("phi", "--q", "7", "--min"),
    ("phi", "--q", "3", "--min", "--eps", "0"),
    ("phi", "--q", "7", "--pieces"),
    ("phi", "--q", "17", "--eval", "1/4"),
    ("empirical", "--family", "galois", "--q", "2", "--k", "21"),
]


def _is_refusal(proc: subprocess.CompletedProcess, command: str) -> bool:
    try:
        record = json.loads(proc.stdout)
    except ValueError:
        return False
    return (
        proc.returncode == 1
        and not proc.stderr
        and isinstance(record, dict)
        and sorted(record) == ["command", "error", "schema"]
        and record["schema"] == "v1"
        and record["command"] == command
        and isinstance(record["error"], str)
    )


def main() -> int:
    failures = 0
    for argv, digest in PINNED_CSV_DIGESTS + NORM_CSV_DIGESTS:
        proc = subprocess.run(
            [sys.executable, "-m", "littlewood", *argv, "--format", "csv"],
            capture_output=True,
        )
        ok = proc.returncode == 0 and hashlib.sha256(proc.stdout).hexdigest() == digest
        print("ok  " if ok else "FAIL", " ".join(argv))
        if not ok:
            failures += 1
            sys.stderr.write(proc.stderr.decode())
    for argv in REFUSALS:
        proc = subprocess.run(
            [sys.executable, "-m", "littlewood", *argv], capture_output=True
        )
        ok = _is_refusal(proc, argv[0])
        print("ok  " if ok else "FAIL", " ".join(argv), "(refused)")
        if not ok:
            failures += 1
            sys.stderr.write(proc.stdout.decode() + proc.stderr.decode())
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
