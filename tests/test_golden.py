"""Golden bytes: every output file of small fixed runs, pinned by SHA-256.

One fixed CLI run per experiment plus one ingest, and two runs on groups
above the table cap (sampled density on sl2:17 and psl2:23, exact trend
on psl2:23), which multiply through the native matrix product.  The
digests were recorded before the experiment registry replaced the
per-experiment wiring, and those of the two matrix runs before the rank
table replaced the sorted-carrier lookup.  Three more runs cover the
boxed torus DP (d=3, and d=2 past the wrap step) and the exact group-walk
convolution on psl2:13; their digests were recorded before the windowed DP
and the gather convolution replaced the full-torus rolls and the list
loops.  Three walk-gcd runs more (a long d = 1 walk, 16 moduli in d = 3,
and a draw of 2 * 10^7 steps, then two sampling batches) were recorded
before the narrow endpoint draws, the compact box and the shared gather
step of the small tori.  Two trend runs (sampled rows with an unbuildable
group, and exact rows with a budget error) were recorded before the trend
rows moved from `measure` into the harness's shared cell routine.  A
150-step mixing run on psl2:13, past the step where the walk counts turn
from int64 to python ints, was recorded before that switch.  Three runs
of words in at most one generator (exact and sampled density at d = 1,
with empty words among them, and a rank-2 trend word in x2 only) were
recorded before exact laws of such words were counted as power maps.  A
refactor that changes any written byte fails here.
"""

import hashlib

import pytest

from wordlab.cli import main

# The Cayley table of the dihedral group of order 8 (center of order 2).
D4_TABLE = """8
0 1 2 3 4 5 6 7
1 2 3 0 5 6 7 4
2 3 0 1 6 7 4 5
3 0 1 2 7 4 5 6
4 7 6 5 0 3 2 1
5 4 7 6 1 0 3 2
6 5 4 7 2 1 0 3
7 6 5 4 3 2 1 0
"""

GOLDEN = {
    "density": (
        ["density", "--seed", "5", "--d", "2", "--n", "30", "--words", "6",
         "--groups", "symmetric:3,cyclic:6,alternating:4", "--gcd-cap", "6"],
        {
            "report.json": "8025807d2028b03e3dfe0ffc32e4b432d50f8b26e25b3abb41aa24d8ea656725",
            "words.csv": "ec9bff3960c8bfd453a712352983d880db36be514cca27a782c731815904cbef",
        },
    ),
    "trend": (
        ["trend", "--seed", "2", "--word", "x1 x1", "--groups", "psl2:5,cyclic:5,dihedral:4"],
        {
            "report.json": "51be4da6f96c2c315b8a4d82bcaf2d2ec042fed054370aadb19bbdc3e339c4d5",
            "trend.csv": "c990958f1006eaebf5fa503d2d178606683a22db38f6a06928e32d924581188a",
        },
    ),
    # d = 1: the words X1^4, x1^6, X1^2, x1^2 and two empty words
    "density-powers": (
        ["density", "--seed", "7", "--d", "1", "--n", "6", "--words", "6",
         "--groups", "symmetric:7,sl2:17,alternating:5", "--gcd-cap", "6"],
        {
            "report.json": "08b45fdc66dbdb30af91386904aef620da75e290ab96a580bbff3e3a58f7053b",
            "words.csv": "7b57444d698c2c741ef8f33646031798190dd4e0f566a7ad3e7495dd4e21e1b0",
        },
    ),
    "density-powers-sampled": (
        ["density", "--seed", "7", "--d", "1", "--n", "6", "--words", "6",
         "--groups", "symmetric:7,sl2:17,alternating:5", "--gcd-cap", "6",
         "--mode", "sampled", "--samples", "400"],
        {
            "report.json": "706565e61387647beff3e4ea151fab23fd7c6f020585128d52274c1bd3d28c1d",
            "words.csv": "07961d3d702e4340fb98432f6594f90cebaf4dcfd97b8487f796e2320fc85536",
        },
    ),
    "density-matrix": (
        ["density", "--seed", "7", "--d", "2", "--n", "12", "--words", "4",
         "--groups", "sl2:17,psl2:23", "--mode", "sampled", "--samples", "300",
         "--gcd-cap", "6"],
        {
            "report.json": "82353c03e05bb1e64d837186877d089c21bc98a95f9e16f39eb1b568799ceb34",
            "words.csv": "eef0e1f8d7e9b6d0ff485f3a32b35e00badf7512ac6cb56779731b80bc01a003",
        },
    ),
    # rank 2 but only x2 occurs: the counts carry the factor |G|^(d - 1)
    "trend-one-generator": (
        ["trend", "--seed", "4", "--word", "X2 X2 X2", "--groups", "symmetric:7,sl2:17,cyclic:5"],
        {
            "report.json": "b6a46d4129596903a6f22a49269631e5b9c37e7fa2d63ffcbc919fd464516cf6",
            "trend.csv": "97965e6a38f02e00d1a7095b1c8baa264777dad1d952295ea03a36c2201caae2",
        },
    ),
    "trend-matrix": (
        ["trend", "--seed", "3", "--word", "x1 x2 X1 X2", "--groups", "psl2:23"],
        {
            "report.json": "3b133a0237c29410da820e208367b87f9b8d9a8d7d27dd43dfde8bc4986adf2c",
            "trend.csv": "b568f77b78c9e1d0f6d5844be7fdc016b0b1fac03f599be0a12075e50ce31de1",
        },
    ),
    # sampled rows on substreams (j) of their input index j (sl2:17 is
    # input 0 but row 1), and a row whose group cannot be built
    "trend-sampled": (
        ["trend", "--seed", "6", "--word", "x1 x2 X1 X2",
         "--groups", "sl2:17,nosuch:3,cyclic:4", "--mode", "sampled", "--samples", "500"],
        {
            "report.json": "4452151130eddb403841e0392db0f473ebd650bd28a103ec3e9a12feb63f1a2a",
            "trend.csv": "baf660c1615c5bdd7c07b175e356e644b26c6eacaaa395634a59ca1b7c4eac15",
        },
    ),
    # an exact row over the tuple budget and an unbuildable group, both
    # sorted after the rows by order
    "trend-errors": (
        ["trend", "--seed", "2", "--word", "x1 x2 X1 X2",
         "--groups", "symmetric:9,cyclic:4,nosuch:3"],
        {
            "report.json": "a11b4b7e4671f35c18b819e73e5bf42419f00c5b47467c51148c7aab2a8c19cd",
            "trend.csv": "d805bee11d448d89fff449d0339ffed30093edfc944f8caa06cc56e699f9df60",
        },
    ),
    "walk-gcd": (
        ["walk-gcd", "--seed", "4", "--d", "2", "--n", "30", "--samples", "2000",
         "--gcd-cap", "5"],
        {
            "report.json": "852a6e32078db856c0dc25bc18d54a4f0313908cfc0bf44c1c1a6f4d9fe8692e",
            "gcd_law.csv": "228033f9ef64e767122b1ab691c45e57bfb65a6371eab2765b4fcd500a35d138",
            "mod_laws.csv": "44ad74b431d27ad32450bec6d8e07288b60c0bbdb6603fb9c84087494a463fd5",
        },
    ),
    "walk-gcd-d3": (
        ["walk-gcd", "--seed", "4", "--d", "3", "--n", "20", "--gcd-cap", "8",
         "--samples", "3000"],
        {
            "report.json": "c0bec13495f848c1a99ad75b93de3b96421384417f43fd54856d5a3158b887c8",
            "gcd_law.csv": "89e22be0e8d6cddd041f6fc98cac618a599860bbdb4d40cb7fd4eee7706f8c3f",
            "mod_laws.csv": "2bb72cdd95c34fd7fb60e7ea49e2e3b1002c2f615c14d0d8d8080dabca007e90",
        },
    ),
    # box radius 83 < n = 100: the torus DP runs past the step where the
    # reachable box meets the edge and wraps around
    "walk-gcd-wrap": (
        ["walk-gcd", "--seed", "4", "--d", "2", "--n", "100", "--gcd-cap", "8",
         "--samples", "3000"],
        {
            "report.json": "c5c5baf3b59cb34cba604fcf87c08a5287e3bb09e3f5b9a891582b2f8e44f690",
            "gcd_law.csv": "d61fadcc08a3b0051928c0c895104aa994e3645118c15e857259b8c8120f2c31",
            "mod_laws.csv": "90b9b6ab265114e12367c8b45f52c93338b9f2d56745de713802dd6ca4939a89",
        },
    ),
    # d = 1, n = 20000: a long walk whose boxed torus (side 2139) wraps at
    # step 1069 and runs the rest of the steps on the whole torus
    "walk-gcd-d1-long": (
        ["walk-gcd", "--seed", "4", "--d", "1", "--n", "20000", "--samples", "10",
         "--gcd-cap", "8"],
        {
            "report.json": "14634e0491dae7ed233a9dff5f2e3cd3a2e1873671db04d9844f97de26a884b6",
            "gcd_law.csv": "1261a1e39851197b322bfd363a230a629cbbe1453ee2b1de18672aad5d6c0b9f",
            "mod_laws.csv": "bc39909a80a0767fa9948dbb867f6a9e5d61442da1a7973dd9d96e8e97dfd0ee",
        },
    ),
    # every prime power up to 30 as a modulus: tori of side 2 to 29, which
    # meet their edge at steps 0 to 14 of the 15
    "walk-gcd-d3-moduli": (
        ["walk-gcd", "--seed", "4", "--d", "3", "--n", "15", "--gcd-cap", "30",
         "--samples", "2000"],
        {
            "report.json": "432ec245c997de9766648d02849791a6fdfd650e57cfd150d4d8abc09ba0fc1c",
            "gcd_law.csv": "e5d71d366e62705816db46936b1eabdded20909052f0e93f0c2c3757d59c3859",
            "mod_laws.csv": "851df2e7cfb4f7809844f342c5417892d79190ea89c38ca1b26fe37c8b2aaf93",
        },
    ),
    # 2 * 10^7 step draws in 77 sampling blocks of 655 rows (the last one
    # short): the endpoints hold only if the draws run on across blocks
    "walk-gcd-two-batches": (
        ["walk-gcd", "--seed", "4", "--d", "2", "--n", "400", "--samples", "50000",
         "--gcd-cap", "8"],
        {
            "report.json": "d0b7abd2ea24cff024c5e62cffc48f5f113ffe057284be49b0708f7eea68cc88",
            "gcd_law.csv": "61fa28b00182e9a120f6ac8c93219b741076105e4e1ea864b2d770c85afbe024",
            "mod_laws.csv": "10165137609ee7bafc899ae0baa50676be4042a85cedd845c6590964d5776894",
        },
    ),
    "mixing": (
        ["mixing", "--seed", "9", "--group", "symmetric:3", "--cycles", "(1 2);(1 3)",
         "--n", "20"],
        {
            "report.json": "7ac7f4fdc1f9dab11649fd92281729fea96fb19e87a1d2f494a5784378c8c488",
            "profile.csv": "5a3aab1abc7c1763817fa14ac45d4c22479e0492e1a7296ae47d0d9704fae665",
            "witness.json": "3175c3266a49ebc4312d845bc7622745be18365bab7ca4ad614080bf717aa2b5",
        },
    ),
    "mixing-psl": (
        ["mixing", "--seed", "9", "--group", "psl2:13", "--steps", "1,2", "--n", "40"],
        {
            "report.json": "695477f3cf546f47b6f08c080096efcba5914423227c8f78faf27ef166435a96",
            "profile.csv": "c762f1a0939c2da2b825327d96481a46fb72a79b182f818620dadc9e952d34ea",
        },
    ),
    # counts held in int64 for steps 1-51 and as python ints from step 52
    "mixing-psl-long": (
        ["mixing", "--seed", "9", "--group", "psl2:13", "--steps", "1,2", "--n", "150"],
        {
            "report.json": "ac8a104cb5c99e923ae12958e355530bb37f6c166f3b9ae949f6330727371faa",
            "profile.csv": "65ef7161f4418347e7a07df709ddbe0fe0e049497b7c1618dcae97fdaaafd564",
        },
    ),
    "generation": (
        ["generation", "--seed", "1", "--group", "alternating:5", "--d", "2"],
        {
            "report.json": "c05b617d3dca61bfae278e50c73245ae34458b52830cc7c9f58cec6e19cfbacb",
        },
    ),
    "ingest": (
        ["ingest", "d4.txt"],
        {
            "ingest.json": "5da1ca6eaed92cc186c6ee39d0774ce66ebc75a7c718c61124fb1f292944f83a",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_bytes_match_golden_digests(name, tmp_path, monkeypatch):
    # relative paths, since the ingest summary echoes its source path
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d4.txt").write_text(D4_TABLE)
    argv, digests = GOLDEN[name]
    assert main(argv + ["--out", "out"]) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in (tmp_path / "out").iterdir()}
    assert written == digests


def test_golden_digests_hold_when_every_run_repeats_in_one_process(tmp_path, monkeypatch):
    # the CLI parser is built once per process and shared by every call
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d4.txt").write_text(D4_TABLE)
    for pass_index, names in enumerate((sorted(GOLDEN), sorted(GOLDEN, reverse=True))):
        for name in names:
            argv, digests = GOLDEN[name]
            out = tmp_path / f"out-{pass_index}-{name}"
            assert main(argv + ["--out", str(out.name)]) == 0
            written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                       for p in out.iterdir()}
            assert written == digests, (pass_index, name)
