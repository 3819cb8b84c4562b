"""Exact stdout bytes, exit codes and error lines of the command line, pinned.

Each case runs `cli.main` in-process and compares the sha256 of stdout and
the exit code with values recorded before the pipeline was restructured,
so any refactor of the stage chain must leave every subcommand's output
byte for byte unchanged.
"""

import hashlib
import json

import pytest

from fanocount.cli import main

QUARTIC = {"name": "quartic", "ambient": {"type": "projective", "n": 4}, "degrees": [4]}
QUARTIC_PATH = "<quartic config>"

# Threefolds of index r >= 2, whose series are regraded by -K = r H: the
# configs of tests/test_pipeline.py's closed-form check.
INDEX_TWO_PLUS = {
    "P3": {"ambient": {"type": "projective", "n": 3}, "degrees": []},
    "B3": {"ambient": {"type": "projective", "n": 4}, "degrees": [3]},
    "B4": {"ambient": {"type": "projective", "n": 5}, "degrees": [2, 2]},
    "B5": {"ambient": {"type": "grassmannian", "r": 2, "n": 5}, "degrees": [1, 1, 1]},
}
# Hyperplane sections of G(r, 2r) for r = 3..7, whose iseries runs the residue
# sum over r roots.
GRASSMANNIAN_JOBS = {
    "G36": ({"ambient": {"type": "grassmannian", "r": 3, "n": 6}, "degrees": [1]}, "13"),
    "G48": ({"ambient": {"type": "grassmannian", "r": 4, "n": 8}, "degrees": [1]}, "17"),
    "G510": ({"ambient": {"type": "grassmannian", "r": 5, "n": 10}, "degrees": [1]}, "5"),
    "G612": ({"ambient": {"type": "grassmannian", "r": 6, "n": 12}, "degrees": [1]}, "13"),
    "G714": ({"ambient": {"type": "grassmannian", "r": 7, "n": 14}, "degrees": [1]}, "5"),
}
CONFIGS = (
    {QUARTIC_PATH: QUARTIC}
    | {f"<{name} config>": c for name, c in INDEX_TWO_PLUS.items()}
    | {f"<{name} config>": c for name, (c, _) in GRASSMANNIAN_JOBS.items()}
)

SUBCOMMANDS = ("iseries", "lefschetz", "matrix", "periods", "invert", "d3", "modularity", "report")

CASES = [
    (f"{cmd}-{name}-{fmt}", [cmd, "--variety", name, "--format", fmt])
    for cmd in SUBCOMMANDS
    for name in ("V10", "V14")
    for fmt in ("text", "json")
] + [
    ("d3-V14-lambda4", ["d3", "--variety", "V14", "--lambda", "4"]),
    ("iseries-V10-order3", ["iseries", "--variety", "V10", "--order", "3"]),
    ("lefschetz-V10-order3", ["lefschetz", "--variety", "V10", "--order", "3"]),
    ("d3-V10-order3", ["d3", "--variety", "V10", "--order", "3"]),
    ("modularity-V10-order9", ["modularity", "--variety", "V10", "--order", "9"]),
    ("invert-V10-explicit", ["invert", "--variety", "V10", "--periods", "1,1,1,1,1", "--deg", "1"]),
] + [
    # d_3 = 0, so a12 comes from the d_6 relation; and a tall vector
    (f"invert-V10-{name}-{fmt}",
     ["invert", "--variety", "V10", "--periods", periods, "--deg", "1", "--format", fmt])
    for name, periods in (
        ("d3-zero", "1,0,1,1,1"),
        ("tall", "123456789012/7,-98765432109/13,5/3,271828182845/999,-314159265358/17"),
    )
    for fmt in ("text", "json")
] + [
    ("report-V10-order5", ["report", "--variety", "V10", "--order", "5"]),
    ("report-V10-order4", ["report", "--variety", "V10", "--order", "4"]),
    ("matrix-quartic-text", ["matrix", "--variety", QUARTIC_PATH]),
    ("matrix-quartic-json", ["matrix", "--variety", QUARTIC_PATH, "--format", "json"]),
    ("verify-text", ["verify"]),
    ("verify-json", ["verify", "--format", "json"]),
    ("lefschetz-V14-order13", ["lefschetz", "--variety", "V14", "--order", "13"]),
] + [
    # the deep benchmark workload's catalog items
    (f"{cmd}-{name}-order13-json", [cmd, "--variety", name, "--order", "13", "--format", "json"])
    for cmd in ("report", "modularity")
    for name in ("V10", "V14")
] + [
    (f"{cmd}-{name}-order{order}", [cmd, "--variety", f"<{name} config>", "--order", order])
    for name in INDEX_TWO_PLUS
    for cmd in ("lefschetz", "modularity", "report")
    for order in ("7", "13")
] + [
    (f"iseries-{name}-order{order}-json",
     ["iseries", "--variety", f"<{name} config>", "--order", order, "--format", "json"])
    for name, (_, order) in GRASSMANNIAN_JOBS.items()
] + [
    # the P^4 ambient of B3 through q^29, recorded from the closed form of
    # the projective series before the residue sum over one root replaced it
    (f"iseries-B3-order30-{fmt}",
     ["iseries", "--variety", "<B3 config>", "--order", "30", "--format", fmt])
    for fmt in ("text", "json")
]

# case id -> (exit code, sha256 of stdout)
PINNED = {
    "iseries-V10-text": (0, "53c3cc4d5a8b768fef6530b4c332a20146a07febcf945cd0f5603a3e11b7ea74"),
    "iseries-V10-json": (0, "1d2cf67089182b1cb975ec3196b9e90d2ede8a9b18afb79f291bfa039c6d2754"),
    "iseries-V14-text": (0, "d7119a19844399acfd1c0cd5cb0ee13f9404b86ff754b92c1b494aae4dd0e301"),
    "iseries-V14-json": (0, "4247d2240e91e35ca663bcb3efc8b2684f37c6a87cea1eacb8b964e7df1102ef"),
    "lefschetz-V10-text": (0, "fb8ebce2ac845762a3f49fc4c1188ac2f12676fb8ac50d0be25467845bfd4583"),
    "lefschetz-V10-json": (0, "05ba4b2688ed32604354f0b1a89e4785ab5c222ff1034dbf4a8a6c90e6abacc2"),
    "lefschetz-V14-text": (0, "59fe04aab97a6212b516aa815321e87d3db735f0076a387626f8004d7f50affd"),
    "lefschetz-V14-json": (0, "92a3d73f07851ad789f05bf6c0639ddccfaf29795ae9ff63322695129d2a095a"),
    "matrix-V10-text": (0, "91618d2f405a19c91eab55b46f9689ccc0642caa38d02ff09818b94fde8a9218"),
    "matrix-V10-json": (0, "5bef256cac66ad5bd722cf681eb13b2e74749cc002a17b5ddd5034bbcd40c6a4"),
    "matrix-V14-text": (0, "dc5304dd527d89eb6275bca7118841eb7904e53297c15f5ead3f0810f02a281e"),
    "matrix-V14-json": (0, "827249cf08457ce25c4fba96795ceb681943dbbc3cb7575e10e5c45ff0929241"),
    "periods-V10-text": (0, "d88900a62d60a9100a62067a777957ba0f124b544ec03e59e2183f10fc9a11bc"),
    "periods-V10-json": (0, "037ec729efcca67c458bf4bf30608c3e0f4e5c0c9edf863d5c82af281e9d77a5"),
    "periods-V14-text": (0, "2fd8e6d891585728d2988e97a3957236b3666fb28eeaab379a2d358c7a15805f"),
    "periods-V14-json": (0, "5ade65ecacaa49ccf5d261aecc042493cc0383e8fb3105b9ba3b0155a597d9da"),
    "invert-V10-text": (0, "1c768fb41517a906e0c9b865201968158fa757c2e6c68cef007ef18e1d4a8fa2"),
    "invert-V10-json": (0, "7fa2f1f1f2732181b8cfa415c834002cf7cbe35158fcbee5ca1203424d5c66f6"),
    "invert-V14-text": (0, "ba5d4a1207ee82af70ca2e21fa15ec3b7777c2e4eb60d35a41a7fe24fc890585"),
    "invert-V14-json": (0, "5be429fc75c870c03d697b4cf4093ce9385f2aabe44259a8e092b8752d0ccc9c"),
    "d3-V10-text": (0, "5f806b39caff084deeba3542128c103ee8d596242b618400de9a8c94a8b4f044"),
    "d3-V10-json": (0, "7bccdbb8885231bf6059acb3711d254df810d44ef843ea3501b149f5f156c768"),
    "d3-V14-text": (0, "8e8283ceb6b41ce33b1ccfffe4591098c0451d433eac4470fd813fa9603599aa"),
    "d3-V14-json": (0, "452fe5345f92857f49a2abd9b44e57305bd51240d20431fc3b3014f5ebe2f278"),
    "modularity-V10-text": (0, "2b263e8179f87495e078e247da44d22e61f7921fea39df276d2300f361f56275"),
    "modularity-V10-json": (0, "04f977f50f2a52dd30252922e9ecfb6ccdb77278233ce12fda7b83353c291145"),
    "modularity-V14-text": (0, "77251fad3979cc7ff23c90a75a05d8a0e7e45caed6a3ff6e87ce530b31abf344"),
    "modularity-V14-json": (0, "c4c0df98789c310c68cf1fe717b9c8ccff0cd1e4797076afcdb64bc98c938bb3"),
    "report-V10-text": (0, "3a462d1a1a688aef72c9add6ca9a742f21b54b81b0289ecdd04d0cc555a96c5a"),
    "report-V10-json": (0, "521ad4fc485be8c6b7ba56ea6989af09e61316a59c18ae4bb8e3ab686b48b721"),
    "report-V14-text": (0, "0889c498774864a6a2a873a08e6e14f1de44ea15bbeb5c9792c930edf4ee64d2"),
    "report-V14-json": (0, "21c14999d442fea3a0b5c7240c8291c64409dc24222cc8415fbcde7658c1ff77"),
    "d3-V14-lambda4": (0, "f2ef90c3a03c3b92e0420ff60103c7a1fc6903ba53c8d4ca78ea7db54e09ad38"),
    "iseries-V10-order3": (0, "918696f3a239cc0d175a4b7994223dc87f2967bf252ed99f885111d8ab5084b6"),
    "lefschetz-V10-order3": (0, "b445da5f90c272ec914e167724d60d32c4fd83b95311fa2552810599b6349eba"),
    "d3-V10-order3": (0, "6f1a4b53ca297633f6e1e3ec5e6d1f15656eab5e9fda73f7418969b35c54de1c"),
    "modularity-V10-order9": (0, "128d4bd8f637687c720c9e777743864d9b3268c2e998b789edb1a80fa6f95c4f"),
    "invert-V10-explicit": (0, "b14bde77a20255bd98b54e07d09c60d21160eac10120368526295b33108fca24"),
    "invert-V10-d3-zero-text": (0, "7acf28176f5a173bc2d41f94a8e3b3ca71ad07c560b95e2e143c25adfd61971e"),
    "invert-V10-d3-zero-json": (0, "d22ce6f4cb13cfe956143c69c19655721bd4fe521485a22529271e363c7afc90"),
    "invert-V10-tall-text": (0, "1760b6a339004f0f877912e11f8b34da38bfd857c7ebe106e64d947572568e72"),
    "invert-V10-tall-json": (0, "92c36a5a45dc947758ae7b5687f3a01d633b6c13f4d4be68ff7cfaf6909ef9eb"),
    "report-V10-order5": (0, "79ae5b843e4b6321c036a6caab0acdd79ba1fdd6e510e91a9051c9c63623b329"),
    "report-V10-order4": (0, "7cede405c0aeb410f870e1a184cdc85d4663252aa319d58d270387cfa9e665af"),
    "matrix-quartic-text": (0, "6a9742b9440023530322abf6d75df6f714cb51cfa250f603fbd22e91e16716c9"),
    "matrix-quartic-json": (0, "980679372524446fb9e21cad7cbbbfbbfcb4c5f2bc750bcad1a3fc86f3440b6d"),
    "verify-text": (0, "55a2a250fd1e18b295314a50501644e2a431c1721977c4551e2e6cf72dc97d10"),
    "verify-json": (0, "f42b2fa35c0c74e9ba5958c6e9fe69f20955945236406cb9fc74f81b477b5ae1"),
    "lefschetz-V14-order13": (0, "d172ab551908d6db3a6fbabd5cdf6628f2592915f0c02fa7b4244fe58976f60d"),
    "report-V10-order13-json": (0, "e5b06c3bcaee7265b61dd100667c47bf0240f2fff4e47c650f1c7fa2626ff450"),
    "report-V14-order13-json": (0, "ad54f6a2429815c39f5d355e934abd597806605e62424365570ac95a2df4007b"),
    "modularity-V10-order13-json": (0, "3db5c4cb6ff527c501f356701af4e3dce7d319e66a77ea9c8e4e9926b4293c4e"),
    "modularity-V14-order13-json": (0, "666a68678a39718c33735f64164a5eaa5a941d0ab39e50ec76103919bd5c7996"),
    "lefschetz-P3-order7": (0, "400e740ee008c413642ac39633808ca47a49128f61a62820015e348f8361ce26"),
    "lefschetz-P3-order13": (0, "47fce1e0f2a2f3e3022af2c25d794841e1c51f7fb6cd2e0519c981cb5350bcd6"),
    "modularity-P3-order7": (0, "bdb0ffcc55f7f28389cc9a88e73b6fdb44b19ce234ad294b3bc208d398b8d119"),
    "modularity-P3-order13": (0, "1ec90de77726453dc8c4859077462a0809d77a311dc94f8472cecc617fd643c6"),
    "report-P3-order7": (0, "e65ba48a77a0dfa36b6995736f2d73b9d4fd082e12cf1e7136a6542e5671466b"),
    "report-P3-order13": (0, "e78263d9d54df0710faa6bca287c0bdc15dc63fb7559e82cbb2162e4205ec8e7"),
    "lefschetz-B3-order7": (0, "f6d341232b0f14da26fff2edd62f61eecd0c8fc23a94b11d51340d0c4ac60211"),
    "lefschetz-B3-order13": (0, "aac4a1dac6066465418c7a14130835619169ba525e23166cea6a0c84bcae7f07"),
    "modularity-B3-order7": (0, "3725df05734f95c9945a28e526d70c6f272fef144ad9c66bbcec4df602649df8"),
    "modularity-B3-order13": (0, "b6b51db32ba8a47cf639dfed58ea61fe576f5d13775ed5354a81e6a2dc2ca012"),
    "report-B3-order7": (0, "fc1db1ba116c6b135e70fb6acc5bda23f65e30250a93809c5945a9305e3b71cf"),
    "report-B3-order13": (0, "584b4da43965ab62477bea223da9db3403144be2d82c05f68c27b545b67b4baf"),
    "lefschetz-B4-order7": (0, "2990ddc662e2a464a4fb0e33119552669c4425bd3ce07185c7d352ebc7ca6e51"),
    "lefschetz-B4-order13": (0, "d5324991c184aa0848ccb69c49958fe7992a651a63aca03790769f8eedf3a900"),
    "modularity-B4-order7": (0, "cd72fe1e2ab48f66cef637cdb4dc9f7948bce453264a1927197ed68c07ed2886"),
    "modularity-B4-order13": (0, "657c8a9108f5689b28889477612df0405b44baaaba7e937d13aaf6658880b6f5"),
    "report-B4-order7": (0, "e2b9bfbf83e65a35b24e4c5ebdb2f9c71aee24191af25822d4e8de790fab4fa2"),
    "report-B4-order13": (0, "a7e60878cdbded919429f786c1b7198f2589a53b661e4facbb07d7dc4bf5595e"),
    "lefschetz-B5-order7": (0, "7cbb38cabfd8eb3fce8682ed6cf68e8ccc7e3f869e1591051027609cbaf68a54"),
    "lefschetz-B5-order13": (0, "d622ca1aa223a248f381a9e4c6f245f22ebb52dcfb183447f3f97c650fb0928c"),
    "modularity-B5-order7": (0, "698051b1c5017054b18a2327562828d9bb78c664afae865b4ba6c7a6c542df4d"),
    "modularity-B5-order13": (0, "0719a0042875ea1db9d167b3b85563b90056e78a0bb98bb4e913469af563651c"),
    "report-B5-order7": (0, "4d032826cd124e6c5fd7f59951c0c5b0ca94d1f1d4d3247007b8752441167011"),
    "report-B5-order13": (0, "5c8d37ae7eb51f12de86f75a82ca8402cc6639908670a7075854db42f1f0f51a"),
    "iseries-G36-order13-json": (0, "d3c240fa8fcc3fdc91756e4d09d31045aff7dec6b61e08998caf5acb9668c9e2"),
    "iseries-G48-order17-json": (0, "4253c143e6a5f82e856990912ed1c35fed1b0007363d9501f2bf5c0e0f550806"),
    "iseries-G510-order5-json": (0, "13060f95e9227b7c05a5189fdd8c729b0b564d1874191ef5ead2895ff14a1e48"),
    "iseries-G612-order13-json": (0, "702310aadb31030442003ae43496a7696e3ad720842262f144a4fcba3cb70904"),
    "iseries-G714-order5-json": (0, "5bf765c3b66ed14d85796478aae17f97719db705d8ee28056f59138c7a287a7f"),
    "iseries-B3-order30-text": (0, "d5cc82dec609ec271fdb8b491e4cff37e1435c073cab622b50f9d3912884b1a4"),
    "iseries-B3-order30-json": (0, "5d7a437805ebf15840a4165c9cc55926da07c1beec971426f145e61af1247b26"),
}


@pytest.mark.parametrize("case_id,argv", CASES, ids=[c for c, _ in CASES])
def test_stdout_and_exit_code_are_pinned(capsys, tmp_path, case_id, argv):
    config = tmp_path / "model.json"
    for a in argv:
        if a in CONFIGS:
            config.write_text(json.dumps(CONFIGS[a]))
    argv = [str(config) if a in CONFIGS else a for a in argv]
    code = main(argv)
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (code, digest) == PINNED[case_id]



FOURFOLD = {"ambient": {"type": "projective", "n": 5}, "degrees": [5]}
QUINTIC = {"ambient": {"type": "projective", "n": 4}, "degrees": [5]}

# case id -> (argv, the one `error:` line on stderr); a dict stands for a config file
ERROR_CASES = {
    "unknown-variety": (
        ["matrix", "--variety", "V9"],
        "error: stage config: ConfigError: 'V9' is neither a catalog name nor a config file",
    ),
    "bad-lambda": (
        ["d3", "--variety", "V10", "--lambda", "1/0"],
        "error: stage config: ConfigError: bad --lambda: Fraction(1, 0)",
    ),
    "short-periods": (
        ["invert", "--variety", "V10", "--periods", "1,2"],
        "error: stage config: ConfigError: --periods needs exactly five comma-separated rationals",
    ),
    "degenerate-periods": (
        ["invert", "--variety", "V10", "--periods", "0,0,0,0,0"],
        "error: stage solver: DegenerateLocus: discriminant vanishes at PeriodVector("
        "d2=Fraction(0, 1), d3=Fraction(0, 1), d4=Fraction(0, 1), d5=Fraction(0, 1), "
        "d6=Fraction(0, 1))",
    ),
    "fourfold-report": (
        ["report", "--variety", FOURFOLD],
        "error: stage solver: ValueError: complete intersection has dimension 4, not 3; "
        "a counting matrix needs a threefold",
    ),
    "non-fano-lefschetz": (
        ["lefschetz", "--variety", QUINTIC],
        "error: stage lefschetz: NotFano: Fano index 0 is not positive",
    ),
    "report-order-31": (
        ["report", "--variety", "V10", "--order", "31"],
        "error: stage config: ConfigError: order 31 exceeds the limit MAX_ORDER = 30",
    ),
    "order-0": (
        ["iseries", "--variety", "V10", "--order", "0"],
        "error: stage config: ConfigError: --order must be positive",
    ),
    "projective-n-0": (
        ["iseries", "--variety", {"ambient": {"type": "projective", "n": 0}, "degrees": []}],
        "error: stage config: ConfigError: field 'ambient.n' must be at least 1 for projective "
        "space, got 0",
    ),
}


@pytest.mark.parametrize("case_id", ERROR_CASES)
def test_error_lines_are_pinned(capsys, tmp_path, case_id):
    argv, line = ERROR_CASES[case_id]
    config = tmp_path / "model.json"
    for a in argv:
        if isinstance(a, dict):
            config.write_text(json.dumps(a))
    main([str(config) if isinstance(a, dict) else a for a in argv])
    errors = [x for x in capsys.readouterr().err.splitlines() if x.startswith("error:")]
    assert errors == [line]
