"""Golden digests: learn + compare on the tiny config must reproduce every CSV.

A change that alters any output byte fails here. If a change is meant to
alter outputs, update the digests in the same change and explain the diff.
"""

import dataclasses
import hashlib

from adamls import cli
from adamls import config as cfgmod

GOLDEN_SHA256 = {
    "compare/adamls/events.csv": "39913099dc89a2c199716f838e8bee65ff64a83d8f10eac48442cc84bb71d0e3",
    "compare/adamls/results.csv": "dc8f8750dd87b3dce3cfb76dd5c5c85dcdfd8c296af0a0dea89f7399946d029b",
    "compare/naive/events.csv": "b370f3efefbcd8ef7971aaa6c8ea125b00e6f994051847d5dea0276dbf6ce66d",
    "compare/naive/results.csv": "b73163cf95ed8266207baff8b90fd94e7c86e309abfffd89e5c2a1781f1d4b12",
    "compare/static_fast/events.csv": "e04cd98d62481d37072cfe3def8aaeec6cb46aa94474b7b0c646669590ce5e20",
    "compare/static_fast/results.csv": "168a5d5d8df164022d7c406f2ffefb65a5312fce04b285436bcfe0f9c5fbf812",
    "compare/static_slow/events.csv": "e04cd98d62481d37072cfe3def8aaeec6cb46aa94474b7b0c646669590ce5e20",
    "compare/static_slow/results.csv": "8f635f37c0701ca46767822a6cdfa8de20b55e62fcdd9de78ac8a5c958bc4ffe",
    "profiles.csv": "a55d92913d3a7d4c31d2267756c2de32838adfad602c412ca7ec78b99f1e8e09",
    "rules/clustering_report.csv": "c62fa08490efc462ea5f6b4853beac2f432f8ecb30d23f70e0a8953549713fe4",
    "rules/fast.csv": "cc4173b99808b611c85b3e1a975debd328480a4d630591690a2d5222c0d355a6",
    "rules/slow.csv": "67f5a3c5553a2bef95a3d8aa3950057ee51d9b00d5c3da0f1a69ad76fc0c4838",
    "summary.csv": "16eac9c458d6c98bfe39d7473c783167ff3857aa2eb250edd42a3174f1c9f51a",
    "utility_sweep.csv": "082b50ac1d97c0e0660ed92a2f434653456f7c7a6e7ba90eb768e0288cb4ed2d",
    "utility_timeseries.csv": "71e24b2c4bad91a571c22c1545396f32cc099998c72877def9005e4286f4d77d",
}


def test_learn_and_compare_outputs_match_golden_digests(tiny_config, tmp_path, capsys):
    config = dataclasses.replace(tiny_config, output_dir=str(tmp_path))
    assert cli.run_learn(config) == 0
    assert cli.run_compare(config) == 0
    capsys.readouterr()
    digests = {
        path.relative_to(tmp_path).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.rglob("*.csv"))
    }
    assert digests == GOLDEN_SHA256


# learn on the default five-model family (1000 images, seed 1): the rule and
# clustering-report CSVs at realistic scale.
DEFAULT_RULES_SHA256 = {
    "rules/clustering_report.csv": "f3b0409775c78e83c99229fd467c6ceb4b301a4d6a4c4c144117464b20a6a54a",
    "rules/large.csv": "4212fb4780c555a5c4aa79617a4f52ea8469f424c619ad4742eb51cc80c5c4dd",
    "rules/medium.csv": "8d3b36f25158b31add65d99a070ac1231967a1a2f0e56bd393a445793278c386",
    "rules/nano.csv": "08548e518f0bafaaa811fd1695f148f8ec07c59e8be95d30cea4fd792e99c9c7",
    "rules/small.csv": "786e010fb2311ba74088a27b9c07eacca410408dc5a01919456e19720aeeafa9",
    "rules/xlarge.csv": "545b276708a6156928e4266e4e046d191c70271177eae084086834c6abd2980c",
}


def test_learn_on_default_config_matches_golden_digests(tmp_path, capsys):
    config = dataclasses.replace(cfgmod.ExperimentConfig(), output_dir=str(tmp_path))
    assert cli.run_learn(config) == 0
    capsys.readouterr()
    digests = {
        path.relative_to(tmp_path).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted((tmp_path / "rules").glob("*.csv"))
    }
    assert digests == DEFAULT_RULES_SHA256
