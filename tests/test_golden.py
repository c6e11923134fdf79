"""Golden digests: learn + compare + report --timeseries must reproduce every CSV.

The tiny config pins every output; the default config (at full scale, and
under overload on four workers) and the tiny config with three workers (and
under overload on four) pin the compare outputs and the
utility_timeseries.csv that report --timeseries derives from them, and the
default config also pins the rules, at 1000 and at 5000 images.

A change that alters any output byte fails here. If a change is meant to
alter outputs, update the digests in the same change and explain the diff.
"""

import dataclasses
import hashlib

from adamls import cli
from adamls import config as cfgmod

GOLDEN_SHA256 = {
    "compare/adamls/events.csv": "008eb946f1ac287d727b9e3e3fbbcf4c7af821dfe7941fcfe38715692e4e2439",
    "compare/adamls/results.csv": "dc8f8750dd87b3dce3cfb76dd5c5c85dcdfd8c296af0a0dea89f7399946d029b",
    "compare/naive/events.csv": "26b133b97f066b25fe86433f9dc55607c1b4d4aa4b2156a9a4563edf7587a3d1",
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


def csv_digests(root, pattern="**/*.csv"):
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.glob(pattern))
    }


def compare_digests(tmp_path):
    return {
        name: digest
        for name, digest in csv_digests(tmp_path).items()
        if name != "profiles.csv" and not name.startswith("rules/")
    }


def learn_and_compare(config, tmp_path, capsys):
    """learn, compare, then report --timeseries, which writes utility_timeseries.csv."""
    config = dataclasses.replace(config, output_dir=str(tmp_path))
    assert cli.run_learn(config) == 0
    assert cli.run_compare(config) == 0
    assert cli.run_report(config, timeseries=True) == 0
    capsys.readouterr()


def test_learn_and_compare_outputs_match_golden_digests(tiny_config, tmp_path, capsys):
    learn_and_compare(tiny_config, tmp_path, capsys)
    assert csv_digests(tmp_path) == GOLDEN_SHA256


# compare on the default config (bursty workload, seed 1): every compare CSV
# of the paper's experiment at full scale.
DEFAULT_COMPARE_SHA256 = {
    "compare/adamls/events.csv": "3877c5e5b37f266797732bf3c0bccbd5a3ca3a9a4f9afc541ca4d736d110d035",
    "compare/adamls/results.csv": "2774f4c067af57c2f9b939059014ce9a21ec86ecce4d2e9011245ab8ad3be5f4",
    "compare/naive/events.csv": "0d445e6aa14b8284d35d66508fecb17de334606d0006499a6a057dd58b6aca98",
    "compare/naive/results.csv": "ac8825d3a1464d3dfe968d172937f11d277bf0040e6fc62c01b29df99ee139d3",
    "compare/static_large/events.csv": "e04cd98d62481d37072cfe3def8aaeec6cb46aa94474b7b0c646669590ce5e20",
    "compare/static_large/results.csv": "0a8f0431ef924a494a72931124abfebdd874b7536a0b0a14936dc84960b5a100",
    "compare/static_medium/events.csv": "e04cd98d62481d37072cfe3def8aaeec6cb46aa94474b7b0c646669590ce5e20",
    "compare/static_medium/results.csv": "1175080feb1c26ff7b3380742da697c7c792e83ec07bae213743130e6b08cefb",
    "compare/static_nano/events.csv": "e04cd98d62481d37072cfe3def8aaeec6cb46aa94474b7b0c646669590ce5e20",
    "compare/static_nano/results.csv": "7a4f6cfd757eb315217bce2f7d550d0207d82cd2bdaf36c17f3b2ccce0f8a56f",
    "compare/static_small/events.csv": "e04cd98d62481d37072cfe3def8aaeec6cb46aa94474b7b0c646669590ce5e20",
    "compare/static_small/results.csv": "74f7467bba71ca832191ddec9a62b67ab1cfa0bb549dfc9fd5b7f09411421512",
    "compare/static_xlarge/events.csv": "e04cd98d62481d37072cfe3def8aaeec6cb46aa94474b7b0c646669590ce5e20",
    "compare/static_xlarge/results.csv": "6221072d28b04bfc2e1d7f2fc4bef504790a9f51b701c62fe800565865f187a5",
    "summary.csv": "91339ca8eefd94cff3ad24df0be0113ef9ba430971618c167bdd1eba092e0797",
    "utility_sweep.csv": "0acd81d0384117a719f8b3ab3fe379b4a5d261cb848c95ebfdfe7cf0f2f8c0f8",
    "utility_timeseries.csv": "90b32a8a544c920e6247e68cf3d74d688dd1f2a537160eb767a739f14d107a05",
}


def test_compare_on_default_config_matches_golden_digests(tmp_path, capsys):
    learn_and_compare(cfgmod.ExperimentConfig(), tmp_path, capsys)
    assert compare_digests(tmp_path) == DEFAULT_COMPARE_SHA256


# compare on the tiny config with three workers, where completions overtake
# one another and equal event times are more frequent.
TINY_3_WORKERS_COMPARE_SHA256 = {
    "compare/adamls/events.csv": "b20afcb47d032002f35311e452368e5a0c46acb88dba5765a8261d6e9f19506d",
    "compare/adamls/results.csv": "eb3b6d0cc8493246d571467897a5029474b5f47699d3cec73fdd4c43728b0c30",
    "compare/naive/events.csv": "84707f3850610571c15ebb8b11fd9004fd3e522bd92bec4ff499915fa10357d4",
    "compare/naive/results.csv": "765f716652fabce59f23b8849ebb7f13d1fb6904ab17a068f8f82c549041106b",
    "compare/static_fast/events.csv": "e04cd98d62481d37072cfe3def8aaeec6cb46aa94474b7b0c646669590ce5e20",
    "compare/static_fast/results.csv": "bbda1a221916042820c0aa6c52a49f6d045ca9881a9d83fa940da87fa9196495",
    "compare/static_slow/events.csv": "e04cd98d62481d37072cfe3def8aaeec6cb46aa94474b7b0c646669590ce5e20",
    "compare/static_slow/results.csv": "81b7ba95e4b85501326003c757b9a1e23c900411785845836bf06aa75f56a12c",
    "summary.csv": "7bb2570e334ec772478f59031f85c4840114aa7efb25273edbe42a50c2e137c4",
    "utility_sweep.csv": "91578e2be6599bc7bebe4f30cad033f3f0f6f410910c6d887d40e3086b52d05b",
    "utility_timeseries.csv": "bbb2eaa97a98e3771735e99c543a8bcf00307ea43cea26cdcc45f36c533c4620",
}


def test_compare_with_three_workers_matches_golden_digests(tiny_config, tmp_path, capsys):
    simulation = dataclasses.replace(tiny_config.simulation, worker_count=3)
    learn_and_compare(dataclasses.replace(tiny_config, simulation=simulation), tmp_path, capsys)
    assert compare_digests(tmp_path) == TINY_3_WORKERS_COMPARE_SHA256


# compare on the tiny config with four workers under a constant 100 rps for
# 4 s, above every model's capacity: the backlog grows through the run, ticks
# fire over a deep queue, and most adamls plans are the "no suitable model;
# persisting" no-op.
TINY_OVERLOAD_COMPARE_SHA256 = {
    "compare/adamls/events.csv": "04ddd65259b2ba6a5add0641f303f6b0242117c85044fa639b72bef36569ca12",
    "compare/adamls/results.csv": "3939516e504e50b1959cd1f4f10b5b881a7b2fdfba2bc8a3a6c536e4a12bbe1f",
    "compare/naive/events.csv": "9afb43ab9fa174251eaaa82892fd48eee8c893c0f3e57a99e1cfcff3600781df",
    "compare/naive/results.csv": "4532eeb5c436c499521baa63dc863c4d0b80b5d753d954e5575167756f508e2f",
    "compare/static_fast/events.csv": "e04cd98d62481d37072cfe3def8aaeec6cb46aa94474b7b0c646669590ce5e20",
    "compare/static_fast/results.csv": "96bef74c106333925b8d4c470b4f00512dd6bfe23cd703f97d7da792431dd9af",
    "compare/static_slow/events.csv": "e04cd98d62481d37072cfe3def8aaeec6cb46aa94474b7b0c646669590ce5e20",
    "compare/static_slow/results.csv": "7a44b8b05874c25370fec40ed523df78bcd621d2cbeeafa694ad9c9f7898dde1",
    "summary.csv": "5307024e2d301a597b96b2aa053fdc708abe65c880b2dc855e40ed2d6013184f",
    "utility_sweep.csv": "25f7a8faac9664357122cf4f1494bcdf10ec39c0b55e8d2422baa125ff11f15c",
    "utility_timeseries.csv": "9c57b00a271a460a1ffda63bea6b451b84c7fd06739a0c25fbec3c5fb12265d9",
}


def test_compare_under_overload_matches_golden_digests(tiny_config, tmp_path, capsys):
    config = dataclasses.replace(
        tiny_config,
        workload=cfgmod.WorkloadConfig(segments=((4.0, 100.0),), max_requests=1000),
        simulation=dataclasses.replace(tiny_config.simulation, worker_count=4),
    )
    learn_and_compare(config, tmp_path, capsys)
    events = (tmp_path / "compare" / "adamls" / "events.csv").read_text(encoding="utf-8")
    assert "no suitable model; persisting" in events
    assert compare_digests(tmp_path) == TINY_OVERLOAD_COMPARE_SHA256


# compare on the default config with four workers under a constant 20 rps for
# 400 s (seed 1), the shape of the benchmark's overload workload: about 8000
# requests and a backlog that grows through every static run, so completions
# leave request order and often finish at one instant.
DEFAULT_OVERLOAD_COMPARE_SHA256 = {
    "compare/adamls/events.csv": "e20a74d862863e52d8ff8e9aca8b5c8d741739b6f594b0e2a52e2b582b37a9b7",
    "compare/adamls/results.csv": "11124fef4c9a3072b866c2014eefe07d845d32395f1902a63a639b95099e5fbb",
    "compare/naive/events.csv": "61e555b0b324e227ca7fab468af69ccbe5cb7b8a0f7a914c3f7d593ad35cc744",
    "compare/naive/results.csv": "5ac0ee815b7895c3a5595ad7da6c2fa92d5d91ec76d23f4af38e643815058b0e",
    "compare/static_large/events.csv": "e04cd98d62481d37072cfe3def8aaeec6cb46aa94474b7b0c646669590ce5e20",
    "compare/static_large/results.csv": "51fcde8144319f851fb4ae255ccfc6944f9d539caad512ff80b3b0d23268140a",
    "compare/static_medium/events.csv": "e04cd98d62481d37072cfe3def8aaeec6cb46aa94474b7b0c646669590ce5e20",
    "compare/static_medium/results.csv": "453f8723094be380ae1897503f97d1934ef181d1dee31bc94cbe8b948e1d0951",
    "compare/static_nano/events.csv": "e04cd98d62481d37072cfe3def8aaeec6cb46aa94474b7b0c646669590ce5e20",
    "compare/static_nano/results.csv": "490de0cc96067e9feb52565b55190ab16334454cc76fbee849e569d66ba08f04",
    "compare/static_small/events.csv": "e04cd98d62481d37072cfe3def8aaeec6cb46aa94474b7b0c646669590ce5e20",
    "compare/static_small/results.csv": "d92375ed5484d8e30b535fa46ecb076416b01ab54b325fd38f8fa10a5a09901d",
    "compare/static_xlarge/events.csv": "e04cd98d62481d37072cfe3def8aaeec6cb46aa94474b7b0c646669590ce5e20",
    "compare/static_xlarge/results.csv": "cd193455733e0d8b303ad8705f562fb53ce8650c230531e28e9b4b4ada4be66e",
    "summary.csv": "b438f7d62e92db6a004865301e2b958525d6217fbb248f12f61d2650750cb87b",
    "utility_sweep.csv": "5320f70f7414f38007f55ca164542bdfe4d9e0578efe0f62064e012ebadd1197",
    "utility_timeseries.csv": "401c3216f5e5661fab5cd076ca1bac0299c66812adf219fa429dca38948e3ba0",
}


def test_compare_on_default_config_under_overload_matches_golden_digests(tmp_path, capsys):
    config = cfgmod.ExperimentConfig()
    config = dataclasses.replace(
        config,
        workload=cfgmod.WorkloadConfig(segments=((400.0, 20.0),), max_requests=20000),
        simulation=dataclasses.replace(config.simulation, worker_count=4),
    )
    learn_and_compare(config, tmp_path, capsys)
    assert compare_digests(tmp_path) == DEFAULT_OVERLOAD_COMPARE_SHA256


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
    assert csv_digests(tmp_path, "rules/*.csv") == DEFAULT_RULES_SHA256


# learn on the default five-model family at 5000 images (seed 1), the size
# of the benchmark's wide-profile workload: the rule and clustering-report
# CSVs where the exact k-means DP runs its longest layers.
WIDE_RULES_SHA256 = {
    "rules/clustering_report.csv": "3762d1eb4f04c48eeb4bb53935fa31d1f16708231c71fec0a702e1c38e8317bb",
    "rules/large.csv": "847e4bf3a5295a11b47d8dba8004d5b7f0743b3afa3ab75405b9ae666956a9dc",
    "rules/medium.csv": "d1b8b3a8f95294c600f95b83712237c411ac7053669b967f928228bf75d96109",
    "rules/nano.csv": "d03b0ab6435dcf72fdcd29286c53ed8aa512bb025ee522f23118ff2a2aef4dec",
    "rules/small.csv": "514b181d85006499b23f19788825ecefb08c77c6639bdba7fe03e83f9e4b140c",
    "rules/xlarge.csv": "7fc3474678554cfdecef61518930ea9bdc9c70b67c43a2cdc5bb8f63ba5111fe",
}


def test_learn_at_5000_images_matches_golden_digests(tmp_path, capsys):
    config = cfgmod.ExperimentConfig()
    profiles = dataclasses.replace(config.profiles, image_count=5000)
    config = dataclasses.replace(config, output_dir=str(tmp_path), profiles=profiles)
    assert cli.run_learn(config) == 0
    capsys.readouterr()
    assert csv_digests(tmp_path, "rules/*.csv") == WIDE_RULES_SHA256


# profiles.csv of the default config: every generated KPI of the five-model
# family (1000 images, seed 1), written with full float precision.
DEFAULT_PROFILES_SHA256 = "a38bad59f5e0c6279078432b266281297fbc5c02699b0ea2ccc33290ff7f9c68"


def test_profiles_on_default_config_match_golden_digest(tmp_path, capsys):
    config = dataclasses.replace(cfgmod.ExperimentConfig(), output_dir=str(tmp_path))
    assert cli.run_learn(config) == 0
    capsys.readouterr()
    assert csv_digests(tmp_path, "profiles.csv") == {"profiles.csv": DEFAULT_PROFILES_SHA256}


def test_learn_from_written_profiles_matches_generated_rules(tmp_path, capsys):
    """Loading profiles.csv back gives the rules of the generated profiles."""
    generated = dataclasses.replace(cfgmod.ExperimentConfig(), output_dir=str(tmp_path / "gen"))
    assert cli.run_learn(generated) == 0
    profiles = cfgmod.ProfilesConfig(source="csv", csv_path=str(tmp_path / "gen" / "profiles.csv"))
    loaded = dataclasses.replace(generated, output_dir=str(tmp_path / "csv"), profiles=profiles)
    assert cli.run_learn(loaded) == 0
    capsys.readouterr()
    rules = csv_digests(tmp_path / "gen", "rules/*.csv")
    assert rules == DEFAULT_RULES_SHA256
    assert csv_digests(tmp_path / "csv", "rules/*.csv") == rules


def test_learn_from_csv_leaves_its_input_as_it_is(tiny_config, tmp_path, capsys):
    """A csv-source learn reads profiles.csv and never writes it back."""
    config = dataclasses.replace(tiny_config, output_dir=str(tmp_path))
    assert cli.run_learn(config) == 0
    rules = csv_digests(tmp_path, "rules/*.csv")
    path = tmp_path / "profiles.csv"
    # b as "3.0" instead of "3": the same profiles, but not the bytes that
    # write_profiles would write.
    lines = path.read_text(encoding="utf-8").split("\r\n")
    path.write_bytes("\r\n".join(lines[:1] + [f"{line}.0" for line in lines[1:-1]] + [""]).encode())
    text = path.read_bytes()
    profiles = dataclasses.replace(config.profiles, source="csv", csv_path=str(path))
    assert cli.run_learn(dataclasses.replace(config, profiles=profiles)) == 0
    capsys.readouterr()
    assert path.read_bytes() == text
    assert csv_digests(tmp_path, "rules/*.csv") == rules
