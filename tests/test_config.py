import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grouptrain.config import parse_config
from grouptrain.data import GroupId
from grouptrain.errors import ConfigError
from grouptrain.trainers import WORST_GROUP


def write(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text)
    return path


MINIMAL_ERM = """
[train]
algorithm = erm
epochs = 5
batch_size = 32
learning_rate = 0.05
seed = 0
"""


class TestTrainSection:
    def test_minimal_config_applies_defaults(self, tmp_path):
        cfg = parse_config(write(tmp_path, MINIMAL_ERM)).train
        assert cfg.momentum == 0.9
        assert cfg.l2 == 0.0
        assert cfg.group_step_size == 0.01
        assert cfg.hidden == ()
        assert cfg.refresh_every is None

    def test_group_dro_default_step_size(self, tmp_path):
        text = MINIMAL_ERM.replace("algorithm = erm", "algorithm = group-dro")
        cfg = parse_config(write(tmp_path, text)).train
        assert cfg.group_step_size == 0.01

    def test_out_of_range_value_names_key(self, tmp_path):
        text = MINIMAL_ERM.replace("algorithm = erm",
                                   "algorithm = cvar\nalpha = 1.5")
        with pytest.raises(ConfigError, match="alpha"):
            parse_config(write(tmp_path, text))

    def test_unknown_key_names_line(self, tmp_path):
        path = write(tmp_path, MINIMAL_ERM + "optimizer = adam\n")
        with pytest.raises(ConfigError, match=r"line 8.*'optimizer'"):
            parse_config(path)

    def test_missing_required_key(self, tmp_path):
        text = MINIMAL_ERM.replace("batch_size = 32\n", "")
        with pytest.raises(ConfigError, match="batch_size"):
            parse_config(write(tmp_path, text))

    def test_type_error_names_key_and_line(self, tmp_path):
        text = MINIMAL_ERM.replace("epochs = 5", "epochs = five")
        with pytest.raises(ConfigError, match=r"line 4.*'epochs'"):
            parse_config(write(tmp_path, text))

    def test_refresh_every_inf_sentinel(self, tmp_path):
        text = MINIMAL_ERM.replace(
            "algorithm = erm",
            "algorithm = jtt-dynamic\nid_epochs = 1\nupweight_factor = 4\nrefresh_every = inf")
        cfg = parse_config(write(tmp_path, text)).train
        assert cfg.refresh_every is None

    def test_hidden_widths(self, tmp_path):
        cfg = parse_config(write(tmp_path, MINIMAL_ERM + "hidden = 16, 8\n")).train
        assert cfg.hidden == (16, 8)

    def test_duplicate_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(write(tmp_path, MINIMAL_ERM + "epochs = 9\n"))

    def test_comments_and_inline_comments(self, tmp_path):
        text = "# header\n" + MINIMAL_ERM + "l2 = 0.001  # weight decay\n"
        cfg = parse_config(write(tmp_path, text)).train
        assert cfg.l2 == 0.001


GENERATE = """
[generate]
n_train = 100
n_val = 40
n_test = 40
majority_fraction = 0.9
core_separation = 1.0
spurious_separation = 2.0
noise_dims = 1
noise_sigma = 0.5
seed = 3
"""


class TestOtherSections:
    def test_generate_section(self, tmp_path):
        path = write(tmp_path, GENERATE)
        gen = parse_config(path).generate
        assert gen.spec.n_train == 100
        assert gen.spec.label_balance == (0.5, 0.5)
        assert gen.seed == 3

    def test_grid_requires_train(self, tmp_path):
        with pytest.raises(ConfigError, match="grid"):
            parse_config(write(tmp_path, "[grid]\nepochs = 1, 2\n"))

    def test_grid_axes_parse_with_train_types(self, tmp_path):
        path = write(tmp_path, MINIMAL_ERM + """
[grid]
learning_rate = 0.01, 0.05
epochs = 2, 4
""")
        grid = parse_config(path).grid
        assert grid.axes == {"learning_rate": (0.01, 0.05), "epochs": (2, 4)}
        assert len(grid.configs()) == 4

    def test_grid_axes_over_algorithm_and_refresh_every(self, tmp_path):
        path = write(tmp_path, MINIMAL_ERM + """id_epochs = 1
upweight_factor = 3

[grid]
algorithm = jtt, jtt-dynamic
refresh_every = inf, 2
""")
        grid = parse_config(path).grid
        assert grid.axes == {"algorithm": ("jtt", "jtt-dynamic"), "refresh_every": (None, 2)}
        assert [(c.algorithm, c.refresh_every) for c in grid.configs()] == [
            ("jtt", None), ("jtt", 2), ("jtt-dynamic", None), ("jtt-dynamic", 2)]

    @pytest.mark.parametrize("key, message", [
        ("hidden", "'hidden' cannot be swept"),
        ("optimizer", "unknown grid axis 'optimizer'"),
    ])
    def test_axis_that_cannot_be_swept_names_its_line(self, tmp_path, key, message):
        path = write(tmp_path, MINIMAL_ERM + f"[grid]\nepochs = 2, 4\n{key} = 4, 8\n")
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert str(err.value) == f"{path}: line 10: {message}"

    @pytest.mark.parametrize("axis", ["epochs", "refresh_every"])
    def test_empty_axis_names_its_line(self, tmp_path, axis):
        path = write(tmp_path, MINIMAL_ERM + f"[grid]\nseed = 0, 1\n{axis} = ,\n")
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert str(err.value) == f"{path}: line 10: grid axis {axis!r} has no values"

    def test_sweep_criterion(self, tmp_path):
        path = write(tmp_path, MINIMAL_ERM + "[sweep]\ncriterion = worst-group\n")
        assert parse_config(path).sweep.criterion == WORST_GROUP
        bad = write(tmp_path, MINIMAL_ERM + "[sweep]\ncriterion = loss\n")
        with pytest.raises(ConfigError, match="criterion"):
            parse_config(bad)

    def test_study_section(self, tmp_path):
        path = write(tmp_path, MINIMAL_ERM + """
[study]
fractions = 1, 0.2, 0.1, 0.05
seeds = 0, 1, 2
""")
        study = parse_config(path).study
        assert study.fractions == (1.0, 0.2, 0.1, 0.05)
        assert study.seeds == (0, 1, 2)

    def test_study_fraction_range(self, tmp_path):
        path = write(tmp_path, MINIMAL_ERM + "[study]\nfractions = 2.0\nseeds = 0\n")
        with pytest.raises(ConfigError, match="fractions"):
            parse_config(path)

    @pytest.mark.parametrize("text, line, key", [
        ("fractions =\nseeds = 0, 1\n", 9, "fractions"),
        ("fractions = 1, 0.5\nseeds =\n", 10, "seeds"),
        ("fractions = ,\nseeds = 0\n", 9, "fractions"),
    ])
    def test_empty_study_list_names_key_and_line(self, tmp_path, text, line, key):
        path = write(tmp_path, MINIMAL_ERM + "[study]\n" + text)
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert str(err.value).startswith(
            f"{path}: line {line}: key {key!r}: expected at least one")

    def test_ablate_section(self, tmp_path):
        path = write(tmp_path, """
[ablate]
run = runs/jtt
mode = drop-group
group = 1, 0
seed = 4
""")
        ab = parse_config(path).ablate
        assert ab.mode == "drop-group"
        assert ab.group == GroupId(1, 0)
        assert ab.seed == 4

    def test_ablate_bad_mode(self, tmp_path):
        path = write(tmp_path, "[ablate]\nrun = x\nmode = shuffle\n")
        with pytest.raises(ConfigError, match="mode"):
            parse_config(path)

    def test_analyze_requires_reference(self, tmp_path):
        path = write(tmp_path, "[analyze]\nrun = runs/jtt\n")
        with pytest.raises(ConfigError, match="erm_report"):
            parse_config(path)

    def test_unknown_section(self, tmp_path):
        with pytest.raises(ConfigError, match=r"\[deploy\]"):
            parse_config(write(tmp_path, "[deploy]\nhost = web\n"))

    def test_key_outside_section(self, tmp_path):
        with pytest.raises(ConfigError, match="outside"):
            parse_config(write(tmp_path, "epochs = 5\n"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="no such config"):
            parse_config(tmp_path / "nope.ini")

    def test_require_helper(self, tmp_path):
        parsed = parse_config(write(tmp_path, MINIMAL_ERM))
        assert parsed.require("train") is parsed.train
        with pytest.raises(ConfigError, match=r"\[generate\]"):
            parsed.require("generate")


CVAR = MINIMAL_ERM.replace("algorithm = erm", "algorithm = cvar\nalpha = 0.5")


class TestValuesThatCannotRun:
    def test_invalid_grid_point_names_file_section_and_line(self, tmp_path):
        path = write(tmp_path, CVAR + "[grid]\nalpha = 0.1, 0\n")
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert str(err.value) == (
            f"{path}: [grid] alpha: required in (0, 1] for the CVaR trainer (line 10)")

    @pytest.mark.parametrize("key, value", [
        ("learning_rate", "nan"), ("learning_rate", "inf"), ("l2", "nan"),
        ("group_step_size", "nan"), ("momentum", "-inf")])
    def test_non_finite_value_names_key_and_line(self, tmp_path, key, value):
        values = {"learning_rate": "0.05", key: value}
        path = write(tmp_path, "[train]\nalgorithm = erm\nepochs = 5\nbatch_size = 32\nseed = 0\n"
                     + "".join(f"{k} = {v}\n" for k, v in values.items()))
        line = 6 if key == "learning_rate" else 7
        with pytest.raises(ConfigError, match=rf"{path}: line {line}: key '{key}': .*finite"):
            parse_config(path)

    def test_non_finite_grid_value_rejected(self, tmp_path):
        path = write(tmp_path, MINIMAL_ERM + "[grid]\nlearning_rate = 0.1, nan\n")
        with pytest.raises(ConfigError, match=r"line 9: key 'learning_rate'"):
            parse_config(path)

    @pytest.mark.parametrize("text, where", [
        (MINIMAL_ERM.replace("seed = 0", "seed = -1"), r"\[train\] seed: must be >= 0 \(line 7\)"),
        (MINIMAL_ERM + "[grid]\nseed = 0, -2\n", r"\[grid\] seed: must be >= 0 \(line 9\)"),
        (MINIMAL_ERM + "[study]\nfractions = 1\nseeds = 0, -1\n", r"line 10: key 'seeds'"),
        ("[ablate]\nrun = r\nmode = drop-group\nseed = -4\n", r"line 4: key 'seed'"),
        (GENERATE.replace("seed = 3", "seed = -1"), r"line 11: key 'seed'"),
    ])
    def test_negative_seed_rejected(self, tmp_path, text, where):
        with pytest.raises(ConfigError, match=where):
            parse_config(write(tmp_path, text))

    def test_unreadable_file_is_a_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match=rf"^{tmp_path}: cannot read config file"):
            parse_config(tmp_path)
        path = tmp_path / "latin1.ini"
        path.write_bytes(MINIMAL_ERM.encode() + b"# caf\xe9\n")
        with pytest.raises(ConfigError, match=rf"^{path}: cannot read config file"):
            parse_config(path)


_SECTIONS = ("generate", "train", "grid", "sweep", "study", "analyze", "ablate", "deploy", "")
_KEYS = ("algorithm", "epochs", "batch_size", "learning_rate", "seed", "seeds", "momentum",
         "l2", "hidden", "id_epochs", "upweight_factor", "refresh_every", "alpha", "gce_q",
         "group_step_size", "fractions", "criterion", "mode", "group", "run", "erm_report",
         "n_train", "majority_fraction", "label_balance", "noise_dims", "bogus", "")
_VALUES = ("", "0", "1", "-1", "2, 4", "0.5", "1e-3", "nan", "inf", "-inf", "none", "1,",
           ",", "erm", "jtt", "cvar", "lff", "group-dro", "worst-group", "shuffle", "0, 1",
           "é", "１", "٣", "1e400", "99999999999999999999", "[train]", "= =")
_line = st.one_of(
    st.sampled_from(_SECTIONS).map(lambda s: f"[{s}]"),
    st.tuples(st.sampled_from(_KEYS), st.sampled_from(_VALUES) | st.text(max_size=8))
    .map(lambda kv: f"{kv[0]} = {kv[1]}"),
    st.text(max_size=12),
)


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(_line, max_size=14), raw=st.binary(max_size=4), at=st.integers(0, 14))
def test_fuzzed_config_parses_or_fails_naming_its_path(tmp_path_factory, lines, raw, at):
    text = "\n".join(lines).encode("utf-8", "surrogatepass")
    path = tmp_path_factory.mktemp("fuzz") / "run.ini"
    path.write_bytes(text[:at] + raw + text[at:])
    try:
        parse_config(path)
    except ConfigError as e:
        assert str(e).startswith(f"{path}: ")


_SECTION_TEXTS = {
    "generate": GENERATE,
    "sweep": "\n[sweep]\ncriterion = average\n",
    "study": "\n[study]\nfractions = 1\nseeds = 0\n",
    "analyze": "\n[analyze]\nrun = runs/jtt\nerm_report = runs/erm/report.json\n",
    "ablate": "\n[ablate]\nrun = runs/jtt\nmode = drop-group\ngroup = 1, 0\nseed = 4\n",
}


class TestSectionTable:
    @pytest.mark.parametrize("section, key", [
        ("generate", "n_train"), ("generate", "noise_sigma"), ("generate", "seed"),
        ("study", "seeds"), ("analyze", "run"), ("ablate", "mode"),
    ])
    def test_missing_required_key_names_file_section_and_key(self, tmp_path, section, key):
        text = "".join(line + "\n" for line in _SECTION_TEXTS[section].splitlines()
                       if not line.startswith(f"{key} ="))
        path = write(tmp_path, text)
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert str(err.value) == f"{path}: [{section}] missing required key {key!r}"

    @pytest.mark.parametrize("section", list(_SECTION_TEXTS))
    def test_unknown_key_names_file_key_and_line(self, tmp_path, section):
        text = _SECTION_TEXTS[section] + "bogus = 1\n"
        path = write(tmp_path, text)
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        line = text.count("\n")
        assert str(err.value) == f"{path}: line {line}: unknown key 'bogus' in [{section}]"

    def test_missing_key_is_reported_before_an_unknown_one(self, tmp_path):
        path = write(tmp_path, "[ablate]\nbogus = 1\nrun = r\n")
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert str(err.value) == f"{path}: [ablate] missing required key 'mode'"

    def test_sections_are_checked_in_pipeline_order_not_file_order(self, tmp_path):
        path = write(tmp_path, "[ablate]\nrun = r\n" + GENERATE.replace("n_val = 40\n", ""))
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert str(err.value) == f"{path}: [generate] missing required key 'n_val'"

    @pytest.mark.parametrize("change, message", [
        (("majority_fraction = 0.9", "majority_fraction = 0.3"),
         "majority_fraction must lie in (0.5, 1)"),
        (("seed = 3", "label_balance = 0.5\nseed = 3"),
         "label_balance must have one entry per binary label"),
    ])
    def test_generate_spec_error_names_file_and_section(self, tmp_path, change, message):
        path = write(tmp_path, GENERATE.replace(*change))
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert str(err.value) == f"{path}: [generate] {message}"

    @pytest.mark.parametrize("text, line, message", [
        ("[ablate]\nrun = r\nmode = drop-group\ngroup = 1\n", 4,
         "key 'group': expected 'attribute, label', got '1'"),
        (MINIMAL_ERM.replace("0.05", "fast"), 6,
         "key 'learning_rate': expected a number, got 'fast'"),
    ])
    def test_bad_value_names_file_line_and_key(self, tmp_path, text, line, message):
        path = write(tmp_path, text)
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert str(err.value) == f"{path}: line {line}: {message}"

    @pytest.mark.parametrize("axis, values", [
        ("refresh_every = 2,", (2,)),
        ("refresh_every = inf, , 2", (None, 2)),
        ("learning_rate = 0.01, 0.05,", (0.01, 0.05)),
        ("algorithm = jtt, , jtt-dynamic", ("jtt", "jtt-dynamic")),
    ])
    def test_every_grid_axis_skips_empty_list_parts(self, tmp_path, axis, values):
        text = MINIMAL_ERM.replace("algorithm = erm", "algorithm = jtt-dynamic")
        path = write(tmp_path, text + "id_epochs = 1\nupweight_factor = 3\n[grid]\n" + axis + "\n")
        grid = parse_config(path).grid
        assert grid.axes == {axis.split(" =")[0]: values}
        assert len(grid) == len(values)
