import itertools

from conftest import CORPUS, DATA, load
from autalg.autscheme import ideal_generators
from autalg.cli import main

P0 = str(DATA / "p0_f2.malg")
P2 = str(DATA / "p2_f3.malg")
P3 = str(DATA / "p3_f5.malg")
PV = str(DATA / "pv_f3.malg")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate(capsys):
    code, out, err = run(capsys, "enumerate", "--input", P2, "--max-length", "2")
    assert code == 0 and not err
    assert out.splitlines() == [
        "x", "y", "(x <0> x)", "(x <0> y)", "(y <0> x)", "(y <0> y)"]


def test_ideal(capsys):
    code, out, err = run(capsys, "ideal", "--input", P2, "--max-length", "2")
    assert code == 0 and not err
    lines = out.splitlines()
    assert lines[0] == "# meta N=2 ring=Fp 3 L=2 graded=off fixed=off inverse=on"
    assert "2 * X_1_2" in lines
    assert "1 * X_1_1^2 + 2 * X_2_2" in lines
    assert any("* t + 2" in ln for ln in lines)  # t*det - 1 over F_3


def test_ideal_no_inverse(capsys):
    code, out, _ = run(capsys, "ideal", "--input", P2, "--max-length", "2",
                       "--no-inverse")
    assert code == 0
    assert "inverse=off" in out.splitlines()[0]
    assert not any("t" in ln for ln in out.splitlines()[1:])


def test_check_true_false(capsys):
    code, out, _ = run(capsys, "check", "--input", P2, "--max-length", "2",
                       "--point", "2,0;1,1")
    assert (code, out) == (0, "true\n")
    code, out, _ = run(capsys, "check", "--input", P2, "--max-length", "2",
                       "--point", "1,1;0,1")
    assert (code, out) == (1, "false\n")


def test_compare_equal(capsys):
    code, out, err = run(capsys, "compare", "--input", P2, "--max-length", "2")
    assert code == 0 and not err
    assert out == "equal (6 points)\n"


def test_compare_mismatch(capsys):
    code, out, _ = run(capsys, "compare", "--input", P3, "--max-length", "2")
    assert code == 3
    lines = out.splitlines()
    assert lines[0] == "mismatch: locus 4 points, oracle 2 points"
    assert sum(ln.startswith("extra: ") for ln in lines[1:]) == 2
    code, out, _ = run(capsys, "compare", "--input", P3, "--max-length", "3")
    assert code == 0 and out == "equal (2 points)\n"


def test_compare_fixed(capsys):
    code, out, _ = run(capsys, "compare", "--input", PV, "--max-length", "2",
                       "--fixed")
    assert code == 0 and out == "equal (1 points)\n"


def test_oracle_command(capsys):
    code, out, _ = run(capsys, "oracle", "--input", P0)
    assert code == 0
    assert len(out.splitlines()) == 6
    assert "1,0;0,1" in out.splitlines()


def test_input_errors(capsys):
    code, out, err = run(capsys, "ideal", "--input", str(DATA / "nope.malg"),
                         "--max-length", "2")
    assert (code, out) == (2, "") and err.startswith("error:")
    for argv in (["enumerate"], ["ideal"], ["check", "--point", "1,0;0,1"], ["compare"]):
        code, out, err = run(capsys, *argv, "--input", P2, "--max-length", "0")
        assert (code, out) == (2, "") and err.startswith("error:"), argv
    code, _, err = run(capsys, "check", "--input", P2, "--max-length", "2",
                       "--point", "1,2")
    assert code == 2 and "bad --point" in err
    code, out, err = run(capsys, "oracle", "--input", P2, "--graded")
    assert code == 2 and not out and "GradingViolation" in err


def test_input_error_classes(capsys, tmp_path):
    # one bad input per error class: exit 2, nothing on stdout, one
    # diagnostic line naming the class
    base = "ring Fp 3\nproducts 0\nbasis x\nbasis y\ngenerators x\n"
    for text, name in [
        ("ring Fp 3\nproducts 0\nbasis x\n", "SyntaxError"),
        (base + "mul 0 x x = 1*z\n", "UnknownName"),
        ("ring Fp 3\nproducts 0\nbasis x\nbasis x\ngenerators x\n", "DuplicateBasis"),
        ("ring Fp 4\nproducts 0\nbasis x\ngenerators x\n", "BadPrime"),
        ("ring Fp 3\nproducts 0\ngrading table\nbasis x 1\nbasis y 3\n"
         "generators x y\nmul 0 x x = 1*y\ndtable 1 0 1 = 2\n", "GradingViolation"),
        ("ring Fp 3\nproducts 0\ngrading table\nbasis x 1\nbasis y 2\n"
         "generators x y\nmul 0 x x = 1*y\n", "MissingDegreeRule"),
        (base + "mul 0 y y = 1*y\n", "NotGenerating"),
        ("ring Fp 3\nproducts 0\nbasis x\nbasis y\nbasis z\ngenerators x\n"
         "mul 0 x x = 1*y\nmul 0 y y = 1*z\n", "TruncationTooShort"),
    ]:
        path = tmp_path / f"{name}.malg"
        path.write_text(text)
        code, out, err = run(capsys, "ideal", "--input", str(path), "--max-length", "2")
        assert (code, out) == (2, ""), name
        assert err.startswith(f"error: {name}: ") and err.count("\n") == 1, (name, err)


def test_out_of_memory_exit_code(capsys, monkeypatch):
    # exit 1 belongs to `check` false: running out of memory is exit 4
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("autalg.cli.ideal_generators", exhausted)
    code, out, err = run(capsys, "ideal", "--input", P2, "--max-length", "2")
    assert (code, out, err) == (4, "", "error: out of memory\n")


def test_limit_and_budget_exit_code(capsys):
    code, _, err = run(capsys, "enumerate", "--input", P2, "--max-length", "6",
                       "--word-cap", "100")
    assert code == 4 and err.startswith("error:")
    code, _, err = run(capsys, "compare", "--input", P2, "--max-length", "2",
                       "--budget", "3")
    assert code == 4 and err.startswith("error:")
    for workers in ("1", "2"):  # the budget is global, not per worker
        code, _, err = run(capsys, "oracle", "--input", P2, "--budget", "45",
                           "--workers", workers)
        assert code == 4 and err.startswith("error:")


def test_byte_determinism(capsys):
    _, first, _ = run(capsys, "ideal", "--input", P2, "--max-length", "3")
    _, second, _ = run(capsys, "ideal", "--input", P2, "--max-length", "3")
    assert first == second
    _, one, _ = run(capsys, "oracle", "--input", P2, "--workers", "1")
    _, two, _ = run(capsys, "oracle", "--input", P2, "--workers", "2")
    assert one == two


def test_only_ideal_builds_the_inverse_block(capsys, monkeypatch):
    seen = []

    def recording(*args, **kwargs):
        seen.append(kwargs["inverse"])
        return ideal_generators(*args, **kwargs)

    monkeypatch.setattr("autalg.cli.ideal_generators", recording)
    point = ["--point", "2,0;1,1"]
    for command, extra in (("check", point), ("compare", [])):
        for flag in ([], ["--no-inverse"]):
            run(capsys, command, "--input", P2, "--max-length", "2", *extra, *flag)
    run(capsys, "ideal", "--input", P2, "--max-length", "2")
    run(capsys, "ideal", "--input", P2, "--max-length", "2", "--no-inverse")
    assert seen == [False, False, False, False, True, False]


def test_exit_code_sweep(capsys):
    # every subcommand on every corpus file, with every subset of its flags,
    # ends in a documented exit code instead of an exception
    flags = {"enumerate": [], "oracle": ["--graded", "--fixed"]}
    for command in ("ideal", "check", "compare"):
        flags[command] = ["--graded", "--fixed", "--no-inverse"]
    for path in CORPUS:
        n = load(path.name).num_gens
        identity = ";".join(",".join("1" if i == j else "0" for j in range(n))
                            for i in range(n))
        for command, options in flags.items():
            argv = [command, "--input", str(path)]
            if command != "oracle":
                argv += ["--max-length", "2"]
            if command == "check":
                argv += ["--point", identity]
            for k in range(len(options) + 1):
                for subset in itertools.combinations(options, k):
                    code, _, _ = run(capsys, *argv, *subset)
                    assert 0 <= code <= 4, (path.name, command, subset)
