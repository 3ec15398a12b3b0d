"""Tests of the benchmark's own logic: inputs, correctness checks, self time."""

import importlib
import sys

import pytest

import checks
import pace
import run
import spans
import workloads


def _argvs(workload, seed, pass_index):
    return [(c.id, c.argv) for c in workloads.pass_calls(workload, seed, pass_index)]


def test_argv_lists_are_a_pure_function_of_the_seed():
    for workload in workloads.WORKLOADS:
        first = _argvs(workload, 7, 2)
        assert first == _argvs(workload, 7, 2)
        assert first != _argvs(workload, 8, 2)
        assert first != _argvs(workload, 7, 3)
        # ids do not depend on the seed, so expected records stay addressable
        assert [i for i, _ in first] == [i for i, _ in _argvs(workload, 8, 2)]
        assert all("--out" not in argv for _, argv in first)


def _golden_call(workload, position):
    call = workloads.pass_calls(workload, workloads.DEFAULT_SEED, 0)[position]
    return call, run.load_expected(workload)[call.id]


def test_expected_records_pass_their_own_checks():
    for workload in workloads.WORKLOADS:
        expected = run.load_expected(workload)
        for call in workloads.pass_calls(workload, workloads.DEFAULT_SEED, 0):
            record = expected[call.id]
            assert checks.check_output(call, 0, record["csv"], record) == []


def _flip_value(text):
    header, first, *rest = text.splitlines()
    cells = first.split(",")
    col = header.split(",").index("value")
    cells[col] = repr(float(cells[col]) + 2.0**-20)
    return "\n".join([header, ",".join(cells), *rest]) + "\n"


def _add_column(text):
    lines = text.splitlines()
    lines[0] += ",manifest"
    lines[1:] = [line + ",x" for line in lines[1:]]
    return "\n".join(lines) + "\n"


def test_check_flags_a_flipped_value_and_accepts_an_extra_column():
    call, record = _golden_call("mc-soundness", 6)
    flipped = checks.check_output(call, 0, _flip_value(record["csv"]), record)
    assert flipped and "value" in flipped[0]
    assert checks.compare_with_expected(_flip_value(record["csv"]), record["csv"])
    assert checks.check_output(call, 0, _add_column(record["csv"]), record) == []


def test_check_ignores_wall_ms_and_flags_exit_codes():
    call, record = _golden_call("exact-small", 0)
    with_wall = record["csv"].replace("total_queries\n", "total_queries,wall_ms\n", 1)
    with_wall = "\n".join(
        line + ",17" if i else line for i, line in enumerate(with_wall.splitlines())
    ) + "\n"
    assert checks.check_output(call, 0, with_wall, record) == []
    assert checks.check_output(call, 3, record["csv"], record) == ["exit code 3, expected 0"]


def test_invariants_flag_a_wrong_completeness_value():
    call = next(c for c in workloads.pass_calls("mc-soundness", 5, 0) if "dict" in c.id)
    csv_text = "experiment,value\ncompleteness,0.99\n"
    assert checks.value_is_one(checks.parse_csv(csv_text)[1]) == ["value 0.99 != 1.0"]
    assert checks.dyadic(3)(checks.parse_csv("method,value\nexact,0.3\n")[1])
    assert checks.dyadic(3)(checks.parse_csv("method,value\nexact,0.375\n")[1]) == []
    assert checks.value_is_one in call.checks


def test_paced_pass_divides_each_call_by_its_bracket():
    ref = pace.REFERENCE_S
    quiet = run.PassResult(op_s=[1.0, 2.0], op_cpu_s=[1.0, 2.0], pace_s=[(ref, ref)] * 3)
    # a host at half speed doubles both the calls and the reference runs around them
    slow = run.PassResult(op_s=[2.0, 4.0], op_cpu_s=[2.0, 4.0], pace_s=[(2 * ref, 2 * ref)] * 3)
    assert run.paced_pass([quiet, slow, slow], "op_s") == pytest.approx(3.0)
    # the bracket is the mean of the runs before and after the call
    ramp = run.PassResult(op_s=[3.0], op_cpu_s=[6.0], pace_s=[(ref, ref), (2 * ref, 5 * ref)])
    assert ramp.paced("op_s") == pytest.approx([2.0])
    assert ramp.paced("op_cpu_s") == pytest.approx([2.0])
    # positions are summed after taking each one's median over the passes
    assert run.median_pass([[1, 5], [2, 6], [9, 7]]) == 2 + 6


def _span(name, start, end, parent=None):
    return spans.Span(name, start, end, parent, call=1)


def test_self_time_subtracts_the_union_of_child_spans():
    tree = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, parent=0),
        _span("b", 3.0, 6.0, parent=0),  # overlaps a: children cover [1, 6]
        _span("a.child", 2.0, 3.0, parent=1),
        _span("b", 8.0, 12.0, parent=0),  # runs past its parent: clipped at 10
    ]
    assert spans.self_times(tree) == [10.0 - 5.0 - 2.0, 2.0, 3.0, 1.0, 4.0]
    totals = spans.layer_totals(tree)
    assert totals["b"]["self_s"] == 7.0
    assert totals["b"]["calls"] == 2


def test_tracer_wraps_functions_where_callers_look_them_up():
    sys.path.insert(0, str(run.SRC))
    testers = importlib.import_module("dictatest.testers")
    families = importlib.import_module("dictatest.families")
    original = testers.folded_table
    tracer = spans.Tracer()
    uninstall = tracer.install()
    try:
        f = families.random_folded(4, 1)
        testers.basic_test_prob_exact(f)
    finally:
        uninstall()
    assert testers.folded_table is original
    names = [s.name for s in tracer.spans]
    assert names == ["families.random_folded", "testers.basic_test_prob_exact",
                     "functions.folded_table"]
    exact, folded = tracer.spans[1], tracer.spans[2]
    assert folded.parent == 1 and exact.parent is None
    assert folded.counts == {"points": 16}
    assert exact.counts == {"points": 1 << 16, "bytes": 8 << 12}


def test_import_split_attributes_each_module_to_its_nearest_group():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy.core",
        "import time:        50 |        150 |     numpy",
        "import time:        10 |         10 |       scipy",
        "import time:         4 |          4 |       numpy.linalg",
        "import time:        20 |         34 |     scipy.stats",
        "import time:         3 |          3 |     json",
        "import time:         5 |        192 |   dictatest.functions",
        "import time:         7 |        199 | dictatest",
        "import time:         9 |          9 | site",
    ])
    split = run.import_split(text)
    assert split == {"numpy_s": 154e-6, "scipy_s": 30e-6, "dictatest_s": 15e-6}
