"""Property tests of the deployment text format and the CLI's handling of it."""

import contextlib
import io
import string

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corrsense import (Deployment, FieldSpec, Node, NodeKind, Position,
                       TracingPoint, deployment_from_text, deployment_to_text)
from corrsense.cli import main
from corrsense.deployment import _RECORD_FIELDS

VALID = ["field,10,10", "seed,3", "grid,1,1", "CH,1,5,5", "N,1,2,2", "N,2,8,1",
         "T,1,5,5"]


@st.composite
def deployments(draw):
    field = FieldSpec(draw(st.floats(1.0, 1e5)), draw(st.floats(1.0, 1e5)))

    def positions(n):
        return [Position(draw(st.floats(0.0, field.width)),
                         draw(st.floats(0.0, field.height))) for _ in range(n)]

    ids = st.lists(st.integers(1, 10 ** 6), max_size=6, unique=True)
    head_ids, normal_ids, point_ids = draw(ids), draw(ids), draw(ids)
    return Deployment(
        field=field,
        heads=tuple(Node(i, NodeKind.CLUSTER_HEAD, p)
                    for i, p in zip(head_ids, positions(len(head_ids)))),
        normals=tuple(Node(i, NodeKind.NORMAL, p)
                      for i, p in zip(normal_ids, positions(len(normal_ids)))),
        tracing_points=tuple(TracingPoint(i, p) for i, p in
                             zip(point_ids, positions(len(point_ids)))),
        seed=draw(st.integers(-2 ** 63, 2 ** 63)),
        grid=draw(st.none() | st.tuples(st.integers(1, 50),
                                        st.integers(1, 50))))


@given(deployments())
@settings(max_examples=60, deadline=None)
def test_text_round_trip_is_stable(dep):
    text = deployment_to_text(dep)
    again = deployment_from_text(text)
    assert deployment_to_text(again) == text
    assert deployment_from_text(deployment_to_text(again)) == again


def _is_number(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


junk = st.text(string.ascii_letters, min_size=1, max_size=6).filter(
    lambda t: not _is_number(t))
tags = st.sampled_from(sorted(_RECORD_FIELDS))


@st.composite
def malformed_records(draw):
    """One bad record: an unknown tag, a wrong field count, a non-numeric or
    non-finite value, or a second field/seed/grid header."""
    kind = draw(st.sampled_from(["tag", "count", "non_numeric", "non_finite",
                                 "repeated_header"]))
    if kind == "tag":
        return draw(junk.filter(lambda t: t not in _RECORD_FIELDS)) + ",1,2,3"
    if kind == "repeated_header":
        return draw(st.sampled_from(VALID[:3]))
    tag = draw(tags)
    fields = ["7"] * _RECORD_FIELDS[tag]  # a fresh id, inside the field
    if kind == "count":
        n = draw(st.integers(0, 6).filter(lambda n: n != len(fields)))
        return ",".join([tag] + ["7"] * n)
    fields[draw(st.integers(0, len(fields) - 1))] = draw(
        junk if kind == "non_numeric" else
        st.sampled_from(["inf", "-inf", "nan", "1e999", "-1e999"]))
    return ",".join([tag] + fields)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("text-format")


@given(record=malformed_records(), at=st.integers(0, len(VALID)),
       command=st.sampled_from(["cluster", "accuracy"]))
@example(record="field,inf,7", at=0, command="accuracy")
@example(record="field,7,1e999", at=3, command="cluster")
@example(record="grid,1,1", at=7, command="cluster")
@settings(max_examples=80, deadline=None)
def test_malformed_record_exits_2_without_traceback(workdir, record, at,
                                                    command):
    lines = list(VALID)
    tag = record.split(",")[0]
    if tag in ("field", "seed", "grid") and record not in VALID[:3]:
        lines.remove(next(l for l in VALID if l.startswith(tag + ",")))
    path = workdir / "dep.txt"
    path.write_text("\n".join(lines[:at] + [record] + lines[at:]) + "\n")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "--deployment", str(path)])
    assert code == 2
    assert out.getvalue() == ""
    assert err.getvalue().startswith("corrsense: error:")
    assert err.getvalue().count("\n") == 1 and "Traceback" not in err.getvalue()
