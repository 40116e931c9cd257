import numpy as np
import pytest

from probmorph.morphisms import MarkovKernel
from probmorph.serialize import (
    ConfigError,
    DataFormatError,
    dataset_from_csv,
    dataset_to_csv,
    kernel_from_json,
    kernel_to_json,
    labels_from_csv,
    measure_from_json,
    measure_to_json,
    parse_config,
    parse_coord_list,
    parse_label_list,
    prob_measure_from_json,
    space_from_config,
    space_from_json,
    space_to_json,
)
from probmorph.spaces import (
    Dataset,
    FiniteSpace,
    ProbMeasure,
    ProductSpace,
    SignedMeasure,
)

XY = ProductSpace(FiniteSpace(["a", "b"]), FiniteSpace(["c", "d"]))


def test_space_round_trip():
    sp = FiniteSpace(["a", "b"], coords=[[0.0, 1.0], [2.0, 3.0]])
    assert space_from_json(space_to_json(sp)) == sp
    bare = FiniteSpace([1, 2, 3])
    assert space_from_json(space_to_json(bare)) == bare


def test_measure_round_trip():
    sp = FiniteSpace(["a", "b"])
    mu = SignedMeasure(sp, [0.5, -0.2])
    back = measure_from_json(measure_to_json(mu))
    assert back.space == sp
    assert np.array_equal(back.weights, mu.weights)

    p = ProbMeasure(sp, [0.25, 0.75])
    back = prob_measure_from_json(measure_to_json(p))
    assert isinstance(back, ProbMeasure)


BAD_MEASURE_DOCS = {
    "weights-object": {"labels": ["a"], "weights": {"a": 1}},  # the constructor raises TypeError
    "count": {"labels": ["a"], "weights": [1.0, 0.0]},
    "list": ["a", "b"],
    "number": 3,
}


@pytest.mark.parametrize(
    "load, doc",
    [
        *((load, doc) for load in (measure_from_json, prob_measure_from_json)
          for doc in BAD_MEASURE_DOCS.values()),
        # math.fsum overflows; a signed measure takes these weights
        (prob_measure_from_json, {"labels": ["a", "b"], "weights": [1e308, 1e308]}),
    ],
    ids=[
        *(f"{name}-{doc}" for name in ("signed", "prob") for doc in BAD_MEASURE_DOCS),
        "prob-overflow",
    ],
)
def test_measure_documents_reject_with_data_format_error(load, doc):
    with pytest.raises(DataFormatError):
        load(doc)


def test_product_labels_survive_json():
    mu = ProbMeasure(XY, [0.1, 0.2, 0.3, 0.4])
    doc = measure_to_json(mu)
    back = measure_from_json(doc)
    assert back.space.labels == XY.labels
    assert np.array_equal(back.weights, mu.weights)


def test_kernel_round_trip():
    t = MarkovKernel(
        FiniteSpace(["a", "b"]),
        FiniteSpace(["c", "d"], coords=[[0.0], [1.0]]),
        [[0.5, 0.5], [0.1, 0.9]],
    )
    back = kernel_from_json(kernel_to_json(t))
    assert isinstance(back, MarkovKernel)
    assert back.source == t.source and back.target == t.target
    assert np.array_equal(back.matrix, t.matrix)


def test_kernel_from_json_validates():
    doc = kernel_to_json(
        MarkovKernel(FiniteSpace(["a"]), FiniteSpace(["c", "d"]), [[0.5, 0.5]])
    )
    doc["rows"] = [[0.7, 0.7]]
    with pytest.raises(DataFormatError):
        kernel_from_json(doc)


def test_dataset_csv_round_trip():
    S = Dataset(XY, [("a", "c"), ("b", "d"), ("a", "d")])
    text = dataset_to_csv(S)
    assert text.splitlines()[0] == "x,y"
    back = dataset_from_csv(text, XY)
    assert back.pairs == S.pairs


def test_dataset_csv_reports_bad_lines():
    with pytest.raises(DataFormatError, match="header"):
        dataset_from_csv("u,v\na,c\n", XY)
    with pytest.raises(DataFormatError, match="2"):
        dataset_from_csv("x,y\na\n", XY)
    with pytest.raises(DataFormatError, match=r"\[2, 4\]"):
        dataset_from_csv("x,y\na,zz\nb,c\na,qq\n", XY)


def test_labels_csv():
    sp = FiniteSpace(["u", "v"])
    assert labels_from_csv("y\nu\nv\nu\n", sp) == ["u", "v", "u"]
    with pytest.raises(DataFormatError):
        labels_from_csv("z\nu\n", sp)
    with pytest.raises(DataFormatError):
        labels_from_csv("y\n", sp)  # empty body


def test_parse_config():
    cfg = parse_config("# comment\nkernel = gaussian\n\nsigma=2.0\n")
    assert cfg == {"kernel": "gaussian", "sigma": "2.0"}
    with pytest.raises(ConfigError, match="3"):
        parse_config("a = 1\n# fine\nbroken line\n")


def test_parse_lists():
    assert parse_label_list("a, b ,c") == ["a", "b", "c"]
    assert parse_coord_list("0, 1; 2, 3") == [[0.0, 1.0], [2.0, 3.0]]
    with pytest.raises(ConfigError):
        parse_coord_list("0; x")


def test_space_from_config():
    cfg = {"y_labels": "u, v", "y_coords": "0; 1"}
    sp = space_from_config(cfg, "y")
    assert sp.labels == ("u", "v")
    assert np.array_equal(sp.coords, [[0.0], [1.0]])
    with pytest.raises(ConfigError):
        space_from_config({}, "y")
    with pytest.raises(ConfigError):
        space_from_config({"y_labels": "u, v", "y_coords": "0"}, "y")


# every refusal of the module that no test above reaches: (call, exception type, message fragment)
SERIALIZE_REFUSALS = {
    "space-without-labels": (lambda: space_from_json({}), DataFormatError, "bad space document: KeyError('labels')"),
    "kernel-without-rows": (
        lambda: kernel_from_json({"source": space_to_json(XY.left), "target": space_to_json(XY.right)}),
        DataFormatError, "kernel document lacks 'rows'",
    ),
    "config-empty-key": (lambda: parse_config("a = 1\n= 3\n"), ConfigError, "line 2: empty key"),
    # json.loads keeps a 401-digit literal as an int, whose float conversion overflows
    "space-coordinate-past-float": (
        lambda: space_from_json({"labels": ["a"], "coords": [[10**400]]}),
        DataFormatError, "int too large to convert to float",
    ),
    "kernel-row-past-float": (
        lambda: kernel_from_json({**kernel_to_json(MarkovKernel(XY.left, XY.right, [[0.5, 0.5]] * 2)),
                                  "rows": [[10**400, 0], [0.5, 0.5]]}),
        DataFormatError, "int too large to convert to float",
    ),
    "measure-weight-past-float": (
        lambda: prob_measure_from_json({"labels": ["a", "b"], "weights": [10**400, 0]}),
        DataFormatError, "int too large to convert to float",
    ),
}


@pytest.mark.parametrize("case", SERIALIZE_REFUSALS.values(), ids=list(SERIALIZE_REFUSALS))
def test_serialize_refusals(case):
    call, exc, fragment = case
    with pytest.raises(exc) as info:
        call()
    assert info.type is exc and fragment in str(info.value)
