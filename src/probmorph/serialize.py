"""JSON, CSV and key=value config interchange.

Spaces and measures travel as JSON documents

    {"labels": [...], "coords": [[...], ...] | null, "weights": [...]}

(weights absent for a bare space); kernels as

    {"source": <space>, "target": <space>, "rows": [[...], ...]}.

Product-space labels are two-element lists in JSON and tuples in
memory. Datasets are CSV files with the header row "x,y"; empirical
samples over a single space use the one-column header "y". Config
files are key = value lines with '#' comments.
"""
from __future__ import annotations

import csv
import io

from .morphisms import MarkovKernel, SignedKernel
from .spaces import Dataset, FiniteSpace, ProbMeasure, ProductSpace, SignedMeasure


class DataFormatError(ValueError):
    """A data file (CSV or JSON payload) violates the expected schema."""


class ConfigError(ValueError):
    """A config file line or value cannot be interpreted."""


def _label_to_json(label):
    return list(label) if isinstance(label, tuple) else label


def _label_from_json(label):
    return tuple(label) if isinstance(label, list) else label


def space_to_json(space: FiniteSpace) -> dict:
    return {
        "labels": [_label_to_json(lab) for lab in space.labels],
        "coords": None if space.coords is None else space.coords.tolist(),
    }


def space_from_json(doc: dict) -> FiniteSpace:
    try:
        labels = [_label_from_json(lab) for lab in doc["labels"]]
        return FiniteSpace(labels, doc.get("coords"))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:  # a huge JSON int overflows
        raise DataFormatError(f"bad space document: {exc!r}") from exc


def measure_to_json(mu: SignedMeasure) -> dict:
    doc = space_to_json(mu.space)
    doc["weights"] = mu.weights.tolist()
    return doc


def measure_from_json(doc: dict) -> SignedMeasure:
    return _measure_from_json(doc, SignedMeasure)


def prob_measure_from_json(doc: dict, space: FiniteSpace | None = None) -> ProbMeasure:
    """A probability measure document; with `space`, a measure on that space.

    Given a space, a document without labels is read on it, and one with
    labels must describe it, labels and coordinates alike.
    """
    return _measure_from_json(doc, ProbMeasure, space)


def _measure_from_json(doc, cls, space: FiniteSpace | None = None):
    """A measure document as a cls; any rejection is a DataFormatError."""
    if not isinstance(doc, dict):
        raise DataFormatError("a measure document must be a JSON object")
    if space is None or "labels" in doc:
        described = space_from_json(doc)
        if space is None:
            space = described
        elif described != space:
            raise DataFormatError("the measure document's space does not match the expected space")
    if "weights" not in doc:
        raise DataFormatError("measure document lacks weights")
    try:
        return cls(space, doc["weights"])
    except (TypeError, ValueError, OverflowError) as exc:
        raise DataFormatError(f"bad measure document: {exc}") from exc


def kernel_to_json(T: SignedKernel) -> dict:
    return {
        "source": space_to_json(T.source),
        "target": space_to_json(T.target),
        "rows": T.matrix.tolist(),
    }


def kernel_from_json(doc: dict) -> MarkovKernel:
    if not isinstance(doc, dict):
        raise DataFormatError("a kernel document must be a JSON object")
    for key in ("source", "target", "rows"):
        if key not in doc:
            raise DataFormatError(f"kernel document lacks {key!r}")
    source = space_from_json(doc["source"])
    target = space_from_json(doc["target"])
    try:
        return MarkovKernel(source, target, doc["rows"])
    except (TypeError, ValueError, OverflowError) as exc:
        raise DataFormatError(f"bad kernel document: {exc}") from exc


def dataset_to_csv(S: Dataset) -> str:
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["x", "y"])
    writer.writerows(S.pairs)
    return out.getvalue()


def _csv_samples(text: str, header: tuple[str, ...], spaces: tuple) -> list[tuple]:
    """The samples of a CSV with the given header, field k a label of spaces[k].

    Bad lines are reported by their 1-based record numbers.
    """
    reader = csv.reader(io.StringIO(text))
    try:
        rows = [(i + 1, r) for i, r in enumerate(reader) if r]
    except csv.Error as exc:  # a field above the csv module's size limit, for one
        raise DataFormatError(f"line {reader.line_num}: {exc}") from exc
    if not rows or tuple(c.strip() for c in rows[0][1]) != header:
        raise DataFormatError(f"line 1: expected the header '{','.join(header)}'")
    samples = []
    bad = []
    fields = f"{len(header)} field" + "s" * (len(header) > 1)
    for lineno, r in rows[1:]:
        if len(r) != len(header):
            raise DataFormatError(f"line {lineno}: expected {fields}, got {len(r)}")
        sample = tuple(c.strip() for c in r)
        if all(lab in space for lab, space in zip(sample, spaces)):
            samples.append(sample)
        else:
            bad.append(lineno)
    if bad:
        raise DataFormatError(f"unknown labels on lines {bad}")
    if not samples:
        raise DataFormatError("no samples after the header")
    return samples


def dataset_from_csv(text: str, space: ProductSpace) -> Dataset:
    """Parse an "x,y" CSV into a Dataset, reporting bad lines by number."""
    return Dataset(space, _csv_samples(text, ("x", "y"), (space.left, space.right)))


def labels_from_csv(text: str, space: FiniteSpace) -> list:
    """Parse a one-column "y" CSV of sample labels over a space."""
    return [lab for (lab,) in _csv_samples(text, ("y",), (space,))]


def parse_config(text: str) -> dict[str, str]:
    """key = value lines; '#' starts a comment; blank lines ignored."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        out[key] = value.strip()
    return out


def parse_label_list(value: str) -> list[str]:
    labels = [part.strip() for part in value.split(",")]
    if any(not lab for lab in labels):
        raise ConfigError(f"empty label in {value!r}")
    return labels


def parse_coord_list(value: str) -> list[list[float]]:
    """Points split by ';', vector components by ','."""
    try:
        return [
            [float(c) for c in point.split(",")] for point in value.split(";") if point.strip()
        ]
    except ValueError as exc:
        raise ConfigError(f"bad coordinate list {value!r}: {exc}") from exc


def space_from_config(cfg: dict[str, str], prefix: str) -> FiniteSpace:
    """Build a space from '<prefix>_labels' and optional '<prefix>_coords'."""
    key = f"{prefix}_labels"
    if key not in cfg:
        raise ConfigError(f"missing config key {key!r}")
    labels = parse_label_list(cfg[key])
    coords_key = f"{prefix}_coords"
    coords = parse_coord_list(cfg[coords_key]) if coords_key in cfg else None
    try:
        return FiniteSpace(labels, coords)
    except ValueError as exc:
        raise ConfigError(f"bad space under {prefix!r}: {exc}") from exc
