"""Mapping between discrete architecture genotypes and the unit cube.

Each axis of a discrete space holds an ordered list of admissible values.
A genotype (one choice per axis) encodes to a vector in [0, 1]^m by the
normalized index of each choice, and any real vector decodes back to the
nearest genotype, so a continuous optimizer can search a categorical space.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Iterator

import numpy as np


def _value_key(value) -> tuple:
    """What makes two axis values one: ``==``, except that a bool is never a
    number (Python has ``0 == False``); ``1`` and ``1.0`` stay one value."""
    return (isinstance(value, bool), value)


@dataclass(frozen=True)
class Axis:
    name: str
    values: tuple[Any, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        if not self.values:
            raise ValueError(f"axis {self.name!r} needs at least one value")
        try:
            positions = {_value_key(v): k for k, v in enumerate(self.values)}
        except TypeError:
            raise ValueError(
                f"axis {self.name!r} has an unhashable value (a list or a mapping); "
                "values must be numbers, strings, booleans or null"
            ) from None
        if len(positions) != len(self.values):
            raise ValueError(f"axis {self.name!r} has duplicate values")
        object.__setattr__(self, "_positions", positions)

    @property
    def size(self) -> int:
        return len(self.values)

    def index_of(self, value) -> int:
        try:
            return self._positions[_value_key(value)]
        except (KeyError, TypeError):
            raise ValueError(f"value {value!r} is not admissible on axis {self.name!r}") from None


@dataclass(frozen=True)
class Genotype:
    """One choice per axis of a discrete space."""

    choices: tuple[Any, ...]

    def __post_init__(self):
        object.__setattr__(self, "choices", tuple(self.choices))


@dataclass(frozen=True)
class DiscreteSpace:
    axes: tuple[Axis, ...]

    def __post_init__(self):
        object.__setattr__(self, "axes", tuple(self.axes))
        if not self.axes:
            raise ValueError("a discrete space needs at least one axis")
        names = [a.name for a in self.axes]
        if len(set(names)) != len(names):
            raise ValueError("axis names must be unique")

    @property
    def num_axes(self) -> int:
        return len(self.axes)

    @cached_property
    def sizes(self) -> tuple[int, ...]:
        return tuple(a.size for a in self.axes)

    @cached_property
    def _tops(self) -> np.ndarray:
        """Each axis's highest value index, as floats, for encoding and decoding."""
        return np.array(self.sizes, dtype=float) - 1.0

    @property
    def size(self) -> int:
        return math.prod(self.sizes)

    @cached_property
    def strides(self) -> np.ndarray:
        """A genotype's row-major flat index is ``row @ strides`` for its row
        of value indices, as ``np.ravel_multi_index`` gives it, and exact on
        any space: the strides are int64 below 2**63 genotypes and Python
        ints beyond. It keys the scorer's memo and aging evolution's members."""
        strides = [math.prod(self.sizes[k + 1 :]) for k in range(len(self.sizes))]
        return np.array(strides, dtype=np.int64 if self.size < 2**63 else object)

    @cached_property
    def _unravel_columns(self) -> tuple[np.ndarray, np.ndarray]:
        return self.strides[:, None], np.array(self.sizes)[:, None]

    def unravel(self, flat) -> np.ndarray:
        """The ``(rows, num_axes)`` intp value indices of a flat index or of
        each in a 1-D sequence of them; exact past 2**63."""
        strides, sizes = self._unravel_columns
        return (flat // strides % sizes).T.astype(np.intp, copy=False)

    def indices_of(self, genotype: Genotype) -> np.ndarray:
        if len(genotype.choices) != self.num_axes:
            raise ValueError("genotype length does not match the space")
        return np.array(
            [a.index_of(c) for a, c in zip(self.axes, genotype.choices)], dtype=int
        )

    def genotype_from_indices(self, indices) -> Genotype:
        return Genotype(tuple([a.values[int(i)] for a, i in zip(self.axes, indices)]))

    @cached_property
    def _value_arrays(self) -> tuple[np.ndarray, ...]:
        arrays = []
        for axis in self.axes:
            values = np.empty(axis.size, dtype=object)
            for k, value in enumerate(axis.values):
                values[k] = value  # one by one, so tuple values stay whole
            arrays.append(values)
        return tuple(arrays)

    def choices_from_indices(self, indices) -> list[tuple]:
        """The genotype choices of each row of a ``(rows, num_axes)`` matrix
        of value indices, without building ``Genotype`` objects."""
        columns = np.asarray(indices).T
        return list(zip(*(values[col] for values, col in zip(self._value_arrays, columns))))

    def random_genotype(self, rng) -> Genotype:
        rng = np.random.default_rng(rng)
        return Genotype(tuple(a.values[int(rng.integers(a.size))] for a in self.axes))

    def iter_genotypes(self) -> Iterator[Genotype]:
        for combo in itertools.product(*(a.values for a in self.axes)):
            yield Genotype(combo)

    def to_json_dict(self) -> dict:
        return {"axes": [{"name": a.name, "values": list(a.values)} for a in self.axes]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "DiscreteSpace":
        if not isinstance(data, dict) or not isinstance(data.get("axes"), list):
            raise ValueError("space document must be an object with an 'axes' list")
        axes = []
        for entry in data["axes"]:
            if not isinstance(entry, dict) or "name" not in entry or "values" not in entry:
                raise ValueError("each axis needs 'name' and 'values'")
            if not isinstance(entry["name"], str):
                raise ValueError(f"axis name {entry['name']!r} must be a string")
            # a string or an object would otherwise become its characters or keys
            if not isinstance(entry["values"], list):
                raise ValueError(f"axis {entry['name']!r} needs 'values' as a list")
            # json also reads NaN, Infinity and integers beyond the float range
            if any(
                isinstance(v, (int, float)) and not -sys.float_info.max <= v <= sys.float_info.max
                for v in entry["values"]
            ):
                raise ValueError(f"axis {entry['name']!r} has a number that is not finite as a float")
            axes.append(Axis(entry["name"], tuple(entry["values"])))
        return cls(tuple(axes))


def genotype_to_dict(genotype: Genotype, space: DiscreteSpace) -> dict:
    space.indices_of(genotype)  # membership check
    return {a.name: c for a, c in zip(space.axes, genotype.choices)}


def encode(genotype: Genotype, space: DiscreteSpace) -> np.ndarray:
    """Map a genotype to [0, 1]^m by normalized value index; see
    ``encode_indices``."""
    return encode_indices(space.indices_of(genotype)[None], space)[0]


def encode_indices(indices, space: DiscreteSpace) -> np.ndarray:
    """Map each row of a ``(rows, num_axes)`` matrix of value indices to
    [0, 1]^m: index k on an axis with n values maps to k / (n - 1), and a
    single-value axis, which carries no search information, to 0.5."""
    top = space._tops
    return np.where(top > 0, np.asarray(indices) / np.maximum(top, 1.0), 0.5)


def decode_indices(us, space: DiscreteSpace) -> np.ndarray:
    """Map each row of a real matrix to the value indices of the genotype
    with the nearest encoding, as a ``(rows, num_axes)`` integer array.

    Coordinates are clamped into [0, 1] first; index ties round half away
    from zero, i.e. toward the higher index. Single-value axes decode to 0.
    """
    us = np.asarray(us, dtype=float)
    if us.ndim != 2 or us.shape[1] != len(space.sizes):
        raise ValueError("row length does not match the space")
    if np.isnan(us).any():
        raise ValueError("cannot decode a NaN coordinate")
    return np.floor(us.clip(0.0, 1.0) * space._tops + 0.5).astype(np.intp)


def decode(u, space: DiscreteSpace) -> Genotype:
    """Map any real vector to the genotype with the nearest encoding; see
    ``decode_indices`` for the rounding rule."""
    u = np.asarray(u, dtype=float)
    if u.shape != (space.num_axes,):
        raise ValueError("vector length does not match the space")
    return space.genotype_from_indices(decode_indices(u[None], space)[0])


def perturb(u, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Add i.i.d. Gaussian exploration noise per coordinate, clamped to [0, 1].

    The noise is ``sigma`` times one ``standard_normal`` block of ``u``'s
    shape, drawn even when ``sigma`` is 0."""
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    u = np.asarray(u, dtype=float)
    return np.minimum(np.maximum(u + sigma * rng.standard_normal(u.shape), 0.0), 1.0)
