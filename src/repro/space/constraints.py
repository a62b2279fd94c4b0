"""Known-constraint predicates over configurations.

A *known constraint* (Sec. 4.2) is a predicate over a configuration that is
known before the optimization starts, e.g. "the tile size must divide the
loop bound".  BaCO only ever proposes configurations satisfying all known
constraints, so its surrogate model trains exclusively on feasible points.

Constraints can be expressed either as

* a Python expression string over the parameter names, evaluated in a
  restricted namespace (``Constraint("p1 >= p2")``), or
* an arbitrary callable taking a configuration dictionary
  (``Constraint.from_callable(lambda cfg: cfg["p1"] >= cfg["p2"], ["p1", "p2"])``).

Each constraint records the set of parameter names it involves; the
Chain-of-Trees builder uses those sets to group co-dependent parameters.
"""

from __future__ import annotations

import ast
import math
import operator
from functools import reduce
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "Constraint",
    "ConstraintError",
    "extract_variables",
    "compile_column_evaluator",
]


class ConstraintError(ValueError):
    """Raised when a constraint expression is malformed."""


_ALLOWED_FUNCTIONS: dict[str, Any] = {
    "abs": abs,
    "min": min,
    "max": max,
    "len": len,
    "log": math.log,
    "log2": math.log2,
    "sqrt": math.sqrt,
    "floor": math.floor,
    "ceil": math.ceil,
    "pow": pow,
}

#: Shared globals for the scalar ``eval`` path, built once at import time:
#: rebuilding the ``{"__builtins__": {}}`` + functions namespace per
#: ``evaluate`` call used to dominate the cost of cheap constraints.
#: ``eval`` requires a real dict for globals; nothing may mutate this one.
_SCALAR_GLOBALS: dict[str, Any] = {"__builtins__": {}, **_ALLOWED_FUNCTIONS}

_ALLOWED_NODE_TYPES = (
    ast.Expression,
    ast.BoolOp, ast.And, ast.Or,
    ast.UnaryOp, ast.Not, ast.USub, ast.UAdd,
    ast.BinOp, ast.Add, ast.Sub, ast.Mult, ast.Div, ast.FloorDiv, ast.Mod, ast.Pow,
    ast.Compare, ast.Eq, ast.NotEq, ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.In, ast.NotIn,
    ast.Call, ast.Name, ast.Load, ast.Constant,
    ast.Tuple, ast.List, ast.Subscript, ast.Index, ast.Slice,
    ast.IfExp,
)


def _validate_expression(tree: ast.Expression) -> None:
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_NODE_TYPES):
            raise ConstraintError(
                f"disallowed syntax {type(node).__name__!r} in constraint expression"
            )
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.func.id not in _ALLOWED_FUNCTIONS:
                raise ConstraintError("only whitelisted functions may be called in constraints")


def extract_variables(expression: str) -> frozenset[str]:
    """Return the parameter names referenced by a constraint expression."""
    tree = ast.parse(expression, mode="eval")
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id not in _ALLOWED_FUNCTIONS:
            names.add(node.id)
    return frozenset(names)


class Constraint:
    """A boolean predicate over a configuration dictionary."""

    def __init__(self, expression: str, name: str | None = None) -> None:
        try:
            tree = ast.parse(expression, mode="eval")
        except SyntaxError as exc:
            raise ConstraintError(f"invalid constraint expression {expression!r}: {exc}") from exc
        _validate_expression(tree)
        self.expression = expression
        self.name = name or expression
        self.variables = extract_variables(expression)
        if not self.variables:
            raise ConstraintError(f"constraint {expression!r} references no parameters")
        self._code = compile(tree, filename="<constraint>", mode="eval")
        self._callable: Callable[[Mapping[str, Any]], bool] | None = None
        self._column_evaluator: ColumnEvaluator | None = None

    @classmethod
    def from_callable(
        cls,
        func: Callable[[Mapping[str, Any]], bool],
        variables: Sequence[str],
        name: str | None = None,
    ) -> "Constraint":
        """Wrap an arbitrary predicate; ``variables`` lists the parameters it reads."""
        if not variables:
            raise ConstraintError("callable constraints must declare their variables")
        obj = cls.__new__(cls)
        obj.expression = name or getattr(func, "__name__", "<callable>")
        obj.name = name or obj.expression
        obj.variables = frozenset(variables)
        obj._code = None
        obj._callable = func
        obj._column_evaluator = None
        return obj

    def evaluate(self, configuration: Mapping[str, Any]) -> bool:
        """Evaluate the constraint; missing variables raise ``KeyError``.

        This scalar path is the *reference oracle* for the compiled column
        evaluator (:meth:`compile_columns`): the two must agree on every full
        configuration, and tests pin that agreement.
        """
        if self._callable is not None:
            return bool(self._callable(configuration))
        namespace = {var: configuration[var] for var in self.variables}
        return bool(eval(self._code, _SCALAR_GLOBALS, namespace))  # noqa: S307

    def is_applicable(self, configuration: Mapping[str, Any]) -> bool:
        """Whether all referenced parameters are present in ``configuration``."""
        return all(var in configuration for var in self.variables)

    def compile_columns(self) -> "ColumnEvaluator | None":
        """Compile the expression AST into a numpy evaluator over columns.

        The evaluator maps ``{parameter name: value column}`` (one array entry
        per configuration, all columns equally long) to a boolean feasibility
        mask, replacing one Python ``eval`` per configuration with a handful
        of array operations per batch.  Compilation happens once and is
        cached; callable-based constraints cannot be compiled and return
        ``None`` (callers fall back to the scalar oracle).
        """
        if self._callable is not None:
            return None
        if self._column_evaluator is None:
            body = _compile_column_node(ast.parse(self.expression, mode="eval").body)

            def evaluate_columns(columns: Mapping[str, Any]) -> np.ndarray:
                # numpy warnings (0/0 inside a masked-out branch of an IfExp,
                # overflow in a discarded comparison operand) are expected:
                # the scalar oracle would short-circuit past them
                with np.errstate(all="ignore"):
                    out = body(columns)
                return np.asarray(out, dtype=bool)

            self._column_evaluator = evaluate_columns
        return self._column_evaluator

    def __call__(self, configuration: Mapping[str, Any]) -> bool:
        return self.evaluate(configuration)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Constraint({self.expression!r})"


# ---------------------------------------------------------------------------
# compiled column evaluation
# ---------------------------------------------------------------------------

#: Maps ``{parameter name: column}`` to a boolean mask over the batch.
ColumnEvaluator = Callable[[Mapping[str, Any]], np.ndarray]


def compile_column_evaluator(constraint: "Constraint") -> ColumnEvaluator:
    """Batched evaluator for ``constraint``, with a scalar-oracle fallback.

    Expression constraints compile to pure array code; callable constraints
    (which cannot be introspected) are evaluated per row against dictionaries
    assembled from the columns — correct, but only as fast as the callable.
    """
    compiled = constraint.compile_columns()
    if compiled is not None:
        return compiled
    variables = sorted(constraint.variables)

    def evaluate_scalar(columns: Mapping[str, Any]) -> np.ndarray:
        pulled = [(name, columns[name]) for name in variables]
        n = len(pulled[0][1])
        return np.fromiter(
            (
                constraint.evaluate({name: column[i] for name, column in pulled})
                for i in range(n)
            ),
            dtype=bool,
            count=n,
        )

    return evaluate_scalar


def _box(value: Any) -> Any:
    """Wrap tuple/list operands so comparisons stay elementwise.

    Permutation columns are object arrays whose entries are tuples; comparing
    them against a literal ``(0, 1, 2)`` must compare *each entry* to the
    tuple instead of broadcasting the literal's elements.
    """
    if isinstance(value, (tuple, list)):
        boxed = np.empty((), dtype=object)
        boxed[()] = tuple(value)
        return boxed
    return value


def _eq(a: Any, b: Any) -> Any:
    return np.asarray(_box(a) == _box(b))


def _ne(a: Any, b: Any) -> Any:
    return np.asarray(_box(a) != _box(b))


def _contains(item: Any, collection: Any) -> Any:
    """Elementwise ``item in collection`` (equality-based, like the oracle)."""
    if isinstance(collection, np.ndarray) and collection.dtype == object:
        return np.frompyfunc(lambda x, c: x in c, 2, 1)(_box(item), collection)
    members = list(collection) if isinstance(collection, (tuple, list)) else [collection]
    if not members:
        return np.zeros(np.shape(item) or (), dtype=bool)
    return reduce(np.logical_or, [_eq(item, member) for member in members])


def _elementwise_min(*args: Any) -> Any:
    if len(args) == 1:
        (arg,) = args
        if isinstance(arg, np.ndarray) and arg.dtype == object:
            return np.frompyfunc(min, 1, 1)(arg)
        if isinstance(arg, (tuple, list)):
            return reduce(np.minimum, arg)
        return min(arg)
    return reduce(np.minimum, args)


def _elementwise_max(*args: Any) -> Any:
    if len(args) == 1:
        (arg,) = args
        if isinstance(arg, np.ndarray) and arg.dtype == object:
            return np.frompyfunc(max, 1, 1)(arg)
        if isinstance(arg, (tuple, list)):
            return reduce(np.maximum, arg)
        return max(arg)
    return reduce(np.maximum, args)


def _elementwise_len(value: Any) -> Any:
    if isinstance(value, np.ndarray) and value.dtype == object:
        return np.frompyfunc(len, 1, 1)(value).astype(float)
    return len(value)


def _getitem(value: Any, index: Any) -> Any:
    if isinstance(value, np.ndarray) and value.dtype == object:
        return np.frompyfunc(operator.getitem, 2, 1)(value, index)
    return value[index]


#: numpy counterparts of the scalar whitelist (identical math, batched)
_COLUMN_FUNCTIONS: dict[str, Callable[..., Any]] = {
    "abs": np.absolute,
    "min": _elementwise_min,
    "max": _elementwise_max,
    "len": _elementwise_len,
    "log": np.log,
    "log2": np.log2,
    "sqrt": np.sqrt,
    "floor": np.floor,
    "ceil": np.ceil,
    "pow": np.power,
}

_BIN_OPS: dict[type, Callable[[Any, Any], Any]] = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.FloorDiv: operator.floordiv,
    ast.Mod: operator.mod,
    ast.Pow: operator.pow,
}

_COMPARE_OPS: dict[type, Callable[[Any, Any], Any]] = {
    ast.Eq: _eq,
    ast.NotEq: _ne,
    ast.Lt: operator.lt,
    ast.LtE: operator.le,
    ast.Gt: operator.gt,
    ast.GtE: operator.ge,
    ast.In: _contains,
    ast.NotIn: lambda a, b: np.logical_not(_contains(a, b)),
}


def _compile_column_node(node: ast.AST) -> Callable[[Mapping[str, Any]], Any]:
    """Recursively close over an (already validated) expression AST.

    Compilation happens once per constraint; the returned closures perform no
    AST inspection at call time.  Semantics mirror the scalar oracle with two
    deliberate exceptions: ``and`` / ``or`` evaluate both operands (no
    short-circuiting — guarded by ``errstate`` in the caller), and chained
    comparisons evaluate every link.
    """
    if isinstance(node, ast.Constant):
        value = node.value
        return lambda env: value
    if isinstance(node, ast.Name):
        name = node.id
        return lambda env: env[name]
    if isinstance(node, (ast.Tuple, ast.List)):
        elements = [_compile_column_node(el) for el in node.elts]
        return lambda env: tuple(el(env) for el in elements)
    if isinstance(node, ast.BoolOp):
        parts = [_compile_column_node(value) for value in node.values]
        combine = np.logical_and if isinstance(node.op, ast.And) else np.logical_or
        return lambda env: reduce(combine, (part(env) for part in parts))
    if isinstance(node, ast.UnaryOp):
        operand = _compile_column_node(node.operand)
        if isinstance(node.op, ast.Not):
            return lambda env: np.logical_not(operand(env))
        if isinstance(node.op, ast.USub):
            return lambda env: operator.neg(operand(env))
        return operand  # UAdd
    if isinstance(node, ast.BinOp):
        op = _BIN_OPS[type(node.op)]
        left = _compile_column_node(node.left)
        right = _compile_column_node(node.right)
        return lambda env: op(left(env), right(env))
    if isinstance(node, ast.Compare):
        first = _compile_column_node(node.left)
        links = [
            (_COMPARE_OPS[type(op)], _compile_column_node(comparator))
            for op, comparator in zip(node.ops, node.comparators)
        ]

        def compare(env: Mapping[str, Any]) -> Any:
            left_value = first(env)
            result = None
            for op, comparator in links:
                right_value = comparator(env)
                link = op(left_value, right_value)
                result = link if result is None else np.logical_and(result, link)
                left_value = right_value
            return result

        return compare
    if isinstance(node, ast.Call):
        func = _COLUMN_FUNCTIONS[node.func.id]  # type: ignore[union-attr]
        args = [_compile_column_node(arg) for arg in node.args]
        return lambda env: func(*(arg(env) for arg in args))
    if isinstance(node, ast.IfExp):
        test = _compile_column_node(node.test)
        then = _compile_column_node(node.body)
        other = _compile_column_node(node.orelse)
        return lambda env: np.where(
            np.asarray(test(env), dtype=bool), then(env), other(env)
        )
    if isinstance(node, ast.Subscript):
        value = _compile_column_node(node.value)
        if isinstance(node.slice, ast.Slice):
            lower = _compile_column_node(node.slice.lower) if node.slice.lower else None
            upper = _compile_column_node(node.slice.upper) if node.slice.upper else None
            step = _compile_column_node(node.slice.step) if node.slice.step else None
            return lambda env: _getitem(
                value(env),
                slice(
                    lower(env) if lower else None,
                    upper(env) if upper else None,
                    step(env) if step else None,
                ),
            )
        index_node = node.slice.value if isinstance(node.slice, ast.Index) else node.slice
        index = _compile_column_node(index_node)
        return lambda env: _getitem(value(env), index(env))
    raise ConstraintError(  # pragma: no cover - _validate_expression guards this
        f"cannot compile node {type(node).__name__!r} for column evaluation"
    )


def group_codependent(
    parameter_names: Iterable[str], constraints: Iterable[Constraint]
) -> list[list[str]]:
    """Partition parameters into groups connected by shared constraints.

    Parameters that never co-occur in a constraint end up in singleton
    groups; each group with more than one member (or any constraint touching
    it) becomes a tree of the Chain-of-Trees.
    """
    names = list(parameter_names)
    index = {n: i for i, n in enumerate(names)}
    parent = list(range(len(names)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri

    for constraint in constraints:
        involved = [v for v in constraint.variables if v in index]
        for a, b in zip(involved, involved[1:]):
            union(index[a], index[b])

    groups: dict[int, list[str]] = {}
    for name in names:
        groups.setdefault(find(index[name]), []).append(name)
    # keep the original parameter ordering inside and across groups
    ordered = sorted(groups.values(), key=lambda grp: index[grp[0]])
    for grp in ordered:
        grp.sort(key=lambda n: index[n])
    return ordered
