"""snapshot-drift: mutable tuner state must ride the session snapshot.

The restore contract (PRs 3/6/9): a snapshot restores in three steps,
(1) ``_reset_state``, (2) one ``_observe`` call with the whole history,
(3) ``_load_state_dict``, which loads what ``_state_dict`` wrote and
rebuilds the caches that depend on both.  That gives every mutable
attribute of a ``Tuner`` subclass exactly three legal lifecycles:

* **observe-rebuilt** — mutated in ``_observe`` *and* reset in
  ``_reset_state`` (e.g. encoded-row caches): observing the history
  regenerates it;
* **snapshot-carried** — mutated on the ask path (``_plan`` / ``_propose``
  and anything they call) or in a ``set_*`` policy setter: must be read in
  ``_state_dict`` *and* written back in ``_load_state_dict``, because a
  restore never re-runs the ask path;
* **ephemeral** — only ever reset to literals; carries no information.

Every PR from 6 through 9 added cadence/cache/pool state and had to
hand-audit this; this rule does the audit mechanically, resolving the
subclass hierarchy across files and tracking local aliases
(``st = self._policy_state; st[k] = v``).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable

from ..base import Finding, Rule, register_rule
from ..source import Project, SourceModule

RESET_METHODS = {"_reset_state"}
OBSERVE_METHODS = {"_observe"}
STATE_READ_METHODS = {"_state_dict"}
RESTORE_METHODS = {"_load_state_dict"}
ASK_ROOTS = {"_plan", "_propose"}

#: base-class plumbing whose persistence the session layer owns directly
#: (the RNG bit-state and profiler ride the session snapshot themselves)
EXEMPT_ATTRS = {
    "_rng",
    "phase_profiler",
    "_history",
    "space",
    "seed",
    "name",
}

#: method names that mutate their receiver in place
_MUTATOR_NAMES = {
    "append",
    "appendleft",
    "extend",
    "extendleft",
    "add",
    "insert",
    "update",
    "setdefault",
    "pop",
    "popleft",
    "popitem",
    "remove",
    "discard",
    "push",
    "sort",
    "reverse",
}
_MUTATOR_PREFIXES = ("set_", "extend_", "refresh_")
#: in-place calls that only empty a container — they count as a reset, and
#: can never introduce state that needs to ride the snapshot
_RESET_OPS = {"clear", "reset"}


def _is_mutator(name: str) -> bool:
    return name in _MUTATOR_NAMES or name.startswith(_MUTATOR_PREFIXES)


def _is_reset_value(expr: ast.expr) -> bool:
    """Literal-ish values: resetting to them cannot create snapshot state."""
    if isinstance(expr, ast.Constant):
        return True
    if isinstance(expr, ast.UnaryOp):
        return _is_reset_value(expr.operand)
    if isinstance(expr, (ast.List, ast.Tuple, ast.Set)):
        return all(_is_reset_value(e) for e in expr.elts)
    if isinstance(expr, ast.Dict):
        return all(
            k is not None and _is_reset_value(k) and _is_reset_value(v)
            for k, v in zip(expr.keys, expr.values)
        )
    if isinstance(expr, ast.Call) and not expr.keywords:
        name = expr.func.id if isinstance(expr.func, ast.Name) else None
        if name in ("set", "dict", "list", "tuple", "deque", "frozenset"):
            return all(_is_reset_value(a) for a in expr.args)
    return False


@dataclass
class _MethodOps:
    """Attribute operations of one method body."""

    #: attr -> first line of a state-carrying write (store or mutator call)
    writes: dict[str, int] = field(default_factory=dict)
    #: attr -> first line of a reset (literal store or clear()/reset())
    resets: dict[str, int] = field(default_factory=dict)
    reads: set[str] = field(default_factory=set)
    calls: set[str] = field(default_factory=set)  # self.<method>() callees

    def merge(self, other: "_MethodOps") -> None:
        for attr, line in other.writes.items():
            self.writes.setdefault(attr, line)
        for attr, line in other.resets.items():
            self.resets.setdefault(attr, line)
        self.reads |= other.reads
        self.calls |= other.calls


def _self_attr_of(node: ast.expr) -> str | None:
    while isinstance(node, ast.Subscript):
        node = node.value
    chain: list[str] = []
    while isinstance(node, ast.Attribute):
        chain.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id == "self" and chain:
        return chain[-1]
    return None


class _OpsCollector(ast.NodeVisitor):
    """Collect attr ops for one method, tracking ``x = self.attr`` aliases."""

    def __init__(self) -> None:
        self.ops = _MethodOps()
        self._aliases: dict[str, str] = {}

    def _resolve(self, node: ast.expr) -> str | None:
        """Attr named by ``self.X``, ``self.X[...]`` or a tracked alias."""
        attr = _self_attr_of(node)
        if attr is not None:
            return attr
        base = node
        while isinstance(base, ast.Subscript):
            base = base.value
        if isinstance(base, ast.Name):
            return self._aliases.get(base.id)
        return None

    def _resolve_store(self, node: ast.expr) -> str | None:
        """Like :meth:`_resolve`, but a bare local name is a rebinding of the
        local, not a write through the alias."""
        if isinstance(node, ast.Name):
            return None
        return self._resolve(node)

    def _record_write(self, attr: str, line: int, reset: bool) -> None:
        if reset:
            self.ops.resets.setdefault(attr, line)
        else:
            self.ops.writes.setdefault(attr, line)

    def visit_Assign(self, node: ast.Assign) -> None:
        # alias tracking: st = self._policy_state
        if (
            len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and _self_attr_of(node.value) is not None
            and isinstance(node.value, ast.Attribute)
        ):
            self._aliases[node.targets[0].id] = node.value.attr
        reset = _is_reset_value(node.value)
        for target in node.targets:
            attr = self._resolve_store(target)
            if attr is not None:
                # a[k] = v is a mutation, never a reset, even for literal v
                subscript = isinstance(target, ast.Subscript)
                self._record_write(attr, node.lineno, reset and not subscript)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        attr = self._resolve_store(node.target)
        if attr is not None:
            self._record_write(attr, node.lineno, reset=False)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            attr = self._resolve_store(node.target)
            if attr is not None:
                self._record_write(attr, node.lineno, _is_reset_value(node.value))
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            attr = self._resolve_store(target)
            if attr is not None:
                self._record_write(attr, node.lineno, reset=False)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            receiver = self._resolve(func.value)
            if receiver is not None:
                if func.attr in _RESET_OPS:
                    self._record_write(receiver, node.lineno, reset=True)
                elif _is_mutator(func.attr):
                    self._record_write(receiver, node.lineno, reset=False)
            if isinstance(func.value, ast.Name) and func.value.id == "self":
                self.ops.calls.add(func.attr)
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.ctx, ast.Load):
            attr = _self_attr_of(node)
            if attr is not None:
                self.ops.reads.add(attr)
        self.generic_visit(node)


def _collect_ops(method: ast.FunctionDef) -> _MethodOps:
    collector = _OpsCollector()
    for stmt in method.body:
        collector.visit(stmt)
    return collector.ops


@register_rule
class SnapshotDrift(Rule):
    id = "snapshot-drift"
    summary = "ask-path tuner state must be carried by _state_dict and restore"
    invariant = "snapshot/restore completeness of Tuner subclasses (PRs 3/6/9)"

    def check(self, project: Project) -> Iterable[Finding]:
        classes: dict[str, tuple[SourceModule, ast.ClassDef]] = {}
        for module in project.modules:
            for node in ast.walk(module.tree):
                if isinstance(node, ast.ClassDef):
                    classes.setdefault(node.name, (module, node))

        tuner_like = self._tuner_closure(classes)
        for name in sorted(tuner_like):
            if name == "Tuner":
                continue  # the abstract base is the contract, not a subject
            yield from self._check_class(name, classes)

    @staticmethod
    def _tuner_closure(classes) -> set[str]:
        tuner_like = {"Tuner"}
        changed = True
        while changed:
            changed = False
            for name, (_module, node) in classes.items():
                if name in tuner_like:
                    continue
                for base in node.bases:
                    base_name = (
                        base.id
                        if isinstance(base, ast.Name)
                        else base.attr
                        if isinstance(base, ast.Attribute)
                        else None
                    )
                    if base_name in tuner_like:
                        tuner_like.add(name)
                        changed = True
                        break
        return tuner_like

    @staticmethod
    def _family(name: str, classes) -> list[tuple[SourceModule, ast.ClassDef]]:
        family = []
        queue, seen = [name], set()
        while queue:
            current = queue.pop(0)
            if current in seen or current not in classes:
                continue
            seen.add(current)
            module, node = classes[current]
            family.append((module, node))
            for base in node.bases:
                if isinstance(base, ast.Name):
                    queue.append(base.id)
                elif isinstance(base, ast.Attribute):
                    queue.append(base.attr)
        return family

    def _check_class(self, name: str, classes) -> Iterable[Finding]:
        family = self._family(name, classes)
        module, cls = family[0]  # the subclass itself anchors findings

        ops_by_method: dict[str, _MethodOps] = {}
        for _mod, node in family:
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    merged = ops_by_method.setdefault(item.name, _MethodOps())
                    merged.merge(_collect_ops(item))

        def union(method_names: Iterable[str]) -> _MethodOps:
            out = _MethodOps()
            for method in method_names:
                if method in ops_by_method:
                    out.merge(ops_by_method[method])
            return out

        # ask path: closure over self-method calls from _plan/_propose,
        # plus every set_* policy setter
        reachable: set[str] = set()
        queue = [m for m in ops_by_method if m in ASK_ROOTS]
        queue += [m for m in ops_by_method if m.startswith("set_")]
        while queue:
            method = queue.pop()
            if method in reachable:
                continue
            reachable.add(method)
            queue.extend(
                callee
                for callee in ops_by_method.get(method, _MethodOps()).calls
                if callee in ops_by_method
            )
        reachable -= (
            RESET_METHODS | OBSERVE_METHODS | STATE_READ_METHODS | RESTORE_METHODS
        )

        ask_ops = union(reachable)
        observe_ops = union(OBSERVE_METHODS)
        reset_ops = union(RESET_METHODS)
        restore_ops = union(RESTORE_METHODS)
        restore_writes = set(restore_ops.writes) | set(restore_ops.resets)

        def snapshot_covered(attr: str) -> bool:
            # written on the restore path: deserialized or rebuilt as a
            # derived cache in _load_state_dict
            return attr in restore_writes

        path = str(module.path)
        for attr, line in sorted(ask_ops.writes.items(), key=lambda kv: kv[1]):
            if attr in EXEMPT_ATTRS or snapshot_covered(attr):
                continue
            yield Finding(
                rule=self.id,
                path=path,
                line=line,
                message=f"{name}.{attr} is mutated on the ask path but does "
                "not ride the snapshot: restore observes the history only, "
                "so this state is lost (or stale) after restore",
                hint=f"serialize {attr} in _state_dict and restore (or "
                "rebuild) it in _load_state_dict",
            )
        for attr, line in sorted(observe_ops.writes.items(), key=lambda kv: kv[1]):
            if attr in EXEMPT_ATTRS or snapshot_covered(attr):
                continue
            if attr in reset_ops.writes or attr in reset_ops.resets:
                continue  # observe-rebuilt: reset + re-observed
            yield Finding(
                rule=self.id,
                path=path,
                line=line,
                message=f"{name}.{attr} is mutated in _observe but never "
                "reset in _reset_state: observing the history on restore "
                "would stack onto stale state from the previous run",
                hint=f"reset {attr} in _reset_state (observing rebuilds it) "
                "or carry it in _state_dict",
            )
