"""R11: resource/exception lifecycle in transport and population code.

The socket layer and the spill/restore machinery hold resources whose
lifetime must be exact on *every* CFG path — including the exception
edges chaos testing exercises on purpose:

* **R1101** — a resource acquired by a tracked call (``socket.socket``,
  ``dial``, ``open``, ``accept`` …) reaches the function's exit or an
  uncaught raise still merely *acquired*: neither released
  (``.close()``/``close_quietly``) nor escaped (returned, yielded, or
  stored into an object that owns it from then on).  Under connection
  churn each leaked fd is a slow fleet-killer.
* **R1102** — a resource used or re-released after every path has
  already released it: use-after-close.
* **R1103** — a destructive take from shared state (``X.discard(k)``,
  ``del X[k]`` on a ``self`` container, directly or via a local alias)
  can reach an uncaught raise before the taken value was committed
  back (re-stored into the same container): the marker is lost and the
  client silently forks a fresh trajectory.

Escape semantics: passing a resource to a *bare* call statement
(``send_message(sock, …)``) is a use, not an escape — helpers do not
retain their arguments; passing it into a call whose result is kept
(``link = _WorkerLink(sock)``) transfers ownership.  ``with``-managed
resources are exempt.  Scope:
:attr:`LintConfig.lifecycle_module_prefixes`.
"""

from __future__ import annotations

import ast
import weakref

from repro.analysis.cfg import build_cfg
from repro.analysis.core import FileRule, Violation, register_rule
from repro.analysis.dataflow import DataflowAnalysis, bound_names, solve
from repro.analysis.project import Project, SourceFile

__all__ = ["R1101ResourceLeak", "R1102UseAfterRelease", "R1103LossyTake"]

ACQ = "acq"
REL = "rel"
ESC = "esc"


def _dotted_name(expr: ast.expr) -> str:
    """``a.b.c`` for a pure name/attribute chain, else ``""``."""
    parts: list[str] = []
    node = expr
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _in_scope(source: SourceFile, project: Project) -> bool:
    return any(
        source.module == p or source.module.startswith(p + ".")
        for p in project.config.lifecycle_module_prefixes
    )


def _acquire_targets(stmt: ast.stmt, config) -> list[ast.Name]:
    """Name(s) bound to a fresh resource by this statement, if any."""
    if not isinstance(stmt, ast.Assign) or not isinstance(stmt.value, ast.Call):
        return []
    name = _dotted_name(stmt.value.func)
    tail = name.rsplit(".", 1)[-1] if name else ""
    matches_plain = name and any(
        name == a or name.endswith("." + a) for a in config.resource_acquirers
    )
    matches_tuple = tail in config.resource_tuple_acquirers
    if not matches_plain and not matches_tuple:
        return []
    targets: list[ast.Name] = []
    for target in stmt.targets:
        if isinstance(target, ast.Name):
            targets.append(target)
        elif (
            matches_tuple
            and isinstance(target, (ast.Tuple, ast.List))
            and target.elts
            and isinstance(target.elts[0], ast.Name)
        ):
            targets.append(target.elts[0])
    return targets


def _release_names(stmt: ast.stmt, config) -> list[tuple[str, int]]:
    """Variables released by this statement: ``x.close()`` / ``close_quietly(x)``."""
    out: list[tuple[str, int]] = []
    for node in ast.walk(stmt):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in config.resource_release_methods
            and isinstance(func.value, ast.Name)
        ):
            out.append((func.value.id, node.lineno))
        else:
            name = _dotted_name(func)
            tail = name.rsplit(".", 1)[-1] if name else ""
            if tail in config.resource_release_funcs:
                # Quiet closers take any number of resources; a single
                # call releases them all atomically.
                for arg in node.args:
                    if isinstance(arg, ast.Name):
                        out.append((arg.id, node.lineno))
    return out


def _escape_names(stmt: ast.stmt) -> set[str]:
    """Variables whose value this statement hands off for keeps.

    Return/yield values, attribute/subscript stores, and arguments of
    calls whose result is itself kept (assigned, returned, stored).
    Bare ``Expr`` call statements are uses, not escapes.
    """
    escaped: set[str] = set()

    def names_in(expr: ast.expr) -> None:
        for node in ast.walk(expr):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                escaped.add(node.id)

    if isinstance(stmt, ast.Return) and stmt.value is not None:
        names_in(stmt.value)
    elif isinstance(stmt, ast.Expr) and isinstance(
        stmt.value, (ast.Yield, ast.YieldFrom)
    ):
        if stmt.value.value is not None:
            names_in(stmt.value.value)
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
        targets = (
            stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        )
        value = stmt.value
        stored_elsewhere = any(
            isinstance(t, (ast.Attribute, ast.Subscript)) for t in targets
        )
        if value is not None:
            if isinstance(value, ast.Name):
                if stored_elsewhere:
                    escaped.add(value.id)
            else:
                # The value expression's result is kept; any resource
                # fed into a call inside it transfers ownership.
                for node in ast.walk(value):
                    if isinstance(node, ast.Call):
                        for arg in list(node.args) + [
                            kw.value for kw in node.keywords
                        ]:
                            names_in(arg)
                if stored_elsewhere:
                    names_in(value)
    return escaped


def _self_container_root(expr: ast.expr, aliases: dict) -> frozenset[str]:
    """Attribute names on ``self`` that ``expr`` may denote.

    ``self._spilled`` → {"_spilled"}; a local alias resolves through
    the state's alias map; anything else → ∅.
    """
    if (
        isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.value.id == "self"
    ):
        return frozenset({expr.attr})
    if isinstance(expr, ast.Name):
        return aliases.get(expr.id, frozenset())
    return frozenset()


_COMMIT_METHODS = frozenset(
    {"add", "append", "insert", "update", "setdefault", "extend", "push"}
)


class _Lifecycle(DataflowAnalysis):
    """Token statuses + variable bindings + pending destructive takes.

    State keys: ``("res", site)`` → frozenset of per-path statuses
    (:data:`ACQ`/:data:`REL`/:data:`ESC`); ``("var", name)`` →
    frozenset of resource sites bound to the name; ``("alias", name)``
    → frozenset of ``self`` attribute roots; ``("take", site)`` →
    frozenset of roots the take has not yet committed back to.
    """

    def __init__(self, config):
        self.config = config
        # (site, kind) effects recorded during reporting; transfer is pure.

    def bottom(self) -> dict:
        return {}

    def join(self, a: dict, b: dict) -> dict:
        out = dict(a)
        for key, value in b.items():
            existing = out.get(key)
            out[key] = value if existing is None else existing | value
        return out

    # -- helpers -------------------------------------------------------

    def _aliases(self, state: dict) -> dict:
        return {
            key[1]: value for key, value in state.items() if key[0] == "alias"
        }

    def _tokens(self, state: dict, name: str) -> frozenset:
        return state.get(("var", name), frozenset())

    # -- transfer ------------------------------------------------------

    def transfer(self, node, state: dict) -> dict:
        stmt = node.stmt
        assert stmt is not None
        new = dict(state)

        # Kill rebindings first (acquisition below re-adds its own).
        for name in bound_names(stmt):
            new.pop(("var", name), None)
            new.pop(("alias", name), None)

        # Releases act on the pre-kill bindings.
        for name, _line in _release_names(stmt, self.config):
            for token in self._tokens(state, name):
                new[("res", token)] = frozenset({REL})

        # Escapes.
        escaped = _escape_names(stmt)
        for name in escaped:
            for token in self._tokens(state, name):
                new[("res", token)] = frozenset({ESC})

        # Acquisition: fresh token per site, bound to the target name.
        for target in _acquire_targets(stmt, self.config):
            new[("res", node.idx)] = frozenset({ACQ})
            new[("var", target.id)] = frozenset({node.idx})

        # Alias tracking: ``live = self._live``.
        if (
            isinstance(stmt, ast.Assign)
            and isinstance(stmt.value, ast.Attribute)
            and isinstance(stmt.value.value, ast.Name)
            and stmt.value.value.id == "self"
        ):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    new[("alias", target.id)] = frozenset({stmt.value.attr})

        aliases = self._aliases(state)

        # Destructive takes: ``X.discard(k)`` / ``del X[k]``.
        take_roots: frozenset[str] = frozenset()
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
            func = stmt.value.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in self.config.destructive_take_methods
            ):
                take_roots = _self_container_root(func.value, aliases)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Subscript):
                    take_roots = take_roots | _self_container_root(
                        target.value, aliases
                    )
        if take_roots:
            new[("take", node.idx)] = take_roots

        # Commits: re-storing into a taken root clears its takes.
        committed: set[str] = set()
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Subscript):
                    committed.update(_self_container_root(target.value, aliases))
                elif (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    committed.add(target.attr)
        for cnode in ast.walk(stmt):
            if (
                isinstance(cnode, ast.Call)
                and isinstance(cnode.func, ast.Attribute)
                and cnode.func.attr in _COMMIT_METHODS
            ):
                committed.update(
                    _self_container_root(cnode.func.value, aliases)
                )
        if committed:
            for key in list(new):
                if key[0] == "take":
                    remaining = new[key] - frozenset(committed)
                    if remaining:
                        new[key] = remaining
                    else:
                        del new[key]
        return new

    def transfer_exception(self, node, state_in: dict, state_out: dict) -> dict:
        stmt = node.stmt
        assert stmt is not None
        # A failed acquisition never produced the resource; a failed
        # take never removed the value: the raise propagates the
        # *pre*-state.  A close()/commit that raises still released /
        # committed for lint purposes: *post*-state.
        if _acquire_targets(stmt, self.config) or _is_take(stmt, self.config):
            return state_in
        if _release_names(stmt, self.config):
            return state_out
        if _is_simple_commit(stmt):
            return state_out
        return self.join(state_in, state_out)


def _is_simple_commit(stmt: ast.stmt) -> bool:
    """``container[key] = name`` — a re-store whose value needs no
    evaluation.  Its only raise opportunity is the store itself, and a
    dict/list setitem on a hashable key failing means the process is
    done for anyway; the exception edge may assume the commit landed.
    """
    return (
        isinstance(stmt, ast.Assign)
        and all(isinstance(t, ast.Subscript) for t in stmt.targets)
        and isinstance(stmt.value, (ast.Name, ast.Constant))
    )


def _is_take(stmt: ast.stmt, config) -> bool:
    if isinstance(stmt, ast.Delete):
        return any(isinstance(t, ast.Subscript) for t in stmt.targets)
    return (
        isinstance(stmt, ast.Expr)
        and isinstance(stmt.value, ast.Call)
        and isinstance(stmt.value.func, ast.Attribute)
        and stmt.value.func.attr in config.destructive_take_methods
    )


# The three R11 rules share one analysis per file: findings are kept
# per project, for as long as the project lives.
_FINDINGS: "weakref.WeakKeyDictionary[Project, dict]" = weakref.WeakKeyDictionary()


def _findings(source: SourceFile, project: Project) -> list[tuple[str, int, str]]:
    cache = _FINDINGS.setdefault(project, {})
    if source.rel not in cache:
        cache[source.rel] = _analyse(source, project) if _in_scope(source, project) else []
    return cache[source.rel]


def _analyse(source: SourceFile, project: Project) -> list[tuple[str, int, str]]:
    findings: list[tuple[str, int, str]] = []
    config = project.config
    for func in ast.walk(source.tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        cfg = build_cfg(func)
        analysis = _Lifecycle(config)
        result = solve(cfg, analysis)

        # R1101: resources still merely-acquired at either exit.
        leaks: dict[int, str] = {}
        for exit_idx, how in ((cfg.raise_exit, "an exception path"), (cfg.exit, "a normal path")):
            state = result.at(exit_idx)
            if not state:
                continue
            for key_, statuses in state.items():
                if key_[0] == "res" and ACQ in statuses:
                    leaks.setdefault(key_[1], how)
        for site, how in sorted(leaks.items()):
            stmt = cfg.nodes[site].stmt
            findings.append(
                (
                    "R1101",
                    stmt.lineno,
                    f"resource acquired here can reach {how} without being "
                    "released or handed off; close it on every path "
                    "(including exception edges)",
                )
            )

        # R1102: releases/uses on definitely-released resources.
        for node in cfg.stmt_nodes():
            state = result.at(node.idx)
            if not state:
                continue
            for name, line in _release_names(node.stmt, config):
                tokens = state.get(("var", name), frozenset())
                if tokens and all(
                    state.get(("res", t)) == frozenset({REL}) for t in tokens
                ):
                    findings.append(
                        (
                            "R1102",
                            line,
                            f"'{name}' is already closed on every path "
                            "reaching this second release",
                        )
                    )
            # Any other use of a definitely-released resource.
            if not isinstance(node.stmt, (ast.Assign, ast.Expr)):
                continue
            for call in ast.walk(node.stmt):
                if (
                    isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Attribute)
                    and isinstance(call.func.value, ast.Name)
                    and call.func.attr not in config.resource_release_methods
                ):
                    name = call.func.value.id
                    tokens = state.get(("var", name), frozenset())
                    if tokens and all(
                        state.get(("res", t)) == frozenset({REL})
                        for t in tokens
                    ):
                        findings.append(
                            (
                                "R1102",
                                call.lineno,
                                f"'{name}' is used after every path has "
                                "already closed it",
                            )
                        )

        # R1103: destructive takes alive at the raise exit.
        state = result.at(cfg.raise_exit)
        if state:
            for key_, roots in sorted(
                (k, v) for k, v in state.items() if k[0] == "take"
            ):
                stmt = cfg.nodes[key_[1]].stmt
                pretty = ", ".join(f"self.{r}" for r in sorted(roots))
                findings.append(
                    (
                        "R1103",
                        stmt.lineno,
                        f"value taken from {pretty} here can be lost to an "
                        "exception before being committed back; take after "
                        "the fallible work (or re-store on failure)",
                    )
                )

    findings.sort(key=lambda f: (f[1], f[0]))
    return findings


class _R11Base(FileRule):
    def check_file(self, source: SourceFile, project: Project):
        for rule_id, line, message in _findings(source, project):
            if rule_id == self.id:
                yield Violation(
                    rule=self.id,
                    path=source.rel,
                    line=line,
                    message=message,
                    snippet=source.snippet(line),
                )


@register_rule
class R1101ResourceLeak(_R11Base):
    """R1101: a resource can reach function exit neither released nor handed off."""

    id = "R1101"
    summary = "resources release or escape on every CFG path, exceptions included"


@register_rule
class R1102UseAfterRelease(_R11Base):
    """R1102: a resource is used or re-released after it is definitely closed."""

    id = "R1102"
    summary = "no use or re-release of a resource after it is definitely closed"


@register_rule
class R1103LossyTake(_R11Base):
    """R1103: a destructive take can be lost to an exception before commit."""

    id = "R1103"
    summary = "destructive takes from shared state commit before any raise can escape"
